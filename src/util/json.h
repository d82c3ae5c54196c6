#ifndef TASTI_UTIL_JSON_H_
#define TASTI_UTIL_JSON_H_

/// \file json.h
/// Minimal read-only JSON parser.
///
/// Exists so the observability exports (Chrome traces, query logs) can
/// be validated without an external dependency: the trace_check CTest and
/// tests/obs_test.cc parse the emitted files and assert structure.
/// Supports the full JSON value grammar except \uXXXX escapes beyond
/// Latin-1 (the exporters never emit them); numbers are parsed as double.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace tasti::json {

/// A parsed JSON value (immutable DOM).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses a complete JSON document (trailing whitespace allowed,
  /// trailing garbage rejected).
  static Result<Value> Parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; abort (TASTI_CHECK) on type mismatch.
  bool AsBool() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const std::vector<Value>& AsArray() const;
  const std::map<std::string, Value>& AsObject() const;

  /// Object member lookup; nullptr if absent or not an object.
  const Value* Find(const std::string& key) const;

  /// Convenience: Find(key) if it holds the matching type, else fallback.
  double GetNumberOr(const std::string& key, double fallback) const;
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;

  Value() : type_(Type::kNull) {}

 private:
  friend class Parser;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

}  // namespace tasti::json

#endif  // TASTI_UTIL_JSON_H_
