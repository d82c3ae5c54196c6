#ifndef TASTI_UTIL_TABLE_H_
#define TASTI_UTIL_TABLE_H_

/// \file table.h
/// Aligned console tables and CSV emission for the benchmark harness.
///
/// Every figure/table bench prints its series through TablePrinter so output
/// is uniform and machine-scrapable.

#include <string>
#include <vector>

namespace tasti {

/// Builds a column-aligned text table.
///
/// Usage:
///   TablePrinter t({"method", "dataset", "labeler calls"});
///   t.AddRow({"TASTI-T", "night-street", Fmt(21200)});
///   std::cout << t.ToString();
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; must match the header arity.
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with a header rule and aligned columns.
  std::string ToString() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` fractional digits.
std::string Fmt(double value, int digits = 2);

/// Formats an integer count with thousands separators ("21,200").
std::string FmtCount(long long value);

/// Formats a value in thousands with one decimal ("21.2k").
std::string FmtK(double value);

/// Formats a percentage with one decimal ("7.8%").
std::string FmtPercent(double fraction);

/// Formats US dollars ("$1,482").
std::string FmtDollars(double dollars);

}  // namespace tasti

#endif  // TASTI_UTIL_TABLE_H_
