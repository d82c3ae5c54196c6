#ifndef TASTI_UTIL_BYTE_CODEC_H_
#define TASTI_UTIL_BYTE_CODEC_H_

/// \file byte_codec.h
/// The primitives every on-disk format (index, MLP, label, WAL record,
/// checkpoint and manifest) is written with: a trivially copyable value as
/// its host-order bytes, and a float matrix as u64 rows, u64 cols and its
/// row-major floats. Readers advance `*at` and return false rather than
/// read past the end of `in`.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "nn/matrix.h"

namespace tasti {

template <typename T>
void Put(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>, "Put requires POD");
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool Get(const std::string& in, size_t* at, T* value) {
  static_assert(std::is_trivially_copyable_v<T>, "Get requires POD");
  if (*at + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *at, sizeof(T));
  *at += sizeof(T);
  return true;
}

inline void PutMatrix(std::string* out, const nn::Matrix& m) {
  Put<uint64_t>(out, m.rows());
  Put<uint64_t>(out, m.cols());
  out->append(reinterpret_cast<const char*>(m.data()), m.size() * sizeof(float));
}

inline bool GetMatrix(const std::string& in, size_t* at, nn::Matrix* m) {
  uint64_t rows = 0, cols = 0;
  if (!Get(in, at, &rows) || !Get(in, at, &cols)) return false;
  const size_t bytes = static_cast<size_t>(rows * cols) * sizeof(float);
  if (*at + bytes > in.size()) return false;
  *m = nn::Matrix(rows, cols);
  std::memcpy(m->data(), in.data() + *at, bytes);
  *at += bytes;
  return true;
}

}  // namespace tasti

#endif  // TASTI_UTIL_BYTE_CODEC_H_
