// Little-endian byte (de)serialisation helpers.
//
// All on-disk integers in qnnckpt are little-endian, fixed width. These
// helpers append to / read from byte buffers without alignment assumptions.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace qnn::util {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// Appends `v` to `out` as `sizeof(T)` little-endian bytes. Grows `out`
/// and copies into the new tail: GCC's -Wstringop-overflow misreads a
/// vector insert once it is inlined into a serializer.
template <typename T>
inline void put_le(Bytes& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

/// Reads `sizeof(T)` little-endian bytes at `offset`; advances `offset`.
/// Throws std::out_of_range when the buffer is too short.
template <typename T>
inline T get_le(ByteSpan in, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (offset + sizeof(T) > in.size()) {
    throw std::out_of_range("get_le: buffer underrun");
  }
  T v;
  std::memcpy(&v, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return v;
}

/// Appends a length-prefixed (u64) byte string.
inline void put_bytes(Bytes& out, ByteSpan payload) {
  put_le<std::uint64_t>(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

/// Reads a length-prefixed (u64) byte string written by put_bytes.
inline Bytes get_bytes(ByteSpan in, std::size_t& offset) {
  const auto n = get_le<std::uint64_t>(in, offset);
  if (n > in.size() - offset) {  // offset <= size: cannot wrap
    throw std::out_of_range("get_bytes: buffer underrun");
  }
  Bytes b(in.begin() + static_cast<std::ptrdiff_t>(offset),
          in.begin() + static_cast<std::ptrdiff_t>(offset + n));
  offset += n;
  return b;
}

/// Appends a length-prefixed UTF-8 string.
inline void put_string(Bytes& out, const std::string& s) {
  put_le<std::uint64_t>(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// Reads a length-prefixed UTF-8 string written by put_string.
inline std::string get_string(ByteSpan in, std::size_t& offset) {
  const auto n = get_le<std::uint64_t>(in, offset);
  if (n > in.size() - offset) {
    throw std::out_of_range("get_string: buffer underrun");
  }
  std::string s(reinterpret_cast<const char*>(in.data()) + offset, n);
  offset += n;
  return s;
}

/// Appends a vector of trivially-copyable values with a u64 element count.
template <typename T>
inline void put_vector(Bytes& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_le<std::uint64_t>(out, v.size());
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(T));
  if (!v.empty()) {  // empty vectors may have a null data() — UB for memcpy
    std::memcpy(out.data() + at, v.data(), v.size() * sizeof(T));
  }
}

/// Reads a vector written by put_vector.
template <typename T>
inline std::vector<T> get_vector(ByteSpan in, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = get_le<std::uint64_t>(in, offset);
  if (n > (in.size() - offset) / sizeof(T)) {
    throw std::out_of_range("get_vector: buffer underrun");
  }
  std::vector<T> v(n);
  if (n != 0) {  // empty vectors may have a null data() — UB for memcpy
    std::memcpy(v.data(), in.data() + offset, n * sizeof(T));
  }
  offset += n * sizeof(T);
  return v;
}

/// Reinterprets a vector of trivially-copyable values as a byte span.
template <typename T>
inline ByteSpan as_bytes(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(T)};
}

/// as_bytes over a mutable vector: its elements' bytes, writable.
template <typename T>
inline std::span<std::uint8_t> as_writable_bytes(std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<std::uint8_t*>(v.data()), v.size() * sizeof(T)};
}

}  // namespace qnn::util
