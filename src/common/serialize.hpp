// Binary checkpoint serialization primitives.
//
// Everything the checkpoint subsystem writes goes through these helpers:
// fixed little-endian integer encodings, doubles as IEEE-754 bit patterns
// (restored values are bit-exact, which the resume determinism contract
// requires), and length-prefixed strings. Reads throw std::runtime_error
// with a pointed message on a short or malformed stream, so a truncated
// checkpoint is rejected instead of silently restoring garbage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dfsim::ser {

inline void write_bytes(std::ostream& os, const void* data, std::size_t n) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(n));
}

inline void read_bytes(std::istream& is, void* data, std::size_t n,
                       const char* what) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n) {
    throw std::runtime_error(
        std::string("checkpoint truncated while reading ") + what);
  }
}

inline void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  write_bytes(os, b, 8);
}

inline std::uint64_t read_u64(std::istream& is, const char* what) {
  unsigned char b[8];
  read_bytes(is, b, 8, what);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

inline void write_u32(std::ostream& os, std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  write_bytes(os, b, 4);
}

inline std::uint32_t read_u32(std::istream& is, const char* what) {
  unsigned char b[4];
  read_bytes(is, b, 4, what);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

inline void write_i64(std::ostream& os, std::int64_t v) {
  write_u64(os, static_cast<std::uint64_t>(v));
}
inline std::int64_t read_i64(std::istream& is, const char* what) {
  return static_cast<std::int64_t>(read_u64(is, what));
}

inline void write_i32(std::ostream& os, std::int32_t v) {
  write_u32(os, static_cast<std::uint32_t>(v));
}
inline std::int32_t read_i32(std::istream& is, const char* what) {
  return static_cast<std::int32_t>(read_u32(is, what));
}

inline void write_u8(std::ostream& os, std::uint8_t v) {
  write_bytes(os, &v, 1);
}
inline std::uint8_t read_u8(std::istream& is, const char* what) {
  std::uint8_t v = 0;
  read_bytes(is, &v, 1, what);
  return v;
}

/// Doubles travel as their IEEE-754 bit pattern: restore is bit-exact, so
/// resumed floating-point accumulations continue from the same values.
inline void write_f64(std::ostream& os, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  write_u64(os, bits);
}

inline double read_f64(std::istream& is, const char* what) {
  const std::uint64_t bits = read_u64(is, what);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  write_bytes(os, s.data(), s.size());
}

/// Payloads are read in chunks of this many bytes, growing the buffer
/// only as bytes actually arrive: a corrupt length prefix then fails as
/// truncation after allocating about what the stream holds, never the
/// gigabytes the length claims.
inline constexpr std::size_t kReadChunkBytes = 64 * 1024;

inline std::string read_string(std::istream& is, const char* what) {
  const std::uint64_t n = read_u64(is, what);
  // A length beyond any sane checkpoint is corruption, not a string.
  if (n > (1ULL << 32)) {
    throw std::runtime_error(
        std::string("checkpoint corrupt: implausible string length for ") +
        what);
  }
  std::string s;
  while (s.size() < n) {
    const std::size_t at = s.size();
    const std::size_t take = std::min<std::size_t>(n - at, kReadChunkBytes);
    s.resize(at + take);
    read_bytes(is, s.data() + at, take, what);
  }
  return s;
}

/// Structural expectation check for header fields: a checkpoint written
/// for a different shape/config names the first mismatching field.
inline void expect_u64(std::istream& is, std::uint64_t expected,
                       const char* field) {
  const std::uint64_t got = read_u64(is, field);
  if (got != expected) {
    throw std::runtime_error(
        std::string("checkpoint mismatch: ") + field + " is " +
        std::to_string(got) + " in the checkpoint but " +
        std::to_string(expected) + " in this configuration");
  }
}

inline void write_u64_vec(std::ostream& os,
                          const std::vector<std::uint64_t>& v) {
  write_u64(os, v.size());
  for (const auto x : v) write_u64(os, x);
}

inline std::vector<std::uint64_t> read_u64_vec(std::istream& is,
                                               const char* what) {
  const std::uint64_t n = read_u64(is, what);
  if (n > (1ULL << 32)) {
    throw std::runtime_error(
        std::string("checkpoint corrupt: implausible vector length for ") +
        what);
  }
  std::vector<std::uint64_t> v;
  v.reserve(std::min<std::size_t>(n, kReadChunkBytes / sizeof(std::uint64_t)));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_u64(is, what));
  return v;
}

}  // namespace dfsim::ser
