#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/// \file serialize.hpp
/// The binary codec behind every persisted model (the `.hpcp` archive's
/// sections, see src/registry/archive.hpp).
///
/// Wire format: integers are u64 little-endian; a double is its 8 raw
/// bytes (bit-exact by construction, NaN payloads and signed zeros
/// included); a bool is one byte (0 or 1); strings are a u64 length then
/// the bytes; vectors are a u64 count then the elements, with
/// `vector<double>` written as one contiguous block so the reader is a
/// bounds-checked memcpy rather than a parse. A tag is a length-prefixed
/// string the reader verifies, so version or structure mismatches fail
/// loudly instead of mis-parsing.
///
/// Serializer writes to any ostream. Deserializer reads from a byte span
/// the caller keeps alive (an mmap'd archive section or a heap buffer);
/// every read is bounds-checked and throws std::runtime_error on overrun
/// or malformed input — the archive layer turns that into a typed BadData
/// error, never UB.

namespace hpcp {

class Serializer {
 public:
  explicit Serializer(std::ostream& out) : out_(out) {}
  Serializer(const Serializer&) = delete;
  Serializer& operator=(const Serializer&) = delete;

  void tag(const std::string& name);
  void write(double v);
  void write(std::size_t v);
  void write(std::int64_t v);
  void write(bool v);
  void write(const std::string& s);
  void write(const std::vector<double>& v);
  void write(const std::vector<std::size_t>& v);
  void write(const std::vector<std::string>& v);

 private:
  void put_u64(std::uint64_t v);
  void put_bytes(const void* data, std::size_t n);

  std::ostream& out_;
};

class Deserializer {
 public:
  Deserializer(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}
  Deserializer(const Deserializer&) = delete;
  Deserializer& operator=(const Deserializer&) = delete;

  /// Throws std::runtime_error if the next tag differs.
  void expect_tag(const std::string& name);
  [[nodiscard]] double read_double();
  [[nodiscard]] std::size_t read_size();
  [[nodiscard]] std::int64_t read_int();
  [[nodiscard]] bool read_bool();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<double> read_doubles();
  [[nodiscard]] std::vector<std::size_t> read_sizes();
  [[nodiscard]] std::vector<std::string> read_strings();

  /// Bytes a successful parse used, so callers can reject trailing
  /// garbage.
  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }

 private:
  [[nodiscard]] std::uint64_t take_u64();
  /// Bounds check + advance; throws std::runtime_error on overrun.
  [[nodiscard]] const unsigned char* take(std::size_t n);

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace hpcp
