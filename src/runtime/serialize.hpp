// Minimal binary serialization for mobile<->edge message exchange.
//
// The paper uses Boost serialization for structured payloads (contour
// vertices etc.). We provide a compact little-endian writer/reader pair.
// All multi-byte values are encoded little-endian regardless of host order;
// the project only targets little-endian hosts, which is checked statically.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace edgeis::rt {

static_assert(std::endian::native == std::endian::little,
              "edgeis serialization assumes a little-endian host");

class ByteWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T> && std::is_arithmetic_v<T>
  void put(T value) {
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &value, sizeof(T));
  }

  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T> && std::is_arithmetic_v<T>
  void put_vector(const std::vector<T>& v) {
    put<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
    const auto old = buf_.size();
    buf_.resize(old + v.size() * sizeof(T));
    // memcpy with a null source is UB even for zero bytes, and an empty
    // vector may hand out a null data().
    if (!v.empty()) {
      std::memcpy(buf_.data() + old, v.data(), v.size() * sizeof(T));
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Thrown when a reader runs past the end of its buffer — indicates a
/// truncated or corrupt message.
class DeserializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : data_(bytes) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T> && std::is_arithmetic_v<T>
  T get() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T> && std::is_arithmetic_v<T>
  std::vector<T> get_vector() {
    const auto n = get<std::uint32_t>();
    require(static_cast<std::size_t>(n) * sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw DeserializeError("buffer underrun while deserializing");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace edgeis::rt
