// Bounds-checked little-endian binary primitives under the wire codec.
//
// Payloads are exchanged only between instances of this library, so a wire
// format mismatch is a programming error: BufReader throws SerializationError
// on underflow rather than returning error codes, keeping protocol decode
// paths linear and readable.
//
// One writer, one reader, both driven by net/wire.h's LLS_WIRE_FIELDS
// visitors (code elsewhere declares field lists rather than calling these
// directly):
//   * FlatWriter cursors over a preallocated, exactly-sized slab (sized by
//     wire::Measurer): one sized allocation (or a pooled buffer), then
//     fixed-width memcpy-style stores.
//   * BufReader reads from a non-owned view, copying (get_bytes,
//     get_string) or borrowing (get_view).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/bytes.h"

namespace lls {

class SerializationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
// Lazily resolves an enum to its underlying type; identity otherwise.
template <typename T, bool = std::is_enum_v<T>>
struct wire_int {
  using type = std::underlying_type_t<T>;
};
template <typename T>
struct wire_int<T, false> {
  using type = T;
};
template <typename T>
using wire_unsigned_t = std::make_unsigned_t<typename wire_int<T>::type>;

/// Stores `value` little-endian at `dst` (sizeof(wire_unsigned_t<T>) bytes).
template <typename T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
inline void store_le(std::byte* dst, T value) {
  using U = wire_unsigned_t<T>;
  auto u = static_cast<U>(value);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &u, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      dst[i] = static_cast<std::byte>((u >> (8 * i)) & 0xff);
    }
  }
}

/// Loads a little-endian T from `src`.
template <typename T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
[[nodiscard]] inline T load_le(const std::byte* src) {
  using U = wire_unsigned_t<T>;
  U u = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&u, src, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      u |= static_cast<U>(std::to_integer<std::uint8_t>(src[i])) << (8 * i);
    }
  }
  return static_cast<T>(u);
}
}  // namespace detail

/// Writes little-endian encodings into a preallocated slab. The caller
/// sizes the slab exactly (wire::measure); overrun is a programming error
/// caught by debug asserts, and wire::encode_to additionally asserts the
/// field walk filled the slab to the byte.
class FlatWriter {
 public:
  explicit FlatWriter(std::span<std::byte> slab)
      : data_(slab.data()), size_(slab.size()) {}

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void put(T value) {
    using U = detail::wire_unsigned_t<T>;
    assert(pos_ + sizeof(U) <= size_);
    detail::store_le(data_ + pos_, value);
    pos_ += sizeof(U);
  }

  void put_bytes(BytesView bytes) {
    put(static_cast<std::uint32_t>(bytes.size()));
    assert(pos_ + bytes.size() <= size_);
    if (!bytes.empty()) std::memcpy(data_ + pos_, bytes.data(), bytes.size());
    pos_ += bytes.size();
  }

  void put_string(std::string_view s) {
    put_bytes(std::as_bytes(std::span(s)));
  }

  [[nodiscard]] std::size_t written() const { return pos_; }

 private:
  std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Reads little-endian encodings from a non-owned view.
class BufReader {
 public:
  explicit BufReader(BytesView view) : view_(view) {}

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  T get() {
    using U = detail::wire_unsigned_t<T>;
    require(sizeof(U));
    T out = detail::load_le<T>(view_.data() + pos_);
    pos_ += sizeof(U);
    return out;
  }

  /// Borrows the next length-prefixed span from the underlying buffer. The
  /// view is only valid while that buffer lives — wrap it in WireBlob::ref
  /// so debug builds track the lifetime.
  BytesView get_view() {
    auto len = get<std::uint32_t>();
    require(len);
    BytesView out = view_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  /// Copying variants of get_view.
  Bytes get_bytes() {
    BytesView v = get_view();
    return Bytes(v.begin(), v.end());
  }

  std::string get_string() {
    BytesView v = get_view();
    return {reinterpret_cast<const char*>(v.data()), v.size()};
  }

  [[nodiscard]] std::size_t remaining() const { return view_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  void require(std::size_t bytes) const {
    if (pos_ + bytes > view_.size()) {
      throw SerializationError("buffer underflow: need " +
                               std::to_string(bytes) + " bytes, have " +
                               std::to_string(view_.size() - pos_));
    }
  }

  BytesView view_;
  std::size_t pos_ = 0;
};

}  // namespace lls
