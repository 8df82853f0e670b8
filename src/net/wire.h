// Declare-fields-once wire codec: the repo's only binary format layer.
//
// Every message and durable record declares its layout once, with
// LLS_WIRE_FIELDS(Type, fields...): a visitor walks the fields in
// declaration order — Measurer sums sizes, Encoder writes, Decoder reads —
// so the directions cannot drift. The byte layouts are pinned by
// tests/wire_golden_test.cc:
//
//   bool                      -> 1 byte (0/1)
//   integral / enum           -> little-endian, sizeof(underlying) bytes
//   Bytes / WireBlob          -> u32 length + raw bytes
//   std::string               -> u32 length + raw bytes
//   std::optional<T>          -> u8 present flag (0/1) + T when present
//   std::vector<T>            -> u32 count + each element's fields inline
//   nested LLS_WIRE_FIELDS    -> the element's fields inline (no framing)
//   wire::framed(x)           -> x (a nested struct) as u32 byte length +
//                                its fields; on a vector, u32 count + one
//                                such frame per element
//
// Encoding is a two-pass flat write: Measurer computes the exact byte count
// in one field walk, then Encoder lays fields into the preallocated slab
// through FlatWriter's fixed-width little-endian stores — no growth, no
// reallocation. encode() performs exactly one sized allocation;
// encode_pooled() performs none in steady state (the slab comes from a
// BufferPool). Decoding reads through BufReader and fills WireBlob fields
// with *borrows* into the source buffer (zero-copy); see common/blob.h for
// the lifetime rules. append() and decode_all() write and read a stream of
// back-to-back records (the durable log's journal).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/blob.h"
#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/serialization.h"

namespace lls::wire {

/// A field wrapper marking a nested struct (or each element of a vector of
/// them) as length-framed: a u32 byte length precedes the struct's fields,
/// so a reader can borrow the frame as a unit. Use it inside the field list:
///   LLS_WIRE_FIELDS(CommandBatch, wire::framed(commands))
template <typename T>
struct Framed {
  T& ref;
};

template <typename T>
[[nodiscard]] Framed<T> framed(T& v) {
  return {v};
}

namespace detail {
/// True when T is an instance of the class template Tmpl.
template <typename T, template <typename...> class Tmpl>
inline constexpr bool is_a = false;
template <template <typename...> class Tmpl, typename... Args>
inline constexpr bool is_a<Tmpl<Args...>, Tmpl> = true;

/// True when a framed field wraps a vector (one frame per element).
template <typename T>
inline constexpr bool frames_vector =
    is_a<std::remove_cvref_t<T>, std::vector>;
}  // namespace detail

template <typename T>
[[nodiscard]] std::size_t measure(const T& msg);

/// Field visitor for the sizing pass: sums the exact encoded byte count in
/// one walk, so the encode pass can write into an exactly-sized slab.
class Measurer {
 public:
  template <typename... Ts>
  void fields(const Ts&... vs) {
    (field(vs), ...);
  }

  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      size_ += 1;
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      size_ += sizeof(::lls::detail::wire_unsigned_t<T>);
    } else if constexpr (std::is_same_v<T, Bytes> ||
                         std::is_same_v<T, WireBlob> ||
                         std::is_same_v<T, std::string>) {
      size_ += 4 + v.size();
    } else if constexpr (detail::is_a<T, std::optional>) {
      size_ += 1;
      if (v.has_value()) field(*v);
    } else if constexpr (detail::is_a<T, std::vector>) {
      size_ += 4;
      for (const auto& e : v) field(e);
    } else if constexpr (detail::is_a<T, Framed>) {
      if constexpr (detail::frames_vector<decltype(v.ref)>) {
        size_ += 4;
        for (const auto& e : v.ref) size_ += 4 + measure(e);
      } else {
        size_ += 4 + measure(v.ref);
      }
    } else {
      v.visit_fields(*this);  // nested wire struct, inlined
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Exact encoded size of `msg` (one allocation-free field walk).
template <typename T>
[[nodiscard]] std::size_t measure(const T& msg) {
  Measurer m;
  msg.visit_fields(m);
  return m.size();
}

/// Field visitor for the encode direction: lays each field into a
/// FlatWriter slab in declaration order.
class Encoder {
 public:
  explicit Encoder(FlatWriter& w) : w_(w) {}

  template <typename... Ts>
  void fields(const Ts&... vs) {
    (field(vs), ...);
  }

  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.put(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      w_.put(v);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      w_.put_bytes(v);
    } else if constexpr (std::is_same_v<T, WireBlob>) {
      w_.put_bytes(v.view());
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.put_string(v);
    } else if constexpr (detail::is_a<T, std::optional>) {
      w_.put(static_cast<std::uint8_t>(v.has_value() ? 1 : 0));
      if (v.has_value()) field(*v);
    } else if constexpr (detail::is_a<T, std::vector>) {
      w_.put(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) field(e);
    } else if constexpr (detail::is_a<T, Framed>) {
      if constexpr (detail::frames_vector<decltype(v.ref)>) {
        w_.put(static_cast<std::uint32_t>(v.ref.size()));
        for (const auto& e : v.ref) frame(e);
      } else {
        frame(v.ref);
      }
    } else {
      v.visit_fields(*this);  // nested wire struct, inlined
    }
  }

 private:
  template <typename T>
  void frame(const T& v) {
    w_.put(static_cast<std::uint32_t>(measure(v)));
    v.visit_fields(*this);
  }

  FlatWriter& w_;
};

/// Field visitor for the decode direction: fills each field from a
/// BufReader in declaration order. Throws SerializationError on underflow.
/// WireBlob fields borrow from the source buffer instead of copying.
class Decoder {
 public:
  explicit Decoder(BufReader& r) : r_(r) {}

  template <typename... Ts>
  void fields(Ts&&... vs) {  // && also binds the wire::framed() wrappers
    (field(vs), ...);
  }

  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.get<std::uint8_t>() != 0;
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      v = r_.get<T>();
    } else if constexpr (std::is_same_v<T, Bytes>) {
      v = r_.get_bytes();
    } else if constexpr (std::is_same_v<T, WireBlob>) {
      v = WireBlob::ref(r_.get_view());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.get_string();
    } else if constexpr (detail::is_a<T, std::optional>) {
      if (r_.get<std::uint8_t>() != 0) {
        field(v.emplace());
      } else {
        v.reset();
      }
    } else if constexpr (detail::is_a<T, std::vector>) {
      auto count = r_.get<std::uint32_t>();
      v.clear();
      // Untrusted count: elements occupy >= 1 wire byte each, so capping
      // the reservation by the remaining buffer defuses a lying header.
      v.reserve(std::min<std::size_t>(count, r_.remaining()));
      for (std::uint32_t i = 0; i < count; ++i) field(v.emplace_back());
    } else if constexpr (detail::is_a<T, Framed>) {
      if constexpr (detail::frames_vector<decltype(v.ref)>) {
        auto count = r_.get<std::uint32_t>();
        v.ref.clear();
        // Each frame carries at least its u32 length.
        v.ref.reserve(std::min<std::size_t>(count, r_.remaining() / 4));
        for (std::uint32_t i = 0; i < count; ++i) unframe(v.ref.emplace_back());
      } else {
        unframe(v.ref);
      }
    } else {
      v.visit_fields(*this);
    }
  }

 private:
  /// Decodes a nested struct from its borrowed length-prefixed frame.
  template <typename T>
  void unframe(T& v) {
    BufReader frame(r_.get_view());
    Decoder d(frame);
    v.visit_fields(d);
  }

  BufReader& r_;
};

/// Encodes `msg` into `slab`, which must be exactly measure(msg) bytes.
template <typename T>
void encode_to(const T& msg, std::span<std::byte> slab) {
  FlatWriter w(slab);
  Encoder e(w);
  msg.visit_fields(e);
  assert(w.written() == slab.size() &&
         "Measurer/Encoder drift: walk did not fill the slab exactly");
}

/// One exactly-sized allocation + flat write.
template <typename T>
[[nodiscard]] Bytes encode(const T& msg) {
  Bytes out(measure(msg));
  encode_to(msg, out);
  return out;
}

/// Zero-allocation steady state: the slab is recycled through `pool`.
/// Typical hot-path use:
///   auto frame = wire::encode_pooled(rt.pool(), msg);
///   rt.send(dst, kAcceptType, frame.view());
///   // frame returns its buffer to the pool at end of scope
template <typename T>
[[nodiscard]] PooledBuffer encode_pooled(BufferPool& pool, const T& msg) {
  PooledBuffer out(pool, pool.acquire(measure(msg)));
  encode_to(msg, out.bytes());
  return out;
}

/// Appends `msg`'s encoding to `stream`, a buffer of back-to-back records
/// (no count, no framing: each record's fields delimit it). Clearing the
/// stream keeps its capacity, so a reused stream stops allocating.
template <typename T>
void append(Bytes& stream, const T& msg) {
  const std::size_t at = stream.size();
  stream.resize(at + measure(msg));
  encode_to(msg, std::span<std::byte>(stream).subspan(at));
}

template <typename T>
[[nodiscard]] T decode(BytesView payload) {
  BufReader r(payload);
  T msg{};
  Decoder d(r);
  msg.visit_fields(d);
  return msg;
}

/// Decodes every record of a stream built by append(). Throws
/// SerializationError when the stream does not end on a record boundary;
/// WireBlob fields borrow from `stream`.
template <typename T>
[[nodiscard]] std::vector<T> decode_all(BytesView stream) {
  BufReader r(stream);
  Decoder d(r);
  std::vector<T> out;
  while (!r.done()) out.emplace_back().visit_fields(d);
  return out;
}

}  // namespace lls::wire

/// Declares the wire layout of `Type` as the given member fields, in order
/// (optionally wrapped in wire::framed), and derives encode()/decode() from
/// it. Usable on nested element structs too (a std::vector of such elements
/// encodes as u32 count + inline elements).
#define LLS_WIRE_FIELDS(Type, ...)                                          \
  template <typename V>                                                     \
  void visit_fields(V& v) {                                                 \
    v.fields(__VA_ARGS__);                                                  \
  }                                                                         \
  template <typename V>                                                     \
  void visit_fields(V& v) const {                                           \
    v.fields(__VA_ARGS__);                                                  \
  }                                                                         \
  [[nodiscard]] Bytes encode() const { return ::lls::wire::encode(*this); } \
  [[nodiscard]] static Type decode(BytesView payload) {                     \
    return ::lls::wire::decode<Type>(payload);                              \
  }
