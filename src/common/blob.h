// WireBlob: an owns-or-borrows byte blob for message payload fields.
//
// The zero-copy decode path hands messages *views* into the receive buffer
// for their blob fields (consensus values, client commands, envelope
// payloads) instead of copying each one into a fresh vector. A borrow is
// only valid for the duration of the delivery callback that produced it —
// the runtime recycles the receive buffer as soon as on_message returns.
//
// Ownership rules (see DESIGN.md §16):
//   * A decoded WireBlob borrows. Reading it inside the delivery callback
//     is free; storing it beyond the callback requires .to_owned().
//   * A locally constructed WireBlob{Bytes} owns; it is safe anywhere.
//   * WireBlob::ref(view) borrows explicitly from a caller-managed buffer
//     (e.g. referencing an already-encoded command when building a request
//     batch); the caller guarantees the buffer outlives every access.
//
// Debug builds enforce the first rule mechanically: runtimes open a
// BorrowScope around each delivery, Decoder stamps borrows with the
// innermost live scope id, and view() asserts the stamped scope is still
// on the stack. Borrows created outside any scope (tests decoding from a
// local buffer, explicit ::ref) are stamped 0 = unchecked.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/bytes.h"

#if !defined(NDEBUG) || defined(LLS_ENABLE_BORROW_CHECK)
#define LLS_BORROW_CHECK 1
#endif

namespace lls {

namespace borrowcheck {

#ifdef LLS_BORROW_CHECK
// Delivery scopes nest (a multi-group replica synchronously re-dispatches
// enveloped frames inside its own delivery), so live scopes form a small
// per-thread stack. Ids are never reused: a stale id is detectably dead.
inline constexpr int kMaxDepth = 16;
inline thread_local std::uint64_t tl_scopes[kMaxDepth];
inline thread_local int tl_depth = 0;
inline thread_local std::uint64_t tl_next_id = 1;

inline std::uint64_t current_scope() {
  return tl_depth == 0 ? 0 : tl_scopes[tl_depth - 1];
}

inline bool scope_alive(std::uint64_t id) {
  if (id == 0) return true;  // unchecked borrow
  for (int i = 0; i < tl_depth; ++i) {
    if (tl_scopes[i] == id) return true;
  }
  return false;
}

/// RAII delivery scope: borrows decoded inside it die when it closes.
class Scope {
 public:
  Scope() {
    assert(tl_depth < kMaxDepth);
    tl_scopes[tl_depth++] = tl_next_id++;
  }
  ~Scope() { --tl_depth; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};
#else
inline constexpr std::uint64_t current_scope() { return 0; }
inline constexpr bool scope_alive(std::uint64_t) { return true; }
class Scope {};
#endif

}  // namespace borrowcheck

/// True when the two views hold the same byte sequence.
[[nodiscard]] inline bool bytes_equal(BytesView a, BytesView b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

class WireBlob {
 public:
  WireBlob() = default;

  /// Owning: adopts the buffer. Implicit so call sites that built a Bytes
  /// value locally keep working unchanged (they pay the move, not a copy).
  WireBlob(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : owned_(std::move(bytes)) {}

  /// Borrowing: aliases `view` without copying. The backing bytes must
  /// outlive every access; decode-produced borrows are additionally
  /// scope-checked in debug builds.
  [[nodiscard]] static WireBlob ref(BytesView view) {
    WireBlob b;
    b.is_borrow_ = true;
    b.view_ = view;
#ifdef LLS_BORROW_CHECK
    b.scope_ = borrowcheck::current_scope();
#endif
    return b;
  }

  [[nodiscard]] BytesView view() const {
#ifdef LLS_BORROW_CHECK
    if (is_borrow_ && !borrowcheck::scope_alive(scope_)) {
      // Not assert(): sanitizer configs enable the check on top of NDEBUG
      // (LLS_ENABLE_BORROW_CHECK), where assert() compiles away.
      std::fprintf(
          stderr,
          "WireBlob borrow outlived its delivery scope; use to_owned()\n");
      std::abort();
    }
#endif
    return is_borrow_ ? view_ : BytesView(owned_);
  }

  [[nodiscard]] std::size_t size() const {
    return is_borrow_ ? view_.size() : owned_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] bool is_borrow() const { return is_borrow_; }

  /// An owned copy — required before storing a decoded borrow past the
  /// delivery callback that produced it.
  [[nodiscard]] Bytes to_owned() const {
    BytesView v = view();
    return Bytes(v.begin(), v.end());
  }

  /// Steals the owned buffer (copies when borrowing).
  [[nodiscard]] Bytes take() && {
    if (is_borrow_) return to_owned();
    return std::move(owned_);
  }

  friend bool operator==(const WireBlob& a, const WireBlob& b) {
    return bytes_equal(a.view(), b.view());
  }
  friend bool operator==(const WireBlob& a, BytesView b) {
    return bytes_equal(a.view(), b);
  }
  friend bool operator==(const WireBlob& a, const Bytes& b) {
    return bytes_equal(a.view(), BytesView(b));
  }

 private:
  Bytes owned_;
  BytesView view_{};
  bool is_borrow_ = false;
#ifdef LLS_BORROW_CHECK
  std::uint64_t scope_ = 0;
#endif
};

}  // namespace lls
