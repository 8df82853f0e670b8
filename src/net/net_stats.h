// Network accounting used to *measure* communication efficiency.
//
// The paper's efficiency theorems quantify over "who sends messages forever"
// and "how many links carry messages forever"; NetStats records exactly the
// observables those theorems talk about: per-process send counts, per-link
// counts, and time-bucketed activity so a trailing window can be inspected.
//
// NetStats is a component of the unified observability plane: its scalar
// totals ARE obs::Registry counters (handles resolved once at construction
// — the hot on_send path performs no string-keyed lookup of any kind), and
// the instance registers itself as the registry's "net_stats" attachment so
// windowed queries (senders_between etc.) are reachable from the one
// Registry every experiment reads.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/registry.h"

namespace lls {

class NetStats {
 public:
  /// Protocol class of a message type: the high byte of the type tag
  /// (0x01 = Omega, 0x02 = consensus, 0x03 = RSM). Lets experiments report
  /// per-protocol message costs separately.
  static constexpr std::size_t kClasses = 8;
  static constexpr std::size_t type_class(MessageType type) {
    return std::min<std::size_t>(type >> 8, kClasses - 1);
  }

  /// When `registry` is given the totals are published through it (metric
  /// names "net.*") and this NetStats becomes its "net_stats" attachment;
  /// otherwise a private registry backs the counters (standalone tests).
  explicit NetStats(int n, Duration bucket_width,
                    obs::Registry* registry = nullptr)
      : n_(n),
        bucket_width_(bucket_width),
        sent_by_process_(static_cast<std::size_t>(n), 0),
        delivered_by_process_(static_cast<std::size_t>(n), 0),
        sent_by_link_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                      0),
        sender_words_(words_for(static_cast<std::size_t>(n))),
        link_words_(words_for(static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(n))) {
    obs::Registry& reg = registry != nullptr ? *registry : own_registry_;
    sent_total_ = &reg.counter("net.sent_total");
    bytes_total_ = &reg.counter("net.bytes_total");
    delivered_total_ = &reg.counter("net.delivered_total");
    dropped_total_ = &reg.counter("net.dropped_total");
    duplicated_total_ = &reg.counter("net.duplicated_total");
    corrupted_total_ = &reg.counter("net.corrupted_total");
    reg.attach("net_stats", this);
  }

  NetStats(const NetStats&) = delete;
  NetStats& operator=(const NetStats&) = delete;

  /// The NetStats registered on `registry` (nullptr when none is).
  [[nodiscard]] static const NetStats* from(const obs::Registry& registry) {
    return static_cast<const NetStats*>(registry.attachment("net_stats"));
  }

  void on_send(TimePoint t, ProcessId src, ProcessId dst, MessageType type,
               bool delivered, std::size_t payload_bytes = 0) {
    sent_total_->inc();
    bytes_total_->inc(payload_bytes);
    ++sent_by_process_[src];
    ++sent_by_link_[link_index(src, dst)];
    ++sent_by_class_[type_class(type)];
    if (!delivered) dropped_total_->inc();
    auto bucket = static_cast<std::size_t>(t / bucket_width_);
    if (bucket >= bucket_msgs_.size()) {
      bucket_senders_.resize((bucket + 1) * sender_words_, 0);
      bucket_links_.resize((bucket + 1) * link_words_, 0);
      bucket_msgs_.resize(bucket + 1, 0);
      bucket_class_msgs_.resize(bucket + 1);
    }
    set_bit(&bucket_senders_[bucket * sender_words_],
            static_cast<std::size_t>(src));
    set_bit(&bucket_links_[bucket * link_words_], link_index(src, dst));
    ++bucket_msgs_[bucket];
    ++bucket_class_msgs_[bucket][type_class(type)];
  }

  void on_deliver(ProcessId dst) {
    delivered_total_->inc();
    ++delivered_by_process_[dst];
  }

  /// A link duplicated a message (one call per extra copy).
  void on_duplicate() { duplicated_total_->inc(); }

  /// The checksum guard discarded a corrupted copy at delivery.
  void on_corrupt_drop() { corrupted_total_->inc(); }

  [[nodiscard]] std::uint64_t sent_total() const {
    return sent_total_->value();
  }
  [[nodiscard]] std::uint64_t bytes_total() const {
    return bytes_total_->value();
  }
  [[nodiscard]] std::uint64_t dropped_total() const {
    return dropped_total_->value();
  }
  [[nodiscard]] std::uint64_t duplicated_total() const {
    return duplicated_total_->value();
  }
  [[nodiscard]] std::uint64_t corrupted_total() const {
    return corrupted_total_->value();
  }

  [[nodiscard]] std::uint64_t sent_by(ProcessId p) const {
    return sent_by_process_[p];
  }

  [[nodiscard]] std::uint64_t sent_on_link(ProcessId src, ProcessId dst) const {
    return sent_by_link_[link_index(src, dst)];
  }

  [[nodiscard]] Duration bucket_width() const { return bucket_width_; }
  [[nodiscard]] std::size_t bucket_count() const { return bucket_msgs_.size(); }

  /// Number of distinct processes that sent at least one message in the
  /// bucket containing time t (0 if the bucket saw no traffic).
  [[nodiscard]] std::size_t senders_in_bucket(std::size_t bucket) const {
    return bucket < bucket_msgs_.size()
               ? count_bits(&bucket_senders_[bucket * sender_words_],
                            sender_words_)
               : 0;
  }

  [[nodiscard]] std::size_t links_in_bucket(std::size_t bucket) const {
    return bucket < bucket_msgs_.size()
               ? count_bits(&bucket_links_[bucket * link_words_], link_words_)
               : 0;
  }

  [[nodiscard]] std::uint64_t msgs_in_bucket(std::size_t bucket) const {
    return bucket < bucket_msgs_.size() ? bucket_msgs_[bucket] : 0;
  }

  /// Distinct senders over the trailing window [from, to) (microseconds).
  [[nodiscard]] std::set<ProcessId> senders_between(TimePoint from,
                                                    TimePoint to) const {
    std::set<ProcessId> out;
    for (std::size_t p : bits_between(bucket_senders_, sender_words_, from, to)) {
      out.insert(static_cast<ProcessId>(p));
    }
    return out;
  }

  /// Distinct directed links used over [from, to), as (src, dst) pairs.
  [[nodiscard]] std::set<std::pair<ProcessId, ProcessId>> links_between(
      TimePoint from, TimePoint to) const {
    std::set<std::pair<ProcessId, ProcessId>> out;
    for (std::size_t link : bits_between(bucket_links_, link_words_, from, to)) {
      out.emplace(static_cast<ProcessId>(link / static_cast<std::size_t>(n_)),
                  static_cast<ProcessId>(link % static_cast<std::size_t>(n_)));
    }
    return out;
  }

  [[nodiscard]] std::uint64_t msgs_between(TimePoint from, TimePoint to) const {
    std::uint64_t total = 0;
    for_buckets(from, to, [&](std::size_t b) { total += bucket_msgs_[b]; });
    return total;
  }

  /// Messages of one protocol class over [from, to).
  [[nodiscard]] std::uint64_t class_msgs_between(TimePoint from, TimePoint to,
                                                 std::size_t cls) const {
    std::uint64_t total = 0;
    for_buckets(from, to,
                [&](std::size_t b) { total += bucket_class_msgs_[b][cls]; });
    return total;
  }

  [[nodiscard]] std::uint64_t sent_by_class(std::size_t cls) const {
    return sent_by_class_[cls];
  }

 private:
  [[nodiscard]] std::size_t link_index(ProcessId src, ProcessId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }

  static constexpr std::size_t words_for(std::size_t bits) {
    return (bits + 63) / 64;
  }
  static void set_bit(std::uint64_t* words, std::size_t bit) {
    words[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  static std::size_t count_bits(const std::uint64_t* words, std::size_t n) {
    std::size_t total = 0;
    for (std::size_t w = 0; w < n; ++w) total += std::popcount(words[w]);
    return total;
  }

  /// The bits set in any bucket of [from, to), in increasing order, from
  /// per-bucket bitmasks of `words` words each.
  [[nodiscard]] std::vector<std::size_t> bits_between(
      const std::vector<std::uint64_t>& masks, std::size_t words,
      TimePoint from, TimePoint to) const {
    std::vector<std::uint64_t> any(words, 0);
    for_buckets(from, to, [&](std::size_t b) {
      for (std::size_t w = 0; w < words; ++w) any[w] |= masks[b * words + w];
    });
    std::vector<std::size_t> out;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t m = any[w]; m != 0; m &= m - 1) {
        out.push_back(w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
    return out;
  }

  template <typename Fn>
  void for_buckets(TimePoint from, TimePoint to, Fn&& fn) const {
    auto lo = static_cast<std::size_t>(std::max<TimePoint>(from, 0) /
                                       bucket_width_);
    auto hi = static_cast<std::size_t>(
        (std::max<TimePoint>(to, 0) + bucket_width_ - 1) / bucket_width_);
    for (std::size_t b = lo; b < hi && b < bucket_msgs_.size(); ++b) fn(b);
  }

  int n_;
  Duration bucket_width_;
  /// Backs the handles when no shared registry is supplied.
  obs::Registry own_registry_;
  /// Pre-registered handles: resolved once here, plain increments on the
  /// hot path (std::map mapped references are stable).
  obs::Counter* sent_total_ = nullptr;
  obs::Counter* bytes_total_ = nullptr;
  obs::Counter* delivered_total_ = nullptr;
  obs::Counter* dropped_total_ = nullptr;
  obs::Counter* duplicated_total_ = nullptr;
  obs::Counter* corrupted_total_ = nullptr;
  std::vector<std::uint64_t> sent_by_process_;
  std::vector<std::uint64_t> delivered_by_process_;
  std::vector<std::uint64_t> sent_by_link_;
  std::array<std::uint64_t, kClasses> sent_by_class_{};
  /// Per bucket, bitmasks of the processes that sent (sender_words_ words,
  /// bit p) and of the links used (link_words_ words, bit src * n + dst).
  std::size_t sender_words_;
  std::size_t link_words_;
  std::vector<std::uint64_t> bucket_senders_;
  std::vector<std::uint64_t> bucket_links_;
  std::vector<std::uint64_t> bucket_msgs_;
  std::vector<std::array<std::uint64_t, kClasses>> bucket_class_msgs_;
};

}  // namespace lls
