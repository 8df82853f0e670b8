// Unit tests for NetStats — the accounting the efficiency theorems are
// checked against, so it deserves direct coverage.
#include <gtest/gtest.h>

#include "net/net_stats.h"

namespace lls {
namespace {

TEST(NetStats, TypeClassExtractsHighByte) {
  EXPECT_EQ(NetStats::type_class(0x0101), 1u);
  EXPECT_EQ(NetStats::type_class(0x02ff), 2u);
  EXPECT_EQ(NetStats::type_class(0x0042), 0u);
  // Classes beyond the table clamp to the last slot.
  EXPECT_EQ(NetStats::type_class(0x7f00), NetStats::kClasses - 1);
}

TEST(NetStats, CountsTotalsAndPerProcess) {
  NetStats s(3, /*bucket=*/100);
  s.on_send(10, 0, 1, 0x0101, true);
  s.on_send(20, 0, 2, 0x0101, false);  // dropped still counts as sent
  s.on_send(30, 1, 0, 0x0202, true);
  EXPECT_EQ(s.sent_total(), 3u);
  EXPECT_EQ(s.dropped_total(), 1u);
  EXPECT_EQ(s.sent_by(0), 2u);
  EXPECT_EQ(s.sent_by(1), 1u);
  EXPECT_EQ(s.sent_by(2), 0u);
  EXPECT_EQ(s.sent_on_link(0, 1), 1u);
  EXPECT_EQ(s.sent_on_link(0, 2), 1u);
  EXPECT_EQ(s.sent_on_link(2, 0), 0u);
}

TEST(NetStats, ClassAccounting) {
  NetStats s(2, 100);
  s.on_send(0, 0, 1, 0x0101, true);   // omega class
  s.on_send(0, 0, 1, 0x0102, true);   // omega class
  s.on_send(0, 0, 1, 0x0203, true);   // consensus class
  EXPECT_EQ(s.sent_by_class(1), 2u);
  EXPECT_EQ(s.sent_by_class(2), 1u);
  EXPECT_EQ(s.class_msgs_between(0, 100, 1), 2u);
  EXPECT_EQ(s.class_msgs_between(0, 100, 2), 1u);
}

TEST(NetStats, BucketedSendersAndLinks) {
  NetStats s(4, 100);
  // Bucket 0: p0 and p1 send; bucket 1: only p0.
  s.on_send(10, 0, 1, 1, true);
  s.on_send(20, 1, 2, 1, true);
  s.on_send(150, 0, 2, 1, true);
  EXPECT_EQ(s.senders_in_bucket(0), 2u);
  EXPECT_EQ(s.senders_in_bucket(1), 1u);
  EXPECT_EQ(s.senders_in_bucket(7), 0u);  // untouched bucket
  EXPECT_EQ(s.links_in_bucket(0), 2u);
  EXPECT_EQ(s.msgs_in_bucket(0), 2u);
  EXPECT_EQ(s.msgs_in_bucket(1), 1u);
}

TEST(NetStats, WindowQueries) {
  NetStats s(3, 100);
  s.on_send(50, 0, 1, 1, true);
  s.on_send(150, 1, 2, 1, true);
  s.on_send(250, 2, 0, 1, true);

  auto senders = s.senders_between(0, 200);
  EXPECT_EQ(senders, (std::set<ProcessId>{0, 1}));
  auto links = s.links_between(100, 300);
  EXPECT_EQ(links.size(), 2u);
  EXPECT_TRUE(links.contains({1, 2}));
  EXPECT_TRUE(links.contains({2, 0}));
  EXPECT_EQ(s.msgs_between(0, 300), 3u);
  EXPECT_EQ(s.msgs_between(100, 200), 1u);
  // Window past the recorded range is safe.
  EXPECT_EQ(s.msgs_between(1000, 2000), 0u);
  // Negative from-clamp is safe.
  EXPECT_EQ(s.msgs_between(-500, 100), 1u);
}

TEST(NetStats, WindowBoundariesIncludePartialBuckets) {
  NetStats s(2, 100);
  s.on_send(199, 0, 1, 1, true);
  // A window ending mid-bucket still counts the containing bucket.
  EXPECT_EQ(s.msgs_between(100, 150), 1u);
}

TEST(NetStats, LinksAndSendersSpanSeveralMaskWords) {
  // n = 9: 81 links, so link bits 64 and up live in a bucket's second word.
  NetStats s(9, 100);
  s.on_send(10, 0, 1, 1, true);   // link 1, word 0
  s.on_send(20, 7, 1, 1, true);   // link 64, word 1
  s.on_send(30, 8, 0, 1, true);   // link 72, word 1
  s.on_send(40, 8, 0, 1, true);   // repeated link, counted once
  s.on_send(150, 8, 8, 1, true);  // link 80, word 1, next bucket
  EXPECT_EQ(s.links_in_bucket(0), 3u);
  EXPECT_EQ(s.senders_in_bucket(0), 3u);
  EXPECT_EQ(s.links_in_bucket(1), 1u);
  EXPECT_EQ(s.msgs_in_bucket(0), 4u);
  EXPECT_EQ(s.links_between(0, 200),
            (std::set<std::pair<ProcessId, ProcessId>>{
                {0, 1}, {7, 1}, {8, 0}, {8, 8}}));
  EXPECT_EQ(s.links_between(100, 200),
            (std::set<std::pair<ProcessId, ProcessId>>{{8, 8}}));
  EXPECT_EQ(s.senders_between(0, 200), (std::set<ProcessId>{0, 7, 8}));

  // n = 70: senders span two words as well.
  NetStats wide(70, 100);
  wide.on_send(10, 0, 69, 1, true);
  wide.on_send(20, 64, 0, 1, true);
  wide.on_send(30, 69, 68, 1, true);
  EXPECT_EQ(wide.senders_in_bucket(0), 3u);
  EXPECT_EQ(wide.senders_between(0, 100), (std::set<ProcessId>{0, 64, 69}));
  EXPECT_EQ(wide.links_between(0, 100),
            (std::set<std::pair<ProcessId, ProcessId>>{
                {0, 69}, {64, 0}, {69, 68}}));
}

}  // namespace
}  // namespace lls
