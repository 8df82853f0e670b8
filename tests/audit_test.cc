// Unit tests for the shared end-of-run KV audit (rsm/audit.h): digest
// agreement per group, the ';'-token census, the per-session state bound,
// the linearizability verdict as a run outcome, and the recorded submit.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rsm/audit.h"

namespace lls {
namespace {

KvStore store_of(std::map<std::string, std::string> data) {
  KvStore store;
  store.restore(std::move(data), 0);
  return store;
}

ReplicaStores replica(ProcessId p, std::vector<const KvStore*> groups) {
  return ReplicaStores{p, std::move(groups)};
}

TEST(AuditStores, CleanReplicasHaveNoFindings) {
  const KvStore a = store_of({{"k", "5.1;6.1;"}});
  const KvStore b = store_of({{"k", "5.1;6.1;"}});
  const std::vector<std::string> acked{"5.1;", "6.1;"};
  const auto findings =
      audit_stores({replica(0, {&a}), replica(2, {&b})}, &acked);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[1].process, 2u);
  for (const StoreFindings& f : findings) {
    EXPECT_TRUE(f.diverged.empty());
    EXPECT_TRUE(f.malformed_keys.empty());
    EXPECT_TRUE(f.duplicates.empty());
    EXPECT_TRUE(f.lost.empty());
  }
}

TEST(AuditStores, WithoutAckedTokensTakesNoCensus) {
  // Non-token workloads (the kv scenario, the soak) store values such as
  // "v7"; only the digests are compared there.
  const KvStore a = store_of({{"k", "v7"}});
  const auto findings = audit_stores({replica(0, {&a})});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].malformed_keys.empty());
}

TEST(AuditStores, FlagsASessionOverItsBound) {
  // A session's dedup seqs plus cached results, per group, against the
  // bound; sessions within it, and every session when the bound is 0, pass.
  const KvStore a = store_of({});
  ReplicaStores r = replica(3, {&a, &a});
  r.sessions = {{{5, 2, 2}, {6, 3, 2}}, {{5, 0, 1}}};
  const auto findings = audit_stores({r}, nullptr, 4);
  ASSERT_EQ(findings.size(), 1u);
  ASSERT_EQ(findings[0].oversized.size(), 1u);
  EXPECT_EQ(findings[0].oversized[0].first, 0u);
  EXPECT_EQ(findings[0].oversized[0].second.origin, 6u);
  EXPECT_TRUE(audit_stores({r}, nullptr, 5)[0].oversized.empty());
  EXPECT_TRUE(audit_stores({r})[0].oversized.empty());
}

TEST(AuditStores, FlagsADuplicatedToken) {
  const KvStore a = store_of({{"k", "5.1;5.2;"}, {"j", "5.1;"}});
  const std::vector<std::string> acked{"5.1;", "5.2;"};
  const auto findings = audit_stores({replica(0, {&a})}, &acked);
  ASSERT_EQ(findings.size(), 1u);
  using Dup = std::pair<std::string, int>;
  EXPECT_EQ(findings[0].duplicates, (std::vector<Dup>{{"5.1;", 2}}));
  EXPECT_TRUE(findings[0].lost.empty());
}

TEST(AuditStores, FlagsALostAckedToken) {
  const KvStore a = store_of({{"k", "5.1;"}});
  const KvStore b = store_of({{"k", "5.1;5.2;"}});
  const std::vector<std::string> acked{"5.1;", "5.2;"};
  const auto findings =
      audit_stores({replica(0, {&a}), replica(1, {&b})}, &acked);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].lost, (std::vector<std::string>{"5.2;"}));
  EXPECT_TRUE(findings[1].lost.empty());
}

TEST(AuditStores, FlagsAMalformedTokenTail) {
  const KvStore a = store_of({{"k", "5.1;5.2"}, {"m", "5.3;"}});
  const std::vector<std::string> acked{"5.1;", "5.3;"};
  const auto findings = audit_stores({replica(0, {&a})}, &acked);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].malformed_keys, (std::vector<std::string>{"k"}));
  // The tokens before the tail still count.
  EXPECT_TRUE(findings[0].lost.empty());
}

TEST(AuditStores, FlagsOneDivergedGroupOfTwo) {
  // M = 2: each process holds two disjoint group stores. Group 1 of the
  // second replica differs; group 0 agrees.
  const KvStore a0 = store_of({{"a", "1"}});
  const KvStore a1 = store_of({{"b", "2"}});
  const KvStore b0 = store_of({{"a", "1"}});
  const KvStore b1 = store_of({{"b", "3"}});
  const auto findings =
      audit_stores({replica(0, {&a0, &a1}), replica(1, {&b0, &b1})});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(findings[0].diverged.empty());
  EXPECT_EQ(findings[1].diverged, (std::vector<std::size_t>{1}));
}

TEST(AuditStores, CensusMergesAReplicasGroups) {
  // A token in group 0 and again in group 1 of the same replica was
  // applied twice; acked tokens may live in any group.
  const KvStore g0 = store_of({{"a", "5.1;"}});
  const KvStore g1 = store_of({{"b", "5.1;5.2;"}});
  const std::vector<std::string> acked{"5.2;"};
  const auto findings = audit_stores({replica(0, {&g0, &g1})}, &acked);
  ASSERT_EQ(findings.size(), 1u);
  using Dup = std::pair<std::string, int>;
  EXPECT_EQ(findings[0].duplicates, (std::vector<Dup>{{"5.1;", 2}}));
  EXPECT_TRUE(findings[0].lost.empty());
}

LinReport report_with(LinVerdict verdict) {
  LinReport report;
  report.verdict = verdict;
  report.failed_partition = "k0";
  report.core = {3, 4};
  return report;
}

TEST(JudgeLinearizability, LinearizableIsNoViolationAndNoBudgetFlag) {
  std::vector<std::string> violations;
  bool budget = false;
  judge_linearizability(report_with(LinVerdict::kLinearizable), "client history",
                        7, violations, budget);
  EXPECT_TRUE(violations.empty());
  EXPECT_FALSE(budget);
}

TEST(JudgeLinearizability, NotLinearizableNamesPartitionAndCore) {
  std::vector<std::string> violations;
  bool budget = false;
  judge_linearizability(report_with(LinVerdict::kNotLinearizable),
                        "client history", 7, violations, budget);
  judge_linearizability(report_with(LinVerdict::kNotLinearizable),
                        "recorded server-side history", std::nullopt,
                        violations, budget);
  EXPECT_EQ(violations,
            (std::vector<std::string>{
                "client history is not linearizable: partition \"k0\", "
                "minimal core of 2 ops (of 7)",
                "recorded server-side history is not linearizable: "
                "partition \"k0\", core of 2 ops"}));
  EXPECT_FALSE(budget);
}

TEST(JudgeLinearizability, BudgetExceededSetsTheFlagOnly) {
  std::vector<std::string> violations;
  bool budget = false;
  judge_linearizability(report_with(LinVerdict::kBudgetExceeded),
                        "soak history", 7, violations, budget);
  EXPECT_TRUE(violations.empty());
  EXPECT_TRUE(budget);
}

struct FakeClock {
  TimePoint t = 0;
  [[nodiscard]] TimePoint now() const { return t; }
};

/// Answers synchronously when `sync` is set, else holds the callback.
struct FakeReplica {
  bool sync = false;
  Command seen;
  std::function<void(const KvResult&)> held;
  void submit(KvOp op, std::string key, std::string value,
              std::string expected, std::function<void(const KvResult&)> cb) {
    seen.op = op;
    seen.key = std::move(key);
    seen.value = std::move(value);
    seen.expected = std::move(expected);
    if (sync) {
      cb(KvResult{true, true, "now"});
    } else {
      held = std::move(cb);
    }
  }
};

TEST(RecordedHistory, RecordsInvocationThenResponse) {
  RecordedHistory history;
  FakeClock clock{10};
  FakeReplica replica;
  Command cmd;
  cmd.origin = 2;
  cmd.seq = 9;
  cmd.op = KvOp::kCas;
  cmd.key = "k";
  cmd.value = "new";
  cmd.expected = "old";
  history.submit(replica, cmd, clock);
  EXPECT_EQ(replica.seen.op, KvOp::kCas);
  EXPECT_EQ(replica.seen.key, "k");
  EXPECT_EQ(replica.seen.value, "new");
  EXPECT_EQ(replica.seen.expected, "old");
  ASSERT_EQ(history.ops().size(), 1u);
  EXPECT_EQ(history.ops()[0].cmd.origin, 2u);
  EXPECT_EQ(history.ops()[0].cmd.seq, 9u);
  EXPECT_EQ(history.ops()[0].invoked, 10);
  EXPECT_EQ(history.ops()[0].responded, kTimeNever);  // still pending

  clock.t = 25;
  replica.held(KvResult{true, true, "new"});
  EXPECT_EQ(history.ops()[0].responded, 25);
  EXPECT_EQ(history.ops()[0].result.value, "new");
}

TEST(RecordedHistory, SynchronousAnswerCompletesInsideSubmit) {
  RecordedHistory history;
  FakeClock clock{40};
  FakeReplica replica;
  replica.sync = true;  // e.g. a local read under a valid lease
  Command cmd;
  cmd.origin = 0;
  cmd.seq = 1;
  cmd.key = "k";
  history.submit(replica, cmd, clock);
  ASSERT_EQ(history.ops().size(), 1u);
  EXPECT_EQ(history.ops()[0].invoked, 40);
  EXPECT_EQ(history.ops()[0].responded, 40);
  EXPECT_EQ(history.ops()[0].result.value, "now");
}

}  // namespace
}  // namespace lls
