// Campaign runner tests: a small clean sweep passes, the sabotage build is
// caught with a replayable seed, and results are deterministic.
#include <gtest/gtest.h>

#include "sim/campaign.h"

namespace lls {
namespace {

CampaignConfig small(Scenario scenario) {
  CampaignConfig config;
  config.scenario = scenario;
  config.n = 5;
  config.first_seed = 1;
  config.seeds = 3;
  config.horizon = 40 * kSecond;
  config.quiesce = 12 * kSecond;
  config.check_window = 5 * kSecond;
  config.crash_stop_budget = 1;
  config.kv_ops = 120;  // keep the randomized kv workload test-sized
  config.kv_keys = 4;
  return config;
}

TEST(Campaign, CleanSweepHasNoViolations) {
  for (Scenario scenario : kAllScenarios) {
    CampaignResult result = run_campaign(small(scenario));
    EXPECT_EQ(result.runs, 3) << scenario_name(scenario);
    EXPECT_TRUE(result.ok()) << scenario_name(scenario) << ": "
        << (result.violations.empty() ? "" : result.violations[0].what);
  }
}

TEST(Campaign, SabotageIsCaughtWithReplayableSeed) {
  // The sabotage knob deliberately mis-tunes the protocol (timeout below the
  // heartbeat period, adaptation off) so the campaign MUST find violations;
  // this guards the checkers themselves against going silently vacuous.
  CampaignConfig config = small(Scenario::kCeOmega);
  config.seeds = 2;
  config.sabotage = true;
  CampaignResult result = run_campaign(config);
  ASSERT_FALSE(result.ok());
  const Violation& v = result.violations.front();
  EXPECT_GE(v.seed, config.first_seed);
  EXPECT_NE(v.replay.find("--sabotage"), std::string::npos);
  EXPECT_NE(v.replay.find("--scenario=ce"), std::string::npos);
  EXPECT_NE(v.replay.find("--first-seed=" + std::to_string(v.seed)),
            std::string::npos);
  EXPECT_NE(v.replay.find("--seeds=1"), std::string::npos);
}

TEST(Campaign, SabotageOfEveryOmegaIsCaught) {
  // Each Omega scenario's sabotage must trip its checks: a sabotage run
  // that passes would hide a check that can no longer fire.
  for (Scenario scenario :
       {Scenario::kCeOmega, Scenario::kAll2AllOmega, Scenario::kCrOmegaStable}) {
    CampaignConfig config = small(scenario);
    config.seeds = 2;
    config.sabotage = true;
    EXPECT_GE(run_campaign(config).violations.size(), 1u)
        << scenario_name(scenario);
  }
}

TEST(Campaign, RunsAreDeterministic) {
  CampaignConfig config = small(Scenario::kConsensus);
  config.crash_stop_budget = 0;  // exercise the restart-free path too
  auto a = run_campaign_case(config, 2);
  auto b = run_campaign_case(config, 2);
  EXPECT_EQ(a, b);
  config.sabotage = true;
  config.scenario = Scenario::kCrOmegaStable;
  auto c = run_campaign_case(config, 1);
  auto d = run_campaign_case(config, 1);
  EXPECT_EQ(c, d);
}

TEST(Campaign, LinBudgetExceededIsItsOwnVerdict) {
  // Starving the checker must surface as "budget exceeded" — a distinct
  // field, not a fake violation — and still fail the campaign, because an
  // unchecked history proves nothing.
  CampaignConfig config = small(Scenario::kKvLinearizable);
  config.seeds = 1;
  config.crash_stop_budget = 0;
  config.lin_max_nodes = 1;
  CaseResult case_result = run_campaign_case(config, 1);
  EXPECT_TRUE(case_result.lin_budget_exceeded);
  EXPECT_TRUE(case_result.violations.empty());

  CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.budget_exceeded_runs, 1);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_FALSE(result.ok());

  // The default budget checks the same run fine.
  config.lin_max_nodes = CampaignConfig{}.lin_max_nodes;
  CaseResult healthy = run_campaign_case(config, 1);
  EXPECT_FALSE(healthy.lin_budget_exceeded);
  EXPECT_TRUE(healthy.violations.empty());
}

TEST(Campaign, KvWorkloadScalesWithConfig) {
  // The randomized workload is seed-deterministic and its size follows
  // kv_ops: the same (config, seed) twice gives identical results, and a
  // larger op count still checks out linearizable.
  CampaignConfig config = small(Scenario::kKvLinearizable);
  config.seeds = 1;
  config.kv_ops = 300;
  config.kv_keys = 6;
  CaseResult a = run_campaign_case(config, 5);
  CaseResult b = run_campaign_case(config, 5);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.violations.empty());
  EXPECT_FALSE(a.lin_budget_exceeded);
}

TEST(Campaign, ScenarioNamesRoundTrip) {
  for (Scenario scenario : kAllScenarios) {
    Scenario parsed;
    ASSERT_TRUE(parse_scenario(scenario_name(scenario), &parsed));
    EXPECT_EQ(parsed, scenario);
  }
  Scenario parsed;
  EXPECT_FALSE(parse_scenario("nonsense", &parsed));
}

TEST(Campaign, ReplayCommandPinsTheSeed) {
  CampaignConfig config = small(Scenario::kKvLinearizable);
  std::string cmd = replay_command(config, 17);
  EXPECT_NE(cmd.find("--scenario=kv"), std::string::npos);
  EXPECT_NE(cmd.find("--first-seed=17"), std::string::npos);
  EXPECT_NE(cmd.find("--seeds=1"), std::string::npos);
  EXPECT_EQ(cmd.find("--sabotage"), std::string::npos);
}

}  // namespace
}  // namespace lls
