// T1 — Omega stabilization on system S.
//
// Paper claim (PODC 2004, Theorem: Omega in system S): with one ♦-source
// and all other links fair lossy, CE-Omega eventually makes every correct
// process trust the same correct process, for any n and any crash pattern
// of non-source processes. We measure time-to-stabilization and verify the
// final regime across n and crash counts, over several seeds.
#include <cstdio>

#include "bench_util.h"
#include "obs/histogram.h"
#include "omega/experiment.h"

using namespace lls;
using namespace lls::bench;

int main() {
  banner("T1 — Omega stabilization on system S (1 source, fair-lossy rest)",
         "eventual agreement on one correct leader, for every n / crash mix");

  Table table({"n", "crashes", "runs", "stabilized", "stab_ms(mean)",
               "stab_ms(max)", "final=correct", "efficient"});

  const std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};
  struct Row {
    int n;
    int crashes;
  };
  for (Row row : {Row{3, 0}, Row{3, 1}, Row{5, 0}, Row{5, 2}, Row{10, 0},
                  Row{10, 4}, Row{20, 0}, Row{20, 6}, Row{50, 0}}) {
    int stabilized = 0;
    int correct_leader = 0;
    int efficient = 0;
    obs::Histogram stab_ms;
    for (std::uint64_t seed : kSeeds) {
      auto source = static_cast<ProcessId>(row.n - 1);
      auto exp = default_system_s_experiment(row.n, seed, source);
      exp.horizon = 60 * kSecond;
      exp.trailing_window = 5 * kSecond;
      int crashed = 0;
      for (ProcessId p = 0; crashed < row.crashes; ++p) {
        if (p == source) continue;
        exp.crashes.emplace_back(p, (2 + crashed) * kSecond);
        ++crashed;
      }
      auto r = run_omega_experiment(exp);
      if (r.stabilized) {
        ++stabilized;
        stab_ms.record(static_cast<double>(r.stabilization_time) /
                       kMillisecond);
        if (r.correct.contains(r.final_leader)) ++correct_leader;
        if (r.communication_efficient()) ++efficient;
      }
    }
    int runs = static_cast<int>(std::size(kSeeds));
    table.add_row({format("%d", row.n), format("%d", row.crashes),
                   format("%d", runs), format("%d/%d", stabilized, runs),
                   format("%.0f", stab_ms.mean()), format("%.0f", stab_ms.max()),
                   format("%d/%d", correct_leader, runs),
                   format("%d/%d", efficient, runs)});
  }
  table.print();
  std::printf(
      "\nExpectation: stabilized = runs everywhere; leader always correct;\n"
      "every run communication-efficient in the trailing window.\n");
  return 0;
}
