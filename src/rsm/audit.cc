#include "rsm/audit.h"

#include <cstdint>
#include <map>
#include <sstream>

namespace lls {

std::vector<StoreFindings> audit_stores(
    const std::vector<ReplicaStores>& replicas,
    const std::vector<std::string>* acked_tokens, std::size_t session_bound) {
  std::vector<StoreFindings> out;
  std::vector<std::uint64_t> reference;  // the first replica's group digests
  for (const ReplicaStores& replica : replicas) {
    StoreFindings& found = out.emplace_back();
    found.process = replica.process;
    for (std::size_t g = 0; g < replica.groups.size(); ++g) {
      const std::uint64_t digest = replica.groups[g]->digest();
      if (out.size() == 1) {
        reference.push_back(digest);
      } else if (digest != reference[g]) {
        found.diverged.push_back(g);
      }
    }
    for (std::size_t g = 0; session_bound > 0 && g < replica.sessions.size();
         ++g) {
      for (const KvCore::SessionFootprint& s : replica.sessions[g]) {
        if (s.dedup + s.results > session_bound) {
          found.oversized.emplace_back(g, s);
        }
      }
    }
    if (acked_tokens == nullptr) continue;
    std::map<std::string, int> census;
    for (const KvStore* store : replica.groups) {
      for (const auto& [key, value] : store->data()) {
        // A tail after the last ';' is malformed and ends the value.
        for (std::size_t begin = 0; begin < value.size();) {
          const std::size_t end = value.find(';', begin);
          if (end == std::string::npos) {
            found.malformed_keys.push_back(key);
            break;
          }
          ++census[value.substr(begin, end - begin + 1)];
          begin = end + 1;
        }
      }
    }
    for (const auto& [token, count] : census) {
      if (count > 1) found.duplicates.emplace_back(token, count);
    }
    for (const std::string& token : *acked_tokens) {
      if (!census.contains(token)) found.lost.push_back(token);
    }
  }
  return out;
}

void judge_linearizability(const LinReport& report, const std::string& history,
                           std::optional<std::size_t> ops,
                           std::vector<std::string>& violations,
                           bool& budget_exceeded) {
  switch (report.verdict) {
    case LinVerdict::kLinearizable:
      return;
    case LinVerdict::kNotLinearizable: {
      std::ostringstream what;
      what << history << " is not linearizable: partition \""
           << report.failed_partition << "\", ";
      if (ops) {
        what << "minimal core of " << report.core.size() << " ops (of "
             << *ops << ")";
      } else {
        what << "core of " << report.core.size() << " ops";
      }
      violations.push_back(what.str());
      return;
    }
    case LinVerdict::kBudgetExceeded:
      budget_exceeded = true;
      return;
  }
}

}  // namespace lls
