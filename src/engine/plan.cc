#include "engine/plan.h"

#include <cmath>

namespace sharpcq {

const char* PlanStrategyName(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kSharpHypertree:
      return "sharp-hypertree";
    case PlanStrategy::kAcyclicPs13:
      return "acyclic-ps13";
    case PlanStrategy::kSharpB:
      return "sharp-b";
    case PlanStrategy::kBacktracking:
      return "backtracking";
  }
  return "unknown";
}

std::string PlannerOptions::CacheFingerprint() const {
  return "w" + std::to_string(max_width) + ";c" + std::to_string(max_cores) +
         ";a" + (enable_acyclic_ps13 ? "1" : "0") + ";h" +
         (enable_hybrid ? "1" : "0") + ";p" + (full_profile ? "1" : "0") +
         ";b" + std::to_string(hybrid_max_b) + ";s" +
         std::to_string(hybrid_max_subsets);
}

namespace {

std::string Short(double value) {
  std::string s = std::to_string(value);
  std::size_t dot = s.find('.');
  if (dot != std::string::npos) {
    std::size_t last = s.find_last_not_of('0');
    s.erase(last == dot ? dot : last + 1);
  }
  return s;
}

}  // namespace

std::string CountingPlan::DebugString() const {
  std::string out = "strategy: ";
  out += PlanStrategyName(strategy);
  if (strategy == PlanStrategy::kSharpHypertree) {
    out += " (k=" + std::to_string(width_budget) + ")";
  }
  if (cost.sharp_ms.has_value() || cost.ps13_ms.has_value()) {
    out += "\ncost:";
    if (cost.sharp_ms.has_value()) {
      out += " est_sharp=" + Short(*cost.sharp_ms) + "ms";
    }
    if (cost.ps13_ms.has_value()) {
      out += " est_ps13=" + Short(*cost.ps13_ms) + "ms";
    }
    if (cost_model_steered) out += " (steered)";
  } else {
    out += "\ncost: ~" + Short(cost.query_factor) + " * m^" +
           Short(cost.db_exponent);
    if (!cost.note.empty()) out += " " + cost.note;
  }
  if (sharp.has_value()) {
    // Each bag with its guard atoms (and, with a profile, the estimated
    // rows of the guard join): what the decomposition choice weighed.
    const BagTree& tree = sharp->tree;
    out += "\ndecomposition: " + std::to_string(tree.bags.size()) + " bag" +
           (tree.bags.size() == 1 ? "" : "s");
    for (std::size_t b = 0; b < tree.bags.size(); ++b) {
      out += "\n  bag " + std::to_string(b) + " {";
      bool first = true;
      for (VarId v : tree.bags[b]) {
        if (!first) out += ",";
        first = false;
        out += query.VarName(v);
      }
      out += "} guard";
      const std::vector<int>& guard =
          sharp->views.guards[static_cast<std::size_t>(tree.view_ids[b])];
      for (std::size_t g = 0; g < guard.size(); ++g) {
        out += (g > 0 ? ", " : " ") +
               query.AtomDebugString(
                   query.atoms()[static_cast<std::size_t>(guard[g])]);
      }
      if (b < cost.bag_rows.size()) {
        out += " est_rows=" + Short(std::round(cost.bag_rows[b]));
      }
    }
  }
  out += "\n" + analysis.ToString();
  return out;
}

}  // namespace sharpcq
