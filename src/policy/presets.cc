#include "policy/presets.h"

#include <algorithm>
#include <cctype>

#include "common/str_util.h"

namespace eve {

EveOptions ExhaustivePreset() { return EveOptions{}; }

EveOptions BalancedPreset() {
  EveOptions options;
  options.policy.mode = PolicyMode::kBalanced;
  options.policy.cap_max_rewritings = 32;
  return options;
}

EveOptions LatencyBoundPreset() {
  EveOptions options;
  options.policy.mode = PolicyMode::kLatencyBound;
  options.policy.cap_max_rewritings = 8;
  options.synchronizer.max_pc_hops = 2;
  options.synchronizer.max_rewritings = 32;
  return options;
}

Result<std::string> CanonicalPresetName(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  if (lower == "latency-bound") lower = "latency_bound";
  if (lower == "exhaustive" || lower == "balanced" ||
      lower == "latency_bound") {
    return lower;
  }
  return Status::InvalidArgument(
      StrFormat("unknown policy preset \"%.*s\" (expected exhaustive, "
                "balanced, or latency_bound)",
                static_cast<int>(name.size()), name.data()));
}

Result<EveOptions> PolicyPresetByName(std::string_view name) {
  EVE_ASSIGN_OR_RETURN(const std::string canonical, CanonicalPresetName(name));
  if (canonical == "exhaustive") return ExhaustivePreset();
  if (canonical == "balanced") return BalancedPreset();
  return LatencyBoundPreset();
}

}  // namespace eve
