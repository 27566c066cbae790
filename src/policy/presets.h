// Named starting points for EveOptions, the pipeline's one configuration
// struct (eve/eve_system.h).  A preset is a plain EveOptions value; tune it
// by assigning fields and check it with EveOptions::Validate().
//
//   EveOptions options = BalancedPreset();
//   options.synchronizer.max_rewritings = 64;
//   EveSystem system(options);

#ifndef EVE_POLICY_PRESETS_H_
#define EVE_POLICY_PRESETS_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "eve/eve_system.h"

namespace eve {

/// The seed behavior: decision layer bypassed, every pair enumerates with
/// the default options.  Equal to EveOptions{}.
EveOptions ExhaustivePreset();
/// Skip/cap pre-checks on, enumeration breadth unchanged, capped pairs
/// tightened to 32 rewritings.
EveOptions BalancedPreset();
/// Balanced plus aggressively tightened enumeration: 2 PC hops, a
/// 32-result cap, and an 8-result cap on capped pairs (which also drop
/// CVS pairs).
EveOptions LatencyBoundPreset();

/// The canonical name ("exhaustive", "balanced", "latency_bound") of a
/// preset spelled case-insensitively; "latency-bound" is accepted too.
Result<std::string> CanonicalPresetName(std::string_view name);

/// Looks up a preset by any spelling CanonicalPresetName accepts.  Used by
/// the --policy / EVE_POLICY driver flag.
Result<EveOptions> PolicyPresetByName(std::string_view name);

}  // namespace eve

#endif  // EVE_POLICY_PRESETS_H_
