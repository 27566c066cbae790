// The --policy / EVE_POLICY driver convention (the policy analogue of
// experiment_common.h's --deadline_ms / EVE_DEADLINE_MS): experiment and
// replay drivers accept a policy preset (policy/presets.h) by name, and
// behave EXACTLY as before -- stdout byte-identical -- when neither the
// flag nor the environment variable is set.

#ifndef EVE_BENCH_UTIL_POLICY_FLAG_H_
#define EVE_BENCH_UTIL_POLICY_FLAG_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "policy/presets.h"

namespace eve {

/// A preset the driver flags selected.
struct FlagPolicy {
  std::string name;  ///< Canonical preset name, for summary lines.
  EveOptions options;
};

/// Resolves the driver's policy preset: the first `--policy=NAME` argument
/// wins, else the EVE_POLICY environment variable; with neither set the
/// result is an empty optional and the caller must not change behavior.
/// An unknown preset name is an InvalidArgument error (drivers should exit
/// 2 with the message on stderr).
Result<std::optional<FlagPolicy>> PolicyFromFlags(int argc, char** argv);

}  // namespace eve

#endif  // EVE_BENCH_UTIL_POLICY_FLAG_H_
