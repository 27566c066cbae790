#include "bench_util/policy_flag.h"

#include <cstdlib>
#include <cstring>
#include <string>

namespace eve {

Result<std::optional<FlagPolicy>> PolicyFromFlags(int argc, char** argv) {
  static constexpr char kPrefix[] = "--policy=";
  std::string name;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kPrefix, sizeof(kPrefix) - 1) == 0) {
      name = argv[i] + sizeof(kPrefix) - 1;
      break;
    }
  }
  if (name.empty()) {
    const char* env = std::getenv("EVE_POLICY");
    if (env != nullptr) name = env;
  }
  if (name.empty()) return std::optional<FlagPolicy>();
  FlagPolicy policy;
  EVE_ASSIGN_OR_RETURN(policy.name, CanonicalPresetName(name));
  EVE_ASSIGN_OR_RETURN(policy.options, PolicyPresetByName(policy.name));
  return std::optional<FlagPolicy>(std::move(policy));
}

}  // namespace eve
