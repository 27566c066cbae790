// Evolution-stream replay driver (bench_util/scenario.h): builds a seeded
// star/snowflake space, streams thousands of interleaved capability changes
// and data updates through the system, and emits the survival / quality /
// cost / memo curves as CSV (stdout) plus a summary (stderr-free, after the
// CSV, prefixed with '#' so the CSV stays machine-readable).
//
// Flags (all optional):
//   --events=N         stream length            (default 2000)
//   --views=N          view count               (default 32)
//   --families=N       dimension families       (default 6)
//   --replicas=N       replicas per family      (default 6)
//   --mirrors=N        partial-coverage subset mirrors per family
//                      (default 0; the CVS pair fan-out material)
//   --rows=N           rows per dimension/fact  (default 10000)
//   --seed=N           scenario + stream seed   (default 42)
//   --stride=N         sample every N events    (default 10)
//   --snowflake        add second-level chains
//   --full-flush       disable delta-aware invalidation (the oracle mode)
//   --threads=N        synchronization workers  (default 0 = auto)
//   --policy=NAME      policy preset (exhaustive / balanced /
//                      latency_bound); also via EVE_POLICY.  Unset runs
//                      exactly as before (stdout byte-identical).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util/policy_flag.h"
#include "bench_util/scenario.h"

using namespace eve;

namespace {

int64_t FlagValue(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool FlagSet(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioOptions scenario;
  scenario.seed = static_cast<uint64_t>(FlagValue(argc, argv, "seed", 42));
  scenario.families = static_cast<int>(FlagValue(argc, argv, "families", 6));
  scenario.replicas_per_family =
      static_cast<int>(FlagValue(argc, argv, "replicas", 6));
  scenario.partial_mirrors =
      static_cast<int>(FlagValue(argc, argv, "mirrors", 0));
  scenario.views = static_cast<int>(FlagValue(argc, argv, "views", 32));
  scenario.dimension_rows = FlagValue(argc, argv, "rows", 10000);
  scenario.fact_rows = scenario.dimension_rows;
  scenario.snowflake = FlagSet(argc, argv, "snowflake");
  const int events = static_cast<int>(FlagValue(argc, argv, "events", 2000));

  const auto preset = PolicyFromFlags(argc, argv);
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 2;
  }
  EveOptions eve_options =
      preset->has_value() ? (*preset)->options : EveOptions{};
  eve_options.materialize = false;
  eve_options.synchronize_threads =
      static_cast<int>(FlagValue(argc, argv, "threads", 0));

  auto system = BuildScenarioSystem(scenario, eve_options);
  if (!system.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }
  (*system)->mkb().set_selective_invalidation(
      !FlagSet(argc, argv, "full-flush"));

  const std::vector<ScenarioEvent> stream =
      GenerateEventStream(scenario, events, scenario.seed + 1);
  if (FlagSet(argc, argv, "dump-stream")) {
    for (size_t i = 0; i < stream.size(); ++i) {
      std::printf("%zu %s\n", i, stream[i].ToString().c_str());
    }
    return 0;
  }

  ReplayOptions replay;
  replay.sample_stride = static_cast<int>(FlagValue(argc, argv, "stride", 10));
  const auto result = ReplayScenario(**system, stream, replay);
  if (!result.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::fputs(result->CurvesCsv().c_str(), stdout);
  const MkbMemoStats& memo = result->final_memo;
  const int64_t sweeps = memo.memo_survivals + memo.selective_drops;
  std::printf("# events=%d schema_changes=%d data_updates=%d relinks=%d\n",
              result->events_applied, result->schema_changes,
              result->data_updates, result->relinks);
  std::printf("# alive_views=%d dead_views=%d total_ms=%.1f\n",
              result->alive_views, result->dead_views,
              result->total_micros / 1000.0);
  std::printf(
      "# closure_hits=%lld closure_misses=%lld survivals=%lld drops=%lld "
      "full_flushes=%lld survival_rate=%.3f\n",
      static_cast<long long>(memo.closure_hits),
      static_cast<long long>(memo.closure_misses),
      static_cast<long long>(memo.memo_survivals),
      static_cast<long long>(memo.selective_drops),
      static_cast<long long>(memo.full_flushes),
      sweeps > 0 ? static_cast<double>(memo.memo_survivals) / sweeps : 0.0);
  if (preset->has_value()) {
    // Policy summary lines print ONLY when a preset was requested, so the
    // default invocation's stdout stays byte-identical to the seed's.
    const PolicyStats& p = result->final_policy;
    std::printf(
        "# policy=%s decisions=%lld full=%lld capped=%lld "
        "skip_unaffected=%lld skip_dead=%lld considered=%lld ranked=%lld "
        "mean_adopted_qc=%.4f\n",
        (*preset)->name.c_str(), static_cast<long long>(p.decisions),
        static_cast<long long>(p.full), static_cast<long long>(p.capped),
        static_cast<long long>(p.skipped_unaffected),
        static_cast<long long>(p.skipped_dead),
        static_cast<long long>(p.candidates_considered),
        static_cast<long long>(p.candidates_ranked),
        result->MeanAdoptedQc());
  }
  return 0;
}
