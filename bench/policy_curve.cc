// Policy-curve ablation driver: replays the same seeded evolution stream
// (bench_util/scenario.h) under each policy preset (policy/presets.h) and
// reports quality lost vs enumeration work saved -- the acceptance curve of
// the selective rewriting policy.
//
// For every topology (star and, unless --star-only, snowflake) and every
// preset (exhaustive / balanced / latency_bound) the driver replays the
// stream and records the policy counters (policy/policy.h) plus the mean
// adopted QC (Eq. 26).  "Work" is candidates_considered: rewriting
// candidates derived and offered to the enumeration sinks.  The summary
// relates each selective preset to the exhaustive oracle:
//   savings_vs_exhaustive = considered_exhaustive / considered_preset
//   quality_delta         = (qc_exhaustive - qc_preset) / qc_exhaustive
//
// Output is JSON on stdout (or --out=FILE), one object per (topology,
// policy) plus the derived summary -- the CI scenario tier uploads it as
// an artifact.
//
// Flags (all optional):
//   --events=N     stream length         (default 2000)
//   --views=N      view count            (default 32)
//   --families=N   dimension families    (default 6)
//   --replicas=N   replicas per family   (default 6)
//   --mirrors=N    partial mirrors per family (default 12; the
//                  complementary-coverage CVS pair material -- 0 restores
//                  the mirror-free space, where capping saves ~nothing)
//   --rows=N       rows per relation     (default 1024)
//   --seed=N       scenario/stream seed  (default 42)
//   --star-only    skip the snowflake topology
//   --out=FILE     write the JSON to FILE instead of stdout

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util/scenario.h"
#include "policy/presets.h"

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

std::string FlagString(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

struct CurvePoint {
  std::string topology;
  std::string policy;
  PolicyStats stats;
  double mean_adopted_qc = 0;
  int64_t adoptions = 0;
  int alive_views = 0;
  int dead_views = 0;
  double total_ms = 0;
};

std::string PointJson(const CurvePoint& p) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"topology\": \"%s\", \"policy\": \"%s\", \"decisions\": %lld, "
      "\"full\": %lld, \"capped\": %lld, \"skip_unaffected\": %lld, "
      "\"skip_dead\": %lld, \"candidates_considered\": %lld, "
      "\"candidates_ranked\": %lld, \"adoptions\": %lld, "
      "\"mean_adopted_qc\": %.6f, \"alive_views\": %d, \"dead_views\": %d, "
      "\"total_ms\": %.1f}",
      p.topology.c_str(), p.policy.c_str(),
      static_cast<long long>(p.stats.decisions),
      static_cast<long long>(p.stats.full),
      static_cast<long long>(p.stats.capped),
      static_cast<long long>(p.stats.skipped_unaffected),
      static_cast<long long>(p.stats.skipped_dead),
      static_cast<long long>(p.stats.candidates_considered),
      static_cast<long long>(p.stats.candidates_ranked),
      static_cast<long long>(p.adoptions), p.mean_adopted_qc, p.alive_views,
      p.dead_views, p.total_ms);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioOptions scenario;
  scenario.seed = static_cast<uint64_t>(FlagValue(argc, argv, "seed", 42));
  scenario.families = static_cast<int>(FlagValue(argc, argv, "families", 6));
  scenario.replicas_per_family =
      static_cast<int>(FlagValue(argc, argv, "replicas", 6));
  scenario.partial_mirrors =
      static_cast<int>(FlagValue(argc, argv, "mirrors", 12));
  scenario.views = static_cast<int>(FlagValue(argc, argv, "views", 32));
  scenario.dimension_rows = FlagValue(argc, argv, "rows", 1024);
  scenario.fact_rows = scenario.dimension_rows;
  const int events = static_cast<int>(FlagValue(argc, argv, "events", 2000));

  std::vector<bool> topologies = {false};
  if (!FlagSet(argc, argv, "star-only")) topologies.push_back(true);
  const char* const presets[] = {"exhaustive", "balanced", "latency_bound"};

  std::vector<CurvePoint> points;
  for (const bool snowflake : topologies) {
    for (const char* preset : presets) {
      ScenarioOptions topo = scenario;
      topo.snowflake = snowflake;
      EveOptions eve_options = PolicyPresetByName(preset).value();
      eve_options.materialize = false;
      auto system = BuildScenarioSystem(topo, eve_options);
      if (!system.ok()) {
        std::fprintf(stderr, "build failed (%s): %s\n", preset,
                     system.status().ToString().c_str());
        return 1;
      }

      const std::vector<ScenarioEvent> stream =
          GenerateEventStream(topo, events, topo.seed + 1);
      ReplayOptions replay;
      replay.sample_stride = events;  // Curve totals only; no sample spam.
      replay.track_replaceability = false;  // Isolate the enumeration work.
      const auto result = ReplayScenario(**system, stream, replay);
      if (!result.ok()) {
        std::fprintf(stderr, "replay failed (%s): %s\n", preset,
                     result.status().ToString().c_str());
        return 1;
      }
      CurvePoint point;
      point.topology = snowflake ? "snowflake" : "star";
      point.policy = preset;
      point.stats = result->final_policy;
      point.mean_adopted_qc = result->MeanAdoptedQc();
      point.adoptions = result->adoptions;
      point.alive_views = result->alive_views;
      point.dead_views = result->dead_views;
      point.total_ms = result->total_micros / 1000.0;
      points.push_back(std::move(point));
    }
  }

  std::string json = "{\n";
  json += "  \"events\": " + std::to_string(events) + ",\n";
  json += "  \"views\": " + std::to_string(scenario.views) + ",\n";
  json += "  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    json += PointJson(points[i]);
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"summary\": [\n";
  // Relate each selective point to its topology's exhaustive baseline.
  std::string summary;
  for (const CurvePoint& p : points) {
    if (p.policy == "exhaustive") continue;
    const CurvePoint* base = nullptr;
    for (const CurvePoint& b : points) {
      if (b.topology == p.topology && b.policy == "exhaustive") base = &b;
    }
    if (base == nullptr) continue;
    const double savings =
        p.stats.candidates_considered > 0
            ? static_cast<double>(base->stats.candidates_considered) /
                  static_cast<double>(p.stats.candidates_considered)
            : 0.0;
    const double quality_delta =
        base->mean_adopted_qc > 0
            ? (base->mean_adopted_qc - p.mean_adopted_qc) /
                  base->mean_adopted_qc
            : 0.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"topology\": \"%s\", \"policy\": \"%s\", "
                  "\"savings_vs_exhaustive\": %.3f, \"quality_delta\": %.6f}",
                  p.topology.c_str(), p.policy.c_str(), savings,
                  quality_delta);
    if (!summary.empty()) summary += ",\n";
    summary += buf;
  }
  json += summary + "\n  ]\n}\n";

  const std::string out_path = FlagString(argc, argv, "out");
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    // A one-line echo so ctest logs show the curve without the artifact.
    for (const CurvePoint& p : points) {
      std::printf("%s/%s: considered=%lld mean_qc=%.4f\n", p.topology.c_str(),
                  p.policy.c_str(),
                  static_cast<long long>(p.stats.candidates_considered),
                  p.mean_adopted_qc);
    }
  }
  return 0;
}
