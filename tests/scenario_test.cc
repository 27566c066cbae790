// Evolution-stream scenario engine (bench_util/scenario.h): generator
// determinism, end-to-end replay, equivalence of the two MKB invalidation
// modes over a full stream, byte-identical parallel vs serial
// ChangeReports, once-per-change snapshot publication (including the
// SnapshotBatch bulk-load suppression), and a cross-commit golden checksum
// of the rendered ChangeReports over seeded streams.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/scenario.h"
#include "policy/presets.h"

namespace eve {
namespace {

ScenarioOptions SmallScenario() {
  ScenarioOptions options;
  options.families = 3;
  options.replicas_per_family = 4;
  options.churn_relations = 3;
  options.views = 12;
  options.dimension_rows = 64;
  options.fact_rows = 64;
  options.churn_rows = 16;
  return options;
}

std::unique_ptr<EveSystem> BuildSmall(const ScenarioOptions& options,
                                      int threads = 0) {
  EveOptions eve_options;
  eve_options.materialize = false;
  eve_options.synchronize_threads = threads;
  auto system = BuildScenarioSystem(options, eve_options);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return std::move(*system);
}

TEST(ScenarioGenerator, DeterministicPerSeed) {
  const ScenarioOptions options = SmallScenario();
  const auto a = GenerateEventStream(options, 300, 7);
  const auto b = GenerateEventStream(options, 300, 7);
  ASSERT_EQ(a.size(), 300u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(), b[i].ToString()) << "event " << i;
  }
  const auto c = GenerateEventStream(options, 300, 8);
  bool differs = false;
  for (size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].ToString() != c[i].ToString();
  }
  EXPECT_TRUE(differs) << "different seeds must yield different streams";
}

TEST(ScenarioBuild, SpaceShapeAndSingleSnapshot) {
  const ScenarioOptions options = SmallScenario();
  const auto system = BuildSmall(options);
  EXPECT_EQ(system->vkb().ViewNames().size(), 12u);
  for (const std::string& name : system->vkb().ViewNames()) {
    EXPECT_EQ(system->GetViewState(name).value(), ViewState::kAlive);
  }
  // families facts + churn relations + families * replicas dimensions.
  EXPECT_EQ(system->mkb().Relations().size(),
            static_cast<size_t>(3 + 3 + 3 * 4));
  // The whole bulk load publishes exactly ONE epoch (SnapshotBatch) on top
  // of the empty birth epoch the EveSystem constructor publishes.
  ASSERT_NE(system->snapshots().Current(), nullptr);
  EXPECT_EQ(system->snapshots().Current()->sequence(), 2u);
}

TEST(ScenarioReplay, StreamAppliesCleanlyWithWarmMemos) {
  const ScenarioOptions options = SmallScenario();
  const auto system = BuildSmall(options);
  const auto stream = GenerateEventStream(options, 400, options.seed + 1);
  const auto result = ReplayScenario(*system, stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->events_applied, 400);
  EXPECT_EQ(result->schema_changes + result->data_updates + result->relinks,
            400);
  EXPECT_GT(result->schema_changes, 0);
  EXPECT_EQ(result->alive_views + result->dead_views, 12);
  ASSERT_FALSE(result->samples.empty());
  EXPECT_GT(result->samples.back().mean_replaceability, 0.0);
  // Acceptance: most memo entries survive each delta-aware sweep.
  const MkbMemoStats& memo = result->final_memo;
  ASSERT_GT(memo.memo_survivals + memo.selective_drops, 0);
  EXPECT_GT(static_cast<double>(memo.memo_survivals) /
                static_cast<double>(memo.memo_survivals +
                                    memo.selective_drops),
            0.5);
  EXPECT_EQ(memo.full_flushes, 0);
  const std::string csv = result->CurvesCsv();
  EXPECT_NE(csv.find("replaceability"), std::string::npos);
  EXPECT_NE(csv.find("\n399,"), std::string::npos) << "last event sampled";
}

TEST(ScenarioReplay, SelectiveMatchesFullFlushCurves) {
  const ScenarioOptions options = SmallScenario();
  const auto stream = GenerateEventStream(options, 400, options.seed + 1);
  const auto selective = BuildSmall(options);
  const auto full = BuildSmall(options);
  full->mkb().set_selective_invalidation(false);
  const auto a = ReplayScenario(*selective, stream);
  const auto b = ReplayScenario(*full, stream);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->alive_views, b->alive_views);
  EXPECT_EQ(a->dead_views, b->dead_views);
  ASSERT_EQ(a->samples.size(), b->samples.size());
  for (size_t i = 0; i < a->samples.size(); ++i) {
    const ReplaySample& sa = a->samples[i];
    const ReplaySample& sb = b->samples[i];
    EXPECT_EQ(sa.kind, sb.kind) << "sample " << i;
    EXPECT_EQ(sa.alive_views, sb.alive_views) << "sample " << i;
    EXPECT_EQ(sa.affected_views, sb.affected_views) << "sample " << i;
    EXPECT_DOUBLE_EQ(sa.mean_adopted_qc, sb.mean_adopted_qc) << "sample " << i;
    EXPECT_DOUBLE_EQ(sa.mean_adopted_cost, sb.mean_adopted_cost)
        << "sample " << i;
    EXPECT_DOUBLE_EQ(sa.mean_replaceability, sb.mean_replaceability)
        << "sample " << i;
  }
  EXPECT_GT(b->final_memo.full_flushes, 0);
}

// The parallel per-view synchronization loop must produce a ChangeReport
// byte-identical to the serial loop's, across thread counts, including a
// change that fans out to every view of a family at once.
TEST(ParallelSynchronization, ReportsByteIdenticalAcrossThreadCounts) {
  ScenarioOptions options = SmallScenario();
  options.families = 1;  // All 12 views reference the one family's chain head.
  const auto stream = GenerateEventStream(options, 200, options.seed + 1);
  std::string serial_log;
  for (int threads : {1, 2, 4}) {
    const auto system = BuildSmall(options, threads);
    std::string log;
    for (const ScenarioEvent& event : stream) {
      const auto* change = std::get_if<SchemaChange>(&event.op);
      if (change == nullptr) continue;
      const auto report = system->NotifySchemaChange(*change);
      ASSERT_TRUE(report.ok()) << event.ToString() << ": "
                               << report.status().ToString();
      log += report->ToString();
      log += '\n';
    }
    if (threads == 1) {
      serial_log = std::move(log);
    } else {
      EXPECT_EQ(log, serial_log) << "threads=" << threads;
    }
  }
}

TEST(SnapshotPublication, OncePerChangeAndBatched) {
  const ScenarioOptions options = SmallScenario();
  const auto system = BuildSmall(options);
  const uint64_t seq0 = system->snapshots().Current()->sequence();

  // One capability change -> exactly one new epoch (audit: steps 4 and 5 of
  // NotifySchemaChange used to publish separately).
  const auto stream = GenerateEventStream(options, 50, options.seed + 1);
  const SchemaChange* change = nullptr;
  const DataUpdate* update = nullptr;
  for (const ScenarioEvent& event : stream) {
    if (change == nullptr) change = std::get_if<SchemaChange>(&event.op);
    if (update == nullptr) {
      const auto* candidate = std::get_if<DataUpdate>(&event.op);
      // Inserts are idempotently applicable; a delete is only valid once.
      if (candidate != nullptr && candidate->kind == UpdateKind::kInsert) {
        update = candidate;
      }
    }
  }
  ASSERT_NE(change, nullptr);
  ASSERT_NE(update, nullptr);
  ASSERT_TRUE(system->NotifySchemaChange(*change).ok());
  EXPECT_EQ(system->snapshots().Current()->sequence(), seq0 + 1);

  // A batch of data updates -> one deferred publish at scope exit.
  {
    EveSystem::SnapshotBatch batch(*system);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(system->NotifyDataUpdate(*update).ok());
    }
    EXPECT_EQ(system->snapshots().Current()->sequence(), seq0 + 1)
        << "publication must be deferred inside the batch";
  }
  EXPECT_EQ(system->snapshots().Current()->sequence(), seq0 + 2);
}

// Golden pin of the evolution pipeline's observable output: an FNV-1a hash
// of every ChangeReport::ToString() over a seeded stream, per (seed, space
// shape, policy preset).  The constants were recorded once and must never
// move under a refactor; a legitimate behavior change updates them (and
// says why) in the same change.  A mismatch prints the new hash.
uint64_t Fnv1a(uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(ScenarioGolden, ChangeReportChecksumsArePinned) {
  struct Shape {
    const char* name;
    bool snowflake;
    int partial_mirrors;
  };
  const Shape shapes[] = {{"star", false, 0},
                          {"snowflake", true, 0},
                          {"snowflake+mirrors", true, 2}};
  struct Policy {
    const char* name;
    EveOptions options;
  };
  const Policy policies[] = {{"exhaustive", ExhaustivePreset()},
                             {"balanced", BalancedPreset()}};
  // Indexed [seed - 1][shape][policy].
  const uint64_t kExpected[3][3][2] = {
      {{0x844677b4073061b2ULL, 0xbb38a0585ece8522ULL},
       {0x844677b4073061b2ULL, 0xbb38a0585ece8522ULL},
       {0xd8ed14e9fdc1bccbULL, 0x3cf4cc301e389cdbULL}},
      {{0xb908a8cf1bca85c4ULL, 0x172df784250f0fbeULL},
       {0x10b2d812850e8980ULL, 0x48d8a622bf720abeULL},
       {0x019f2f12ec852319ULL, 0x3c320ac5bddbc9fdULL}},
      {{0x7a958181c69317f5ULL, 0x6efff6d8cd0416cfULL},
       {0xc19e6935e8ca199fULL, 0x97788721f833b68dULL},
       {0x9394984c247a741aULL, 0x7332b26e55a56102ULL}},
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (int s = 0; s < 3; ++s) {
      ScenarioOptions options = SmallScenario();
      options.seed = seed;
      options.snowflake = shapes[s].snowflake;
      options.partial_mirrors = shapes[s].partial_mirrors;
      const auto stream = GenerateEventStream(options, 200, seed);
      for (int p = 0; p < 2; ++p) {
        EveOptions eve_options = policies[p].options;
        eve_options.materialize = false;
        auto system = BuildScenarioSystem(options, eve_options);
        ASSERT_TRUE(system.ok()) << system.status().ToString();
        uint64_t hash = 0xcbf29ce484222325ULL;
        int reports = 0;
        for (const ScenarioEvent& event : stream) {
          if (const auto* change = std::get_if<SchemaChange>(&event.op)) {
            const auto report = (*system)->NotifySchemaChange(*change);
            ASSERT_TRUE(report.ok()) << event.ToString() << ": "
                                     << report.status().ToString();
            hash = Fnv1a(hash, report->ToString());
            ++reports;
          } else if (const auto* update = std::get_if<DataUpdate>(&event.op)) {
            ASSERT_TRUE((*system)->NotifyDataUpdate(*update).ok())
                << event.ToString();
          } else {
            ASSERT_TRUE((*system)
                            ->AddPcConstraint(std::get<PcConstraint>(event.op))
                            .ok())
                << event.ToString();
          }
        }
        EXPECT_GT(reports, 0);
        EXPECT_EQ(hash, kExpected[seed - 1][s][p])
            << "seed=" << seed << " shape=" << shapes[s].name
            << " policy=" << policies[p].name << " got 0x" << std::hex << hash;
      }
    }
  }
}

}  // namespace
}  // namespace eve
