// Google-benchmark micro suite: throughput of the library's core paths.
//   * E-SQL parsing (lexer + parser + validation)
//   * view execution (hash joins over the in-memory engine), optimized
//     row-id engine vs the seed's reference executor
//   * prepared-plan replay (PrepareView once + ExecutePrepared per round,
//     the PlanCache path, and one shared plan across benchmark threads)
//   * serving-layer throughput (ServingFrontEnd round trips across
//     benchmark threads with concurrent schema changes) and the cost of
//     one epoch turnover (SystemSnapshot capture + publish)
//   * extent comparison over cached per-relation tuple-hash columns
//   * parallel scenario sweeps through the analytic cost model
//   * transitive PC-edge closure, memoized vs uncached
//   * rewriting generation (synchronizer, transitive PC discovery)
//   * QC ranking (quality estimation + cost model + normalization)
//   * incremental maintenance of one update (Algorithm 1 simulator)
//
// Results are additionally written to BENCH_micro.json (ns/op per
// benchmark; see bench/README.md) so the perf trajectory is tracked
// across PRs.  Set EVE_BENCH_JSON_PATH to change the output location.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/distributions.h"
#include "bench_util/experiment_common.h"
#include "bench_util/scenario.h"
#include "common/random.h"
#include "esql/parser.h"
#include "algebra/executor.h"
#include "eve/eve_system.h"
#include "serve/frontend.h"
#include "maintenance/maintainer.h"
#include "misd/mkb.h"
#include "plan/plan_cache.h"
#include "policy/presets.h"
#include "qc/ranking.h"
#include "space/information_space.h"
#include "storage/column_kernel.h"
#include "storage/generator.h"
#include "storage/hash_index.h"
#include "synch/synchronizer.h"

namespace eve {
namespace {

const char* kViewText =
    "CREATE VIEW AsiaCustomer (VE = subset) AS "
    "SELECT C.Name (AR=true), C.Address (AD=true, AR=true), "
    "C.Phone (AD=true, AR=true), F.Dest (AD=true) "
    "FROM Customer C (RR=true), FlightRes F (RD=true) "
    "WHERE (C.Name = F.PName) (CR=true) AND (F.Dest = 7) (CD=true)";

void BM_ParseView(benchmark::State& state) {
  for (auto _ : state) {
    auto view = ParseViewDefinition(kViewText);
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_ParseView);

struct ExecFixture {
  InformationSpace space;
  ViewDefinition view;

  explicit ExecFixture(int64_t cardinality) {
    Random rng(17);
    GeneratorOptions gen;
    gen.cardinality = cardinality;
    gen.num_attributes = 2;
    gen.key_domain = cardinality / 2;
    (void)space.AddRelation("IS1", GenerateRelation("R", gen, &rng));
    (void)space.AddRelation("IS2", GenerateRelation("S", gen, &rng));
    view = ParseViewDefinition(
               "CREATE VIEW V AS SELECT R.A, R.B, S.B AS SB FROM R, S "
               "WHERE R.A = S.A")
               .value();
  }
};

void BM_ExecuteJoinView(benchmark::State& state) {
  ExecFixture fixture(state.range(0));
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = ExecuteView(fixture.view, fixture.space);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecuteJoinView)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ExecuteJoinView_Baseline(benchmark::State& state) {
  ExecFixture fixture(state.range(0));
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = ExecuteViewReference(fixture.view, fixture.space);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecuteJoinView_Baseline)->Arg(256)->Arg(1024)->Arg(4096);

// Multi-join view: a 4-way chain with a local selection, the shape where
// join reordering, selection pushdown, and row-id joins dominate.  The
// FROM order is deliberately worst-case: the largest relation first.
struct MultiJoinFixture {
  InformationSpace space;
  ViewDefinition view;

  explicit MultiJoinFixture(int64_t cardinality) {
    Random rng(29);
    GeneratorOptions gen;
    gen.num_attributes = 2;
    gen.value_domain = 1000;
    const struct {
      const char* site;
      const char* name;
      int64_t card;
    } rels[] = {{"IS1", "R", cardinality * 4},
                {"IS2", "S", cardinality},
                {"IS3", "T", cardinality / 2},
                {"IS4", "U", cardinality / 4}};
    for (const auto& r : rels) {
      gen.cardinality = r.card;
      gen.key_domain = std::max<int64_t>(4, r.card / 2);
      (void)space.AddRelation(r.site, GenerateRelation(r.name, gen, &rng));
    }
    view = ParseViewDefinition(
               "CREATE VIEW V AS SELECT R.A, S.B AS SB, T.B AS TB, U.B AS UB "
               "FROM R, S, T, U WHERE (R.A = S.A) AND (S.A = T.A) AND "
               "(T.A = U.A) AND (R.B >= 500)")
               .value();
  }
};

void BM_ExecuteMultiJoinView(benchmark::State& state) {
  MultiJoinFixture fixture(state.range(0));
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = ExecuteView(fixture.view, fixture.space);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecuteMultiJoinView)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ExecuteMultiJoinView_Baseline(benchmark::State& state) {
  MultiJoinFixture fixture(state.range(0));
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = ExecuteViewReference(fixture.view, fixture.space);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecuteMultiJoinView_Baseline)->Arg(256)->Arg(1024)->Arg(4096);

// Plan-reuse replay loop: prepare once, execute per round -- the shape of
// the exp1-exp5 scenario sweeps.  Compare against BM_ExecuteMultiJoinView
// (same work with per-call planning) for the amortization win.
void BM_ExecuteMultiJoinView_Prepared(benchmark::State& state) {
  MultiJoinFixture fixture(state.range(0));
  auto plan = PrepareView(fixture.view, fixture.space).value();
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = ExecutePrepared(*plan);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecuteMultiJoinView_Prepared)->Arg(256)->Arg(1024)->Arg(4096);

// Governance overhead pair: the same prepared replay, once with the
// default unlimited context (compile-time no-op) and once under an
// ExecContext whose row budget is active but never binds.  The delta is
// the full price of amortized budget/deadline accounting on the hot
// execution path; the regression gate keeps it under 2x, the target is
// within 5%.
void BM_ExecutePreparedUngoverned(benchmark::State& state) {
  MultiJoinFixture fixture(state.range(0));
  auto plan = PrepareView(fixture.view, fixture.space).value();
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = ExecutePrepared(*plan);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecutePreparedUngoverned)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ExecutePreparedGoverned(benchmark::State& state) {
  MultiJoinFixture fixture(state.range(0));
  auto plan = PrepareView(fixture.view, fixture.space).value();
  ExecContext ctx;
  ctx.WithRowBudget(int64_t{1} << 60);  // limited() == true, never binds.
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = ExecutePrepared(*plan, ctx);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecutePreparedGoverned)->Arg(256)->Arg(1024)->Arg(4096);

// Planning alone (resolution, binding, pushdown, join ordering): the cost
// that plan reuse amortizes away.
void BM_PrepareMultiJoinView(benchmark::State& state) {
  MultiJoinFixture fixture(state.range(0));
  for (auto _ : state) {
    auto plan = PrepareView(fixture.view, fixture.space);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PrepareMultiJoinView)->Arg(256)->Arg(1024)->Arg(4096);

// The PlanCache replay path: Get() revalidates relation versions on every
// round, then executes the cached plan.  The gap to _Prepared is the price
// of automatic invalidation.
void BM_ExecuteMultiJoinView_PlanCache(benchmark::State& state) {
  MultiJoinFixture fixture(state.range(0));
  PlanCache cache;
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = cache.Execute(fixture.view, fixture.space);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecuteMultiJoinView_PlanCache)->Arg(256)->Arg(1024)->Arg(4096);

// One prepared plan executed from N benchmark threads concurrently: the
// thread-safety contract of ExecutePrepared (const plan, internally
// synchronized per-Relation caches) under real contention.  The fixture is
// shared across the ThreadRange runs; the plan stays valid throughout
// because nothing mutates the relations.
struct SharedPreparedState {
  MultiJoinFixture fixture{1024};
  std::shared_ptr<const PreparedView> plan =
      PrepareView(fixture.view, fixture.space).value();
};

SharedPreparedState& GetSharedPreparedState() {
  static SharedPreparedState* state = new SharedPreparedState();
  return *state;
}

void BM_ExecutePreparedConcurrent(benchmark::State& state) {
  SharedPreparedState& shared = GetSharedPreparedState();
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = ExecutePrepared(*shared.plan);
    tuples += result.ok() ? result->cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ExecutePreparedConcurrent)->ThreadRange(1, 4)->UseRealTime();

// Serving-layer throughput: N benchmark threads doing synchronous
// QueryView round trips through one shared ServingFrontEnd (admission
// queue -> worker pool -> PlanCache against the pinned epoch), while
// thread 0 interleaves schema changes so epochs actually turn over under
// the readers.  The renamed attribute (C) is not referenced by the view,
// so every flip runs the full synchronization + snapshot publication
// path without altering the served result -- the measured work per
// request stays comparable across thread counts.
struct SharedServeState {
  EveSystem system;
  std::unique_ptr<ServingFrontEnd> frontend;
  bool renamed = false;  ///< Only touched by benchmark thread 0.

  SharedServeState() {
    Random rng(61);
    GeneratorOptions gen;
    gen.cardinality = 1024;
    gen.num_attributes = 3;
    gen.key_domain = 512;
    (void)system.RegisterRelation("IS1", GenerateRelation("R", gen, &rng));
    (void)system.RegisterRelation("IS2", GenerateRelation("S", gen, &rng));
    (void)system.DefineView(
        "CREATE VIEW V AS SELECT R.A, R.B, S.B AS SB FROM R, S "
        "WHERE R.A = S.A");
    frontend = std::make_unique<ServingFrontEnd>(system);
  }
};

SharedServeState& GetSharedServeState() {
  static SharedServeState* state = new SharedServeState();
  return *state;
}

void BM_ServeThroughput(benchmark::State& state) {
  SharedServeState& shared = GetSharedServeState();
  int64_t tuples = 0;
  int64_t round = 0;
  for (auto _ : state) {
    if (state.thread_index() == 0 && (++round % 64) == 0) {
      // One schema-change epoch turnover per 64 requests of thread 0
      // (EveSystem mutations are single-writer, so only this thread
      // mutates).
      const std::string from = shared.renamed ? "C2" : "C";
      const std::string to = shared.renamed ? "C" : "C2";
      shared.renamed = !shared.renamed;
      SchemaChange change{RenameAttribute{RelationId{"IS1", "R"}, from, to}};
      auto report = shared.system.NotifySchemaChange(change);
      benchmark::DoNotOptimize(report);
    }
    ServeResult result = shared.frontend->QueryView("V");
    tuples += result.status.ok() ? result.relation.cardinality() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_ServeThroughput)->ThreadRange(1, 32)->UseRealTime();

// Cost of one epoch turnover with nothing changed -- an incremental
// SystemSnapshot::Capture (one allocation-free walk over the space that
// finds every relation unchanged and shares the previous epoch's relation
// table, name maps, and view definitions) plus the atomic Publish -- as a
// function of how many relations the space hosts.
void BM_SnapshotSwap(benchmark::State& state) {
  EveSystem system;
  Random rng(67);
  GeneratorOptions gen;
  gen.cardinality = 512;
  gen.num_attributes = 2;
  gen.key_domain = 256;
  for (int64_t r = 0; r < state.range(0); ++r) {
    (void)system.RegisterRelation(
        "IS1", GenerateRelation("R" + std::to_string(r), gen, &rng));
  }
  int64_t swaps = 0;
  for (auto _ : state) {
    Status status = system.RefreshSnapshot();
    benchmark::DoNotOptimize(status);
    ++swaps;
  }
  state.SetItemsProcessed(swaps);
}
BENCHMARK(BM_SnapshotSwap)->Arg(4)->Arg(64);

// The write path while an epoch holds the relation: each round copies the
// live relation (what snapshot capture does), mutates the live one, and
// restores it.  Chunked copy-on-write clones only the touched tail chunk,
// so inserts stay flat in the row count (/10000 vs /40000); a tail erase
// still scans column 0 once to find its victim.
Relation WriteBenchInput(int64_t rows) {
  Random rng(71);
  GeneratorOptions gen;
  gen.cardinality = rows;
  gen.num_attributes = 4;
  gen.key_domain = rows;
  return GenerateRelation("F", gen, &rng);
}

void BM_InsertAfterSnapshot(benchmark::State& state) {
  Relation live = WriteBenchInput(state.range(0));
  const Tuple t = live.TupleAt(0);
  for (auto _ : state) {
    Relation held = live;
    live.AddTuple(t);
    benchmark::DoNotOptimize(live.cardinality());
    live = std::move(held);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertAfterSnapshot)->Arg(10000)->Arg(40000);

void BM_EraseTailAfterSnapshot(benchmark::State& state) {
  Relation live = WriteBenchInput(state.range(0));
  const Tuple t = live.TupleAt(live.cardinality() - 1);
  for (auto _ : state) {
    Relation held = live;
    benchmark::DoNotOptimize(live.Erase(t));
    live = std::move(held);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EraseTailAfterSnapshot)->Arg(10000)->Arg(40000);

// One data update among N relations: the insert, plus the incremental
// capture that refreezes only the mutated relation, plus the publish.
void BM_PublishAfterInsert(benchmark::State& state) {
  EveSystem system;
  Random rng(67);
  GeneratorOptions gen;
  gen.cardinality = 512;
  gen.num_attributes = 2;
  gen.key_domain = 256;
  for (int64_t r = 0; r < state.range(0); ++r) {
    (void)system.RegisterRelation(
        "IS1", GenerateRelation("R" + std::to_string(r), gen, &rng));
  }
  const DataUpdate update{UpdateKind::kInsert, RelationId{"IS1", "R0"},
                          Tuple{Value(1), Value(2)}};
  for (auto _ : state) {
    auto counters = system.NotifyDataUpdate(update);
    benchmark::DoNotOptimize(counters);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PublishAfterInsert)->Arg(64);

struct SynchFixture {
  MetaKnowledgeBase mkb;
  ViewDefinition view;
  SchemaChange change{DeleteRelation{RelationId{"IS1", "R2"}}};

  SynchFixture() {
    const Schema abc({Attribute::Make("A", DataType::kInt64, 34),
                      Attribute::Make("B", DataType::kInt64, 33),
                      Attribute::Make("C", DataType::kInt64, 33)});
    const Schema r1({Attribute::Make("K", DataType::kInt64, 100)});
    (void)mkb.RegisterRelationWithStats({"IS0", "R1"}, r1, 400, 0.5);
    (void)mkb.RegisterRelationWithStats({"IS1", "R2"}, abc, 4000, 0.5);
    for (int i = 0; i < 5; ++i) {
      (void)mkb.RegisterRelationWithStats(
          {"IS" + std::to_string(i + 2), "S" + std::to_string(i + 1)}, abc,
          2000 + 1000 * i, 0.5);
    }
    auto pc = [&](RelationId a, RelationId b, PcRelationType t) {
      (void)mkb.AddPcConstraint(MakeProjectionPc(a, b, {"A", "B", "C"}, t));
    };
    pc({"IS2", "S1"}, {"IS3", "S2"}, PcRelationType::kSubset);
    pc({"IS3", "S2"}, {"IS4", "S3"}, PcRelationType::kSubset);
    pc({"IS4", "S3"}, {"IS1", "R2"}, PcRelationType::kEquivalent);
    pc({"IS4", "S3"}, {"IS5", "S4"}, PcRelationType::kSubset);
    pc({"IS5", "S4"}, {"IS6", "S5"}, PcRelationType::kSubset);
    view = ParseViewDefinition(
               "CREATE VIEW V AS SELECT R2.A (AR=true), R2.B (AR=true), "
               "R2.C (AR=true) FROM R1, R2 (RR=true) "
               "WHERE (R1.K = R2.A) (CR=true) AND (R2.B > 5) (CR=true)")
               .value();
  }
};

void BM_SynchronizeView(benchmark::State& state) {
  SynchFixture fixture;
  ViewSynchronizer synchronizer(fixture.mkb);
  for (auto _ : state) {
    auto result = synchronizer.Synchronize(fixture.view, fixture.change);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SynchronizeView);

// Wide delete-change fan-out: a 17-attribute view over a deleted relation
// with 40 partial-map PC replacements (28 covering the first half of the
// attributes, 12 the second) and a join constraint between every target
// pair.  The enumeration attempts ~1600 CVS pair substitutions -- most
// rejected because both targets cover the same half -- of which ~700
// succeed and the 256-candidate cap keeps a fraction.  This is the shape
// where the copy-on-write candidate representation pays: rejected,
// deduplicated, and over-cap candidates never touch a materialized
// ViewDefinition, while the eager oracle (the _Eager variant) deep-copies
// the whole 17-select definition up front for every single attempt.
struct DeleteFanoutFixture {
  MetaKnowledgeBase mkb;
  ViewDefinition view;
  SchemaChange change{DeleteRelation{RelationId{"IS0", "R"}}};
  static constexpr int kTargets = 40;
  static constexpr int kFirstHalfTargets = 28;
  static constexpr int kSideRelations = 4;  ///< Untouched wide FROM items.

  DeleteFanoutFixture() {
    auto int_schema = [](const std::vector<std::string>& names) {
      std::vector<Attribute> attrs;
      for (const std::string& n : names) {
        attrs.push_back(Attribute::Make(n, DataType::kInt64, 50));
      }
      return Schema(std::move(attrs));
    };
    (void)mkb.RegisterRelationWithStats(
        {"IS0", "R"}, int_schema({"K", "X0", "X1", "X2", "X3"}), 10000, 0.5);
    // The side relations feed most of the view's interface; rewriting
    // candidates never touch them (the common case: a wide warehouse view
    // loses one of many sources).
    for (int s = 0; s < kSideRelations; ++s) {
      (void)mkb.RegisterRelationWithStats(
          {"ISS" + std::to_string(s), "S" + std::to_string(s)},
          int_schema({"KA", "B0", "B1", "B2"}), 8000, 0.5);
    }
    // Each target covers K plus one half of the X attributes; only a pair
    // of complementary targets can substitute R in full.
    for (int i = 0; i < kTargets; ++i) {
      const bool first_half = i < kFirstHalfTargets;
      const std::vector<std::string> attrs =
          first_half ? std::vector<std::string>{"K", "X0", "X1"}
                     : std::vector<std::string>{"K", "X2", "X3"};
      const RelationId id{"IS" + std::to_string(i + 1),
                          "U" + std::to_string(i)};
      (void)mkb.RegisterRelationWithStats(id, int_schema(attrs),
                                          4000 + 100 * i, 0.5);
      (void)mkb.AddPcConstraint(MakeProjectionPc(RelationId{"IS0", "R"}, id,
                                                 attrs,
                                                 PcRelationType::kEquivalent));
    }
    for (int i = 0; i < kTargets; ++i) {
      for (int j = i + 1; j < kTargets; ++j) {
        JoinConstraint jc;
        jc.left = RelationId{"IS" + std::to_string(i + 1),
                             "U" + std::to_string(i)};
        jc.right = RelationId{"IS" + std::to_string(j + 1),
                              "U" + std::to_string(j)};
        jc.condition.Add(PrimitiveClause::AttrAttr(
            RelAttr{"U" + std::to_string(i), "K"}, CompOp::kEqual,
            RelAttr{"U" + std::to_string(j), "K"}));
        (void)mkb.AddJoinConstraint(jc);
      }
    }
    std::string text = "CREATE VIEW W AS SELECT R.K (AR=true)";
    for (int a = 0; a < 4; ++a) {
      text += ", R.X" + std::to_string(a) + " (AD=true, AR=true)";
    }
    for (int s = 0; s < kSideRelations; ++s) {
      for (int b = 0; b < 3; ++b) {
        text += ", S" + std::to_string(s) + ".B" + std::to_string(b) + " AS S" +
                std::to_string(s) + "B" + std::to_string(b);
      }
    }
    text += " FROM R (RR=true)";
    for (int s = 0; s < kSideRelations; ++s) text += ", S" + std::to_string(s);
    text += " WHERE (R.K = S0.KA) (CR=true)";
    for (int s = 1; s < kSideRelations; ++s) {
      text += " AND (S" + std::to_string(s - 1) + ".KA = S" +
              std::to_string(s) + ".KA)";
    }
    view = ParseViewDefinition(text).value();
  }
};

void BM_SynchronizeDeleteFanout(benchmark::State& state) {
  DeleteFanoutFixture fixture;
  ViewSynchronizer synchronizer(fixture.mkb);
  int64_t rewritings = 0;
  for (auto _ : state) {
    auto result = synchronizer.Synchronize(fixture.view, fixture.change);
    rewritings += result.ok() ? static_cast<int64_t>(result->rewritings.size())
                              : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(rewritings);
}
BENCHMARK(BM_SynchronizeDeleteFanout);

void BM_SynchronizeDeleteFanout_Eager(benchmark::State& state) {
  DeleteFanoutFixture fixture;
  const SynchronizerOptions options;
  int64_t rewritings = 0;
  for (auto _ : state) {
    auto result = internal::SynchronizeEager(fixture.mkb, options,
                                             fixture.view, fixture.change);
    rewritings += result.ok() ? static_cast<int64_t>(result->rewritings.size())
                              : 0;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(rewritings);
}
BENCHMARK(BM_SynchronizeDeleteFanout_Eager);

// Transitive PC-edge closure on the SynchFixture constraint chain: the
// memoized path (one map lookup after warm-up) vs the seed's uncached BFS
// that rescans the constraint store per node.
void BM_TransitiveClosure(benchmark::State& state) {
  SynchFixture fixture;
  const RelationId source{"IS1", "R2"};
  for (auto _ : state) {
    const auto& edges = fixture.mkb.PcEdgesFromTransitive(source, 4);
    benchmark::DoNotOptimize(&edges);
  }
}
BENCHMARK(BM_TransitiveClosure);

void BM_TransitiveClosure_Uncached(benchmark::State& state) {
  SynchFixture fixture;
  const RelationId source{"IS1", "R2"};
  for (auto _ : state) {
    auto edges = fixture.mkb.PcEdgesFromTransitiveUncached(source, 4);
    benchmark::DoNotOptimize(edges);
  }
}
BENCHMARK(BM_TransitiveClosure_Uncached);

// Cold closures on the e2ebench scenario shapes: 6 families x 8 replicas
// (`star`, the serve/maintain shape), plus snowflake chains and 2 partial
// mirrors per family (`snowflake_mirrors`, the evolve shape).  Every
// iteration computes each relation's 4-hop closure with no memo, so it
// prices a closure miss: the adjacency rebuild plus the breadth-first
// expansion.  The mirrors are the fan-in hubs that made the path-by-path
// expansion re-derive the same closure once per path.
void BM_TransitiveClosureMiss(benchmark::State& state, bool snowflake_mirrors) {
  ScenarioOptions scenario;
  scenario.replicas_per_family = 8;
  scenario.dimension_rows = 64;
  scenario.fact_rows = 64;
  scenario.snowflake = snowflake_mirrors;
  scenario.partial_mirrors = snowflake_mirrors ? 2 : 0;
  EveOptions eve_options;
  eve_options.materialize = false;
  const auto system = BuildScenarioSystem(scenario, eve_options).value();
  const MetaKnowledgeBase& mkb = system->mkb();
  const std::vector<RelationId> sources = mkb.Relations();
  int64_t closures = 0;
  for (auto _ : state) {
    for (const RelationId& id : sources) {
      auto edges = mkb.PcEdgesFromTransitiveUncached(id, 4);
      benchmark::DoNotOptimize(edges);
    }
    closures += static_cast<int64_t>(sources.size());
  }
  state.SetItemsProcessed(closures);
}
BENCHMARK_CAPTURE(BM_TransitiveClosureMiss, star, false);
BENCHMARK_CAPTURE(BM_TransitiveClosureMiss, snowflake_mirrors, true);

void BM_QcRanking(benchmark::State& state) {
  SynchFixture fixture;
  ViewSynchronizer synchronizer(fixture.mkb);
  auto sync = synchronizer.Synchronize(fixture.view, fixture.change);
  QcModel model(QcParameters{}, CostModelOptions{}, WorkloadOptions{});
  for (auto _ : state) {
    auto ranking = model.Rank(fixture.view, sync->rewritings, fixture.mkb);
    benchmark::DoNotOptimize(ranking);
  }
}
BENCHMARK(BM_QcRanking);

// Rebuilds `rel` with every column forced into the legacy tagged layout.
// Relations normally promote to packed segments on append, so this is how
// the *_Packed benchmarks get their tagged baseline twin to measure
// against (it reproduces the pre-segment storage exactly, including the
// tag-uniform fast paths the old kernels had).
Relation ForceTagged(const Relation& rel) {
  std::vector<ColumnSegment> cols;
  cols.reserve(static_cast<size_t>(rel.width()));
  for (int c = 0; c < rel.width(); ++c) {
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(rel.cardinality()));
    for (int64_t row = 0; row < rel.cardinality(); ++row) {
      values.push_back(rel.ValueAt(row, c));
    }
    cols.push_back(ColumnSegment::TaggedFromValues(std::move(values)));
  }
  return Relation::FromSegments(rel.name(), rel.schema(), std::move(cols));
}

// Value-representation benchmarks: Distinct() and hash-index builds are
// dominated by value hashing / equality over full tuples.  BM_Distinct
// keeps the historic tagged layout (the baseline); BM_Distinct_Packed runs
// the same workload over naturally promoted packed segments.  The relation
// mixes duplicates in (key_domain < cardinality) so dedup does real bucket
// work.
Relation DistinctBenchInput(int64_t cardinality) {
  Random rng(23);
  GeneratorOptions gen;
  gen.cardinality = cardinality;
  gen.num_attributes = 3;
  gen.key_domain = std::max<int64_t>(2, cardinality / 4);
  gen.value_domain = 64;
  return GenerateRelation("R", gen, &rng);
}

void BM_Distinct(benchmark::State& state) {
  Relation rel = ForceTagged(DistinctBenchInput(state.range(0)));
  int64_t rounds = 0;
  for (auto _ : state) {
    // Distinct() reuses the cached tuple-hash column, which is exactly the
    // warm path the sweeps hit.
    Relation distinct = rel.Distinct();
    benchmark::DoNotOptimize(distinct);
    ++rounds;
  }
  state.SetItemsProcessed(rounds * state.range(0));
}
BENCHMARK(BM_Distinct)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Distinct_Packed(benchmark::State& state) {
  Relation rel = DistinctBenchInput(state.range(0));
  int64_t rounds = 0;
  for (auto _ : state) {
    Relation distinct = rel.Distinct();
    benchmark::DoNotOptimize(distinct);
    ++rounds;
  }
  state.SetItemsProcessed(rounds * state.range(0));
}
BENCHMARK(BM_Distinct_Packed)->Arg(1024)->Arg(4096)->Arg(16384);

// Tuple hashing alone (the cold half of Distinct / SetEquals): the
// column-wise FNV mixing pass that builds the cached hash column.
void BM_TupleHashColumn(benchmark::State& state) {
  Random rng(31);
  GeneratorOptions gen;
  gen.cardinality = state.range(0);
  gen.num_attributes = 3;
  gen.key_domain = state.range(0) / 2;
  const Relation rel = GenerateRelation("R", gen, &rng);
  int64_t rounds = 0;
  for (auto _ : state) {
    std::vector<size_t> hashes = rel.ComputeTupleHashes();
    benchmark::DoNotOptimize(hashes.data());
    ++rounds;
  }
  state.SetItemsProcessed(rounds * state.range(0));
}
BENCHMARK(BM_TupleHashColumn)->Arg(4096);

// Columnar scan kernel: one mask-compare pass over a contiguous column
// plus the survivor count -- the primitive behind selection pushdown,
// residual filtering, and MeasureSelectivity.  BM_ColumnScan keeps the
// historic 16-byte tagged layout (the baseline); BM_ColumnScan_Packed
// scans the same data as a promoted vector<int64_t> segment.
Relation ColumnScanBenchInput(int64_t cardinality) {
  Random rng(47);
  GeneratorOptions gen;
  gen.cardinality = cardinality;
  gen.num_attributes = 2;
  gen.value_domain = 1000;
  return GenerateRelation("R", gen, &rng);
}

void ColumnScanLoop(benchmark::State& state, const Relation& rel) {
  // The AND-fold of a fixed predicate is idempotent (every pass compares
  // and writes all rows regardless of mask content), so the mask
  // initialization and the survivor count hoist out of the timed loop and
  // the measurement isolates the kernel itself.
  std::vector<uint8_t> mask(static_cast<size_t>(rel.cardinality()), 1);
  int64_t rounds = 0;
  for (auto _ : state) {
    AndCompareColumnConst(CompOp::kGreaterEqual, rel.Segment(1), Value(500),
                          mask.data());
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
    ++rounds;
  }
  int64_t hits = 0;
  for (const uint8_t m : mask) hits += m;
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(rounds * state.range(0));
}

void BM_ColumnScan(benchmark::State& state) {
  const Relation rel = ForceTagged(ColumnScanBenchInput(state.range(0)));
  ColumnScanLoop(state, rel);
}
BENCHMARK(BM_ColumnScan)->Arg(4096)->Arg(65536);

void BM_ColumnScan_Packed(benchmark::State& state) {
  const Relation rel = ColumnScanBenchInput(state.range(0));
  ColumnScanLoop(state, rel);
}
BENCHMARK(BM_ColumnScan_Packed)->Arg(4096)->Arg(65536);

// Multi-tuple erase: the maintenance delete sweeps remove a projected
// victim list from a view extent.  BM_ErasePerTuple is the historic
// one-full-scan-per-victim loop; BM_BatchedErase removes the same victims
// through one hash-bucketed scan + one compaction per column.
Relation EraseBenchInput(int64_t cardinality, std::vector<Tuple>* victims) {
  Random rng(53);
  GeneratorOptions gen;
  gen.cardinality = cardinality;
  gen.num_attributes = 2;
  gen.key_domain = cardinality;
  const Relation base = GenerateRelation("R", gen, &rng);
  for (int64_t row = 0; row < base.cardinality(); row += 8) {
    victims->push_back(base.TupleAt(row));
  }
  return base;
}

void BM_ErasePerTuple(benchmark::State& state) {
  std::vector<Tuple> victims;
  const Relation base = EraseBenchInput(state.range(0), &victims);
  int64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Relation rel = base;
    state.ResumeTiming();
    int64_t removed = 0;
    for (const Tuple& t : victims) removed += rel.Erase(t);
    benchmark::DoNotOptimize(removed);
    ++rounds;
  }
  state.SetItemsProcessed(rounds * static_cast<int64_t>(victims.size()));
}
BENCHMARK(BM_ErasePerTuple)->Arg(4096);

void BM_BatchedErase(benchmark::State& state) {
  std::vector<Tuple> victims;
  const Relation base = EraseBenchInput(state.range(0), &victims);
  int64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Relation rel = base;
    state.ResumeTiming();
    const int64_t removed = rel.EraseBatch(victims);
    benchmark::DoNotOptimize(removed);
    ++rounds;
  }
  state.SetItemsProcessed(rounds * static_cast<int64_t>(victims.size()));
}
BENCHMARK(BM_BatchedErase)->Arg(4096);

// One fact delete's derivations against a whole extent: a handful of
// victims (every row sharing one column-0 key) erased from an extent of
// N two-column rows.  The column-0 prefilter keeps the full-tuple hashing
// to the candidate rows, so the cost is one key-column hash scan plus the
// compaction.
void BM_EraseBatchFewVictims(benchmark::State& state) {
  Random rng(59);
  GeneratorOptions gen;
  gen.cardinality = state.range(0);
  gen.num_attributes = 2;
  gen.key_domain = state.range(0) / 4;
  const Relation base = GenerateRelation("R", gen, &rng);
  const Value key = base.ValueAt(base.cardinality() / 2, 0);
  std::vector<Tuple> victims;
  for (int64_t row = 0; row < base.cardinality(); ++row) {
    if (base.ValueAt(row, 0) == key) victims.push_back(base.TupleAt(row));
  }
  int64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Relation rel = base;
    state.ResumeTiming();
    const int64_t removed = rel.EraseBatch(victims);
    benchmark::DoNotOptimize(removed);
    ++rounds;
  }
  state.SetItemsProcessed(rounds * static_cast<int64_t>(victims.size()));
}
BENCHMARK(BM_EraseBatchFewVictims)->Arg(10000)->Arg(80000);

// Hash-index build: one Value hashed + one bucket append per row.
void BM_HashIndexBuild(benchmark::State& state) {
  Random rng(41);
  GeneratorOptions gen;
  gen.cardinality = state.range(0);
  gen.num_attributes = 2;
  gen.key_domain = state.range(0) / 2;
  const Relation rel = GenerateRelation("R", gen, &rng);
  int64_t rounds = 0;
  for (auto _ : state) {
    HashIndex index(rel, 0);
    benchmark::DoNotOptimize(index);
    ++rounds;
  }
  state.SetItemsProcessed(rounds * state.range(0));
}
BENCHMARK(BM_HashIndexBuild)->Arg(4096);

// Extent comparison with cached per-relation tuple-hash columns: after the
// first round both sides' hash columns are warm, so SetEquals only probes
// buckets.  This is the hot loop of the experiments' extent equivalence
// checks.
void BM_RelationSetEquals(benchmark::State& state) {
  Random rng(11);
  GeneratorOptions gen;
  gen.cardinality = state.range(0);
  gen.num_attributes = 3;
  gen.key_domain = state.range(0) / 2;
  const Relation a = GenerateRelation("R", gen, &rng);
  const Relation b = a;
  int64_t rounds = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetEquals(a, b));
    ++rounds;
  }
  state.SetItemsProcessed(rounds * state.range(0));
}
BENCHMARK(BM_RelationSetEquals)->Arg(1024)->Arg(4096);

// The parallel scenario sweep of the experiment drivers: the full
// six-relation distribution grid (all m) through the analytic cost model,
// across Arg threads.
void BM_ParallelCostSweep(benchmark::State& state) {
  const UniformParams params;
  const CostModelOptions options = MakeUniformOptions(params);
  std::vector<std::vector<int>> dists;
  for (int m = 1; m <= params.num_relations; ++m) {
    for (std::vector<int>& d : Compositions(params.num_relations, m)) {
      dists.push_back(std::move(d));
    }
  }
  const int threads = static_cast<int>(state.range(0));
  int64_t scenarios = 0;
  for (auto _ : state) {
    auto results = SweepSiteAveragedUpdateCost(dists, params, options, threads);
    benchmark::DoNotOptimize(results);
    scenarios += static_cast<int64_t>(dists.size());
  }
  state.SetItemsProcessed(scenarios);
}
BENCHMARK(BM_ParallelCostSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_IncrementalMaintenance(benchmark::State& state) {
  ExecFixture fixture(state.range(0));
  ViewMaintainer maintainer(fixture.space);
  Relation extent = maintainer.Recompute(fixture.view).value();
  Random rng(3);
  int64_t processed = 0;
  for (auto _ : state) {
    DataUpdate update{
        UpdateKind::kInsert, RelationId{"IS1", "R"},
        Tuple{Value(static_cast<int64_t>(rng.Uniform(state.range(0) / 2))),
              Value(static_cast<int64_t>(rng.Uniform(1000)))}};
    (void)fixture.space.ApplyDataUpdate(update);
    auto counters = maintainer.ProcessUpdate(fixture.view, update, &extent);
    benchmark::DoNotOptimize(counters);
    ++processed;
  }
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_IncrementalMaintenance)->Arg(256)->Arg(1024);

// --- Evolution-stream scenario (bench_util/scenario.h) -----------------------

ScenarioOptions EvolutionScenario() {
  ScenarioOptions scenario;
  scenario.views = 32;
  scenario.replicas_per_family = 8;
  scenario.snowflake = true;
  // Small extents: the stream measures metadata churn, not row movement.
  scenario.dimension_rows = 256;
  scenario.fact_rows = 256;
  return scenario;
}

// Replays a >=1k-event stream (capability changes + data updates + re-links)
// against 32 views over snowflake replica chains, with the per-event
// replaceability sweep every monitored warehouse runs.  With delta-aware
// invalidation the sweep's closures stay memoized across events (O(stream)
// total closure work); `selective = false` flips the MKB to whole-memo
// flushes, recomputing every closure after every capability change
// (O(stream^2)) -- the mode BM_EvolutionStream_FullFlush measures.
void RunEvolutionStream(benchmark::State& state, bool selective,
                        EveOptions eve_options = EveOptions{},
                        int partial_mirrors = 0) {
  ScenarioOptions scenario = EvolutionScenario();
  scenario.partial_mirrors = partial_mirrors;
  const int num_events = static_cast<int>(state.range(0));
  const std::vector<ScenarioEvent> stream =
      GenerateEventStream(scenario, num_events, scenario.seed + 1);
  eve_options.materialize = false;
  int64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = BuildScenarioSystem(scenario, eve_options).value();
    system->mkb().set_selective_invalidation(selective);
    state.ResumeTiming();
    auto result = ReplayScenario(*system, stream);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    events += result->events_applied;
  }
  state.SetItemsProcessed(events);
}

void BM_EvolutionStream(benchmark::State& state) {
  RunEvolutionStream(state, /*selective=*/true);
}
BENCHMARK(BM_EvolutionStream)->Arg(1024);

void BM_EvolutionStream_FullFlush(benchmark::State& state) {
  RunEvolutionStream(state, /*selective=*/false);
}
BENCHMARK(BM_EvolutionStream_FullFlush)->Arg(1024);

// The CVS-rich space (8 partial-coverage subset mirrors per family, the
// complementary-coverage pair material) under always-enumerate: the
// quadratic CVS pair fan-out every replica deletion triggers.  The policy
// pair below replays the identical stream with the Balanced decision layer
// capping exactly that fan-out -- BM_EvolutionStream_Fanout vs
// BM_EvolutionStream_Policy is the decision layer's end-to-end win.
void BM_EvolutionStream_Fanout(benchmark::State& state) {
  RunEvolutionStream(state, /*selective=*/true, EveOptions{},
                     /*partial_mirrors=*/8);
}
BENCHMARK(BM_EvolutionStream_Fanout)->Arg(1024);

// The same stream under the Balanced selective policy (policy/ pre-checks
// classify each (change, view) pair as skip / cap / full before the
// synchronizer enumerates).
void BM_EvolutionStream_Policy(benchmark::State& state) {
  RunEvolutionStream(state, /*selective=*/true,
                     BalancedPreset(),
                     /*partial_mirrors=*/8);
}
BENCHMARK(BM_EvolutionStream_Policy)->Arg(1024);

// Scenario construction alone: space + PC/JC declarations + views + one
// batched snapshot, and the deterministic stream generator.
void BM_ScenarioGen(benchmark::State& state) {
  const ScenarioOptions scenario = EvolutionScenario();
  EveOptions eve_options;
  eve_options.materialize = false;
  for (auto _ : state) {
    auto system = BuildScenarioSystem(scenario, eve_options).value();
    auto stream = GenerateEventStream(scenario, 1024, scenario.seed + 1);
    benchmark::DoNotOptimize(system);
    benchmark::DoNotOptimize(stream);
  }
}
BENCHMARK(BM_ScenarioGen);

// google-benchmark replaced Run::error_occurred with Run::skipped in 1.8;
// detect whichever member this library version has so the reporter builds
// against both.
template <typename R, typename = void>
struct HasSkippedMember : std::false_type {};
template <typename R>
struct HasSkippedMember<R,
                        std::void_t<decltype(std::declval<const R&>().skipped)>>
    : std::true_type {};

template <typename R>
bool RunFailedOrSkipped(const R& run) {
  if constexpr (HasSkippedMember<R>::value) {
    return static_cast<bool>(run.skipped);
  } else {
    return run.error_occurred;
  }
}

// Console reporting plus capture of every per-iteration run for the
// BENCH_micro.json side output.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || RunFailedOrSkipped(run)) continue;
      BenchRecord record;
      record.name = run.benchmark_name();
      record.ns_per_op = run.GetAdjustedRealTime();
      record.iterations = run.iterations;
      record.threads = run.threads;
      records_.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchRecord>& records() const { return records_; }

 private:
  std::vector<BenchRecord> records_;
};

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  eve::JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const char* path = std::getenv("EVE_BENCH_JSON_PATH");
  const eve::Status written = eve::WriteBenchJson(
      path != nullptr ? path : "BENCH_micro.json", reporter.records());
  if (!written.ok()) {
    fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}
