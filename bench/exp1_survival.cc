// Experiment 1 (paper §7.1, Figure 12): "survival" of a view.
//
// V0 = SELECT R.A (AD=true, AR=true), R.B (AD=true) FROM R (RR=true);
// MKB: pi_A(R) c pi_A(S), pi_A(R) c pi_A(T).  Capability change 1 deletes
// R.A; the three legal rewritings are V1 (keep A from S), V2 (keep A from
// T), V3 (keep B from R).  The interface weights decide:
//   * w1 > w2 (default 0.7/0.3): EVE keeps the REPLACEABLE attribute A --
//     when the adopted host is later deleted, the sibling still saves the
//     view (alive after two changes);
//   * w2 > w1: EVE keeps the NON-replaceable B -- the next change kills
//     the view.
// The harness replays both branches of Fig. 12's life-span tree.

#include <cstdio>

#include "bench_util/experiment_common.h"
#include "bench_util/policy_flag.h"
#include "bench_util/table_printer.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "esql/printer.h"
#include "eve/eve_system.h"

using namespace eve;

namespace {

// The --policy / EVE_POLICY preset (bench_util/policy_flag.h); the default
// options when unset, in which case the driver behaves exactly as before.
EveOptions g_options;

Relation MakeRelation(const std::string& name,
                      const std::vector<std::string>& attrs, int64_t rows) {
  std::vector<Attribute> schema;
  for (const std::string& a : attrs) {
    schema.push_back(Attribute::Make(a, DataType::kInt64, 50));
  }
  Relation rel(name, Schema(std::move(schema)));
  for (int64_t i = 0; i < rows; ++i) {
    Tuple t;
    for (size_t c = 0; c < attrs.size(); ++c) t.Append(Value(i * 10 + static_cast<int64_t>(c)));
    rel.InsertUnchecked(std::move(t));
  }
  return rel;
}

struct BranchResult {
  std::string after_change1;
  std::string after_change2;
  std::vector<std::string> trace;
};

BranchResult RunBranch(double w1, double w2) {
  BranchResult result;
  EveSystem eve(g_options);
  eve.options().qc.w1 = w1;
  eve.options().qc.w2 = w2;
  eve.options().materialize = false;

  (void)eve.RegisterRelation("IS1", MakeRelation("R", {"A", "B"}, 100), 1.0);
  (void)eve.RegisterRelation("IS2", MakeRelation("S", {"A", "C"}, 120), 1.0);
  (void)eve.RegisterRelation("IS3", MakeRelation("T", {"A", "D"}, 140), 1.0);
  (void)eve.AddPcConstraint(MakeProjectionPc(
      {"IS1", "R"}, {"IS2", "S"}, {"A"}, PcRelationType::kSubset));
  (void)eve.AddPcConstraint(MakeProjectionPc(
      {"IS1", "R"}, {"IS3", "T"}, {"A"}, PcRelationType::kSubset));
  (void)eve.DefineView(
      "CREATE VIEW V0 AS SELECT R.A (AD=true, AR=true), R.B (AD=true) "
      "FROM R (RR=true)");

  // Change 1: delete R.A.
  const auto first = eve.NotifySchemaChange(
      SchemaChange(DeleteAttribute{RelationId{"IS1", "R"}, "A"}));
  if (!first.ok()) {
    result.after_change1 = "error: " + first.status().ToString();
    return result;
  }
  for (const auto& vr : first->views) {
    for (const auto& ranked : vr.ranking) {
      result.trace.push_back(StrFormat(
          "  rank %d  QC=%s  %s", ranked.rank,
          FormatDouble(ranked.qc, 4).c_str(),
          PrintViewCompact(ranked.rewriting.definition).c_str()));
    }
  }
  const auto def1 = eve.GetViewDefinition("V0");
  result.after_change1 = def1.ok() ? PrintViewCompact(*def1) : "(dead)";
  if (eve.GetViewState("V0").value_or(ViewState::kDead) == ViewState::kDead) {
    result.after_change2 = "(already dead)";
    return result;
  }

  // Change 2: delete whatever the view now depends on.
  const std::string host = def1->from_items[0].relation;
  const std::string site = host == "S"   ? "IS2"
                           : host == "T" ? "IS3"
                                         : "IS1";
  const auto second = eve.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{site, host}}));
  if (!second.ok()) {
    result.after_change2 = "error: " + second.status().ToString();
    return result;
  }
  if (eve.GetViewState("V0").value_or(ViewState::kDead) == ViewState::kDead) {
    result.after_change2 = "(deceased)";
  } else {
    result.after_change2 = PrintViewCompact(*eve.GetViewDefinition("V0"));
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto preset = PolicyFromFlags(argc, argv);
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 2;
  }
  if (preset->has_value()) g_options = (*preset)->options;

  std::printf("%s", Banner("Experiment 1 / Figure 12: survival of a view").c_str());
  std::printf(
      "V0 = SELECT R.A (AD,AR), R.B (AD) FROM R (RR); MKB: pi_A(R) c pi_A(S),\n"
      "pi_A(R) c pi_A(T).  Change 1: delete R.A.  Change 2: delete the\n"
      "adopted host relation.\n\n");

  // The two weight branches replay independent EveSystems, so they run
  // across ParallelFor workers (the mutex-guarded MKB closure memos make
  // the synchronize rounds thread-safe); results print in branch order, so
  // stdout is byte-identical to the serial run.
  const struct {
    const char* header;
    double w1, w2;
  } branches[] = {
      {"--- branch w1 > w2 (0.7 / 0.3): prefer replaceable A ---\n", 0.7, 0.3},
      {"--- branch w2 > w1 (0.3 / 0.7): prefer non-replaceable B ---\n", 0.3,
       0.7},
  };
  // Optional --deadline_ms= / EVE_DEADLINE_MS governance, polled between
  // branches; unlimited (and stdout byte-identical) when unset.
  BranchResult results[2];
  ExitIfDeadline(ParallelForStatus(
      2, SweepThreads(argc, argv),
      [&](int64_t i) -> Status {
        results[i] = RunBranch(branches[i].w1, branches[i].w2);
        return Status::OK();
      },
      ExperimentContext(argc, argv)));
  for (int i = 0; i < 2; ++i) {
    const BranchResult& r = results[i];
    std::printf("%s", branches[i].header);
    std::printf("legal rewritings after change 1:\n");
    for (const std::string& line : r.trace) std::printf("%s\n", line.c_str());
    std::printf("adopted:        %s\n", r.after_change1.c_str());
    std::printf("after change 2: %s\n\n", r.after_change2.c_str());
  }

  std::printf(
      "Life-span tree (Fig. 12): with w1 > w2 the view is still alive after\n"
      "two capability changes (V0 -> V1 -> V2); with w2 > w1 it adopts V3\n"
      "and the second change leaves it deceased.  This supports the\n"
      "default setting w1 > w2.\n");
  return 0;
}
