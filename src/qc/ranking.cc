#include "qc/ranking.h"

#include <algorithm>
#include <numeric>

#include "common/parallel.h"
#include "common/str_util.h"
#include "esql/printer.h"

namespace eve {

std::vector<double> NormalizeCosts(const std::vector<double>& costs) {
  std::vector<double> out(costs.size(), 0.0);
  if (costs.empty()) return out;
  const auto [min_it, max_it] = std::minmax_element(costs.begin(), costs.end());
  const double lo = *min_it;
  const double hi = *max_it;
  if (hi - lo <= 0.0) return out;
  for (size_t i = 0; i < costs.size(); ++i) {
    out[i] = (costs[i] - lo) / (hi - lo);
  }
  return out;
}

QcModel::QcModel(QcParameters params, CostModelOptions cost_options,
                 WorkloadOptions workload)
    : params_(params), cost_options_(cost_options), workload_(workload) {}

namespace {

// Eq. 25/26 normalization + ordering over already-scored rewritings
// (shared by the materialized and the delta-native entry points).
std::vector<RankedRewriting> FinishRanking(std::vector<RankedRewriting> out,
                                           const QcParameters& params) {
  std::vector<double> costs;
  costs.reserve(out.size());
  for (const RankedRewriting& r : out) costs.push_back(r.weighted_cost);
  const std::vector<double> normalized = NormalizeCosts(costs);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].normalized_cost = normalized[i];
    out[i].qc = 1.0 - (params.rho_quality * out[i].quality.dd +
                       params.rho_cost * out[i].normalized_cost);
  }

  // Rank by descending QC; break ties by lower divergence, then input order.
  std::vector<size_t> order(out.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (out[a].qc != out[b].qc) return out[a].qc > out[b].qc;
    return out[a].quality.dd < out[b].quality.dd;
  });
  std::vector<RankedRewriting> sorted;
  sorted.reserve(out.size());
  for (size_t i = 0; i < order.size(); ++i) {
    out[order[i]].rank = static_cast<int>(i) + 1;
    sorted.push_back(std::move(out[order[i]]));
  }
  return sorted;
}

}  // namespace

Result<std::vector<RankedRewriting>> QcModel::Rank(
    const ViewDefinition& original, std::vector<Rewriting> rewritings,
    const MetaKnowledgeBase& mkb) const {
  EVE_RETURN_IF_ERROR(params_.Validate());
  std::vector<RankedRewriting> out;
  out.reserve(rewritings.size());
  for (Rewriting& rw : rewritings) {
    RankedRewriting ranked;
    EVE_ASSIGN_OR_RETURN(ranked.quality,
                         EstimateQuality(original, rw, mkb, params_));
    EVE_ASSIGN_OR_RETURN(ViewCostInput input,
                         BuildCostInput(rw.definition, mkb,
                                        rw.renamed_relation_ids));
    EVE_ASSIGN_OR_RETURN(ranked.cost,
                         ComputeWorkloadCost(input, workload_, cost_options_));
    ranked.weighted_cost = ranked.cost.Weighted(params_);
    ranked.rewriting = std::move(rw);
    out.push_back(std::move(ranked));
  }
  return FinishRanking(std::move(out), params_);
}

Result<std::vector<RankedRewriting>> QcModel::RankCandidates(
    const ViewDefinition& original, std::vector<RewriteCandidate> candidates,
    const MetaKnowledgeBase& mkb, int threads) const {
  EVE_RETURN_IF_ERROR(params_.Validate());
  const int64_t n = static_cast<int64_t>(candidates.size());
  // Candidate scores are independent (the MKB memos the scorers share are
  // internally synchronized), so wide fan-outs -- up to the synchronizer's
  // 256-candidate cap per view -- score under ParallelFor.  An explicit
  // `threads` wins; the default engages extra workers only when the set is
  // wide enough to amortize thread startup AND this call is not already
  // running inside a parallel sweep (the experiment drivers ParallelFor
  // their scenario loops; nesting would oversubscribe the machine).
  constexpr int64_t kParallelThreshold = 32;
  const int workers =
      threads > 0
          ? threads
          : (n >= kParallelThreshold && !InParallelRegion()
                 ? DefaultThreadCount()
                 : 1);
  std::vector<RankedRewriting> out(candidates.size());
  std::vector<Status> statuses(candidates.size(), Status::OK());
  ParallelFor(n, workers, [&](int64_t i) {
    RewriteCandidate& c = candidates[i];
    RankedRewriting& ranked = out[i];
    // Score over the compiled overlay; materialize once for the result.
    const DeltaView view = c.View();
    auto quality = EstimateQuality(original, c, view, mkb, params_);
    if (!quality.ok()) {
      statuses[i] = quality.status();
      return;
    }
    ranked.quality = std::move(quality).value();
    auto input = BuildCostInput(view, mkb, c.renamed_relation_ids);
    if (!input.ok()) {
      statuses[i] = input.status();
      return;
    }
    auto cost = ComputeWorkloadCost(*input, workload_, cost_options_);
    if (!cost.ok()) {
      statuses[i] = cost.status();
      return;
    }
    ranked.cost = std::move(cost).value();
    ranked.weighted_cost = ranked.cost.Weighted(params_);
    ranked.rewriting = std::move(c).ToRewriting(view.Materialize());
  });
  // First failure in candidate order wins, independent of scheduling.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return FinishRanking(std::move(out), params_);
}

std::string QcModel::FormatRanking(const std::vector<RankedRewriting>& ranking) {
  std::string out;
  out += StrFormat("%-5s %-8s %-8s %-10s %-9s %-8s  %s\n", "rank", "DD_attr",
                   "DD_ext", "Cost", "Cost*", "QC", "rewriting");
  for (const RankedRewriting& r : ranking) {
    out += StrFormat("%-5d %-8s %-8s %-10s %-9s %-8s  %s\n", r.rank,
                     FormatDouble(r.quality.dd_attr, 4).c_str(),
                     FormatDouble(r.quality.dd_ext, 4).c_str(),
                     FormatDouble(r.weighted_cost, 1).c_str(),
                     FormatDouble(r.normalized_cost, 4).c_str(),
                     FormatDouble(r.qc, 5).c_str(),
                     PrintViewCompact(r.rewriting.definition).c_str());
  }
  return out;
}

}  // namespace eve
