#include "qc/quality.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "algebra/common_subset.h"
#include "common/str_util.h"
#include "misd/overlap_estimator.h"
#include "qc/cost_model.h"

namespace eve {

std::string QualityBreakdown::ToString() const {
  return StrFormat(
      "DD_attr=%s DD_ext=%s (D1=%s, D2=%s) DD=%s%s",
      FormatDouble(dd_attr, 4).c_str(), FormatDouble(dd_ext, 4).c_str(),
      FormatDouble(dd_ext_d1, 4).c_str(), FormatDouble(dd_ext_d2, 4).c_str(),
      FormatDouble(dd, 4).c_str(), exact ? "" : " (approx)");
}

double InterfaceQuality(const ViewDefinition& view, const QcParameters& params) {
  double q = 0.0;
  for (const SelectItem& s : view.select_items) {
    if (!s.dispensable) continue;  // Categories C3/C4 carry no weight.
    q += s.replaceable ? params.w1 : params.w2;
  }
  return q;
}

namespace {

// Uniform FROM-item access over a materialized definition or a compiled
// (base, delta) overlay, so the size/overlap estimators below have exactly
// one implementation for both.
inline int FromSize(const ViewDefinition& v) {
  return static_cast<int>(v.from_items.size());
}
inline const FromItem& FromAt(const ViewDefinition& v, int i) {
  return v.from_items[i];
}
inline int FromSize(const DeltaView& v) { return v.from_size(); }
inline const FromItem& FromAt(const DeltaView& v, int i) { return v.from(i); }

// Q_Vi: dispensable attributes of the ORIGINAL view still exposed by the
// rewriting, weighted by their original category.  `View` is ViewDefinition
// or DeltaView (both expose FindSelect).
template <typename View>
double RewritingInterfaceQuality(const ViewDefinition& original,
                                 const View& rewriting,
                                 const QcParameters& params) {
  double q = 0.0;
  for (const SelectItem& s : original.select_items) {
    if (!s.dispensable) continue;
    if (rewriting.FindSelect(s.name()) != nullptr) {
      q += s.replaceable ? params.w1 : params.w2;
    }
  }
  return q;
}

double DdAttr(double q_original, double q_rewriting) {
  if (q_original <= 0.0) return 0.0;
  const double dd = (q_original - q_rewriting) / q_original;
  return std::clamp(dd, 0.0, 1.0);
}

void FillTotals(QualityBreakdown* q, const QcParameters& params) {
  q->dd_attr = DdAttr(q->q_original, q->q_rewriting);
  q->dd_ext = params.rho_d1 * q->dd_ext_d1 + params.rho_d2 * q->dd_ext_d2;
  q->dd = params.rho_attr * q->dd_attr + params.rho_ext * q->dd_ext;
}

template <typename View>
Result<double> EstimateViewSizeImpl(
    const View& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids) {
  double size = 1.0;
  const double js = mkb.stats().join_selectivity();
  int m = 0;
  for (int i = 0; i < FromSize(view); ++i) {
    const FromItem& f = FromAt(view, i);
    EVE_ASSIGN_OR_RETURN(const RelationId id,
                         ResolvePricedRelation(f, mkb, renamed_ids));
    EVE_ASSIGN_OR_RETURN(RelationStats stats, mkb.stats().Get(id));
    size *= static_cast<double>(stats.cardinality);
    if (!view.LocalConjunction(f.name()).IsTrue()) {
      size *= stats.local_selectivity;
    }
    ++m;
  }
  for (int i = 1; i < m; ++i) size *= js;
  return size;
}

}  // namespace

Result<double> EstimateViewSize(
    const ViewDefinition& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids) {
  return EstimateViewSizeImpl(view, mkb, renamed_ids);
}

Result<double> EstimateViewSize(
    const DeltaView& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids) {
  return EstimateViewSizeImpl(view, mkb, renamed_ids);
}

namespace {

// Estimated |V cap~ Vi|: the new view's size with each replaced relation's
// cardinality swapped for the PC-estimated overlap |R cap R'| (§5.4.3:
// "the size of the overlap is computed by the size of the overlap between
// the original and replacing relations, joined with any other relation
// that appears in the view query").
// Uniform edge access for the overlap loop: self-contained records embed
// the edge, lean candidate records borrow it.  The intersection estimator
// reads only the edge's type / selectivities / selections, which a CVS
// pair's reduced attribute map never changes, so both record forms produce
// identical estimates.
inline const PcEdge& EdgeOf(const ReplacementRecord& rec) { return rec.edge; }
inline const PcEdge& EdgeOf(const CandidateReplacement& rec) {
  return *rec.edge;
}

template <typename View, typename Record>
Result<std::pair<double, bool>> EstimateOverlapSize(
    const View& rewritten, const std::vector<Record>& replacements,
    const std::map<RelationId, RelationId>& renamed_ids,
    const MetaKnowledgeBase& mkb) {
  // Replacement overlap per replacement-relation id.
  std::map<RelationId, OverlapEstimate> overlap_of;
  bool exact = true;
  for (const Record& rec : replacements) {
    EVE_ASSIGN_OR_RETURN(OverlapEstimate est,
                         EstimateIntersection(mkb, EdgeOf(rec)));
    exact = exact && est.exact;
    overlap_of[rec.replacement] = est;
  }

  const double js = mkb.stats().join_selectivity();
  double size = 1.0;
  int m = 0;
  for (int i = 0; i < FromSize(rewritten); ++i) {
    const FromItem& f = FromAt(rewritten, i);
    EVE_ASSIGN_OR_RETURN(const RelationId id,
                         ResolvePricedRelation(f, mkb, renamed_ids));
    const auto it = overlap_of.find(id);
    if (it != overlap_of.end()) {
      size *= it->second.size;
    } else {
      EVE_ASSIGN_OR_RETURN(RelationStats stats, mkb.stats().Get(id));
      size *= static_cast<double>(stats.cardinality);
    }
    if (!rewritten.LocalConjunction(f.name()).IsTrue()) {
      EVE_ASSIGN_OR_RETURN(RelationStats stats, mkb.stats().Get(id));
      size *= stats.local_selectivity;
    }
    ++m;
  }
  for (int i = 1; i < m; ++i) size *= js;
  return std::make_pair(size, exact);
}

double SafeRatio(double num, double den) {
  if (den <= 0.0) return 0.0;
  return std::clamp(num / den, 0.0, 1.0);
}

// The shared estimation core (paper Eqs. 13-17): `view` is the rewriting's
// materialized definition or its compiled overlay, provenance is passed
// alongside so both entry points compute bit-identical numbers.
template <typename View, typename Record>
Result<QualityBreakdown> EstimateQualityImpl(
    const ViewDefinition& original, const View& view, ExtentRel extent_relation,
    bool extent_exact, const std::vector<Record>& replacements,
    const std::map<RelationId, RelationId>& renamed_ids,
    const MetaKnowledgeBase& mkb, const QcParameters& params) {
  EVE_RETURN_IF_ERROR(params.Validate());
  QualityBreakdown q;
  q.q_original = InterfaceQuality(original, params);
  q.q_rewriting = RewritingInterfaceQuality(original, view, params);

  // Extent divergence.  The known extent relationship short-circuits the
  // expensive overlap estimation (paper Eqs. 16/17: for subset/superset
  // rewritings only one term needs computing, from sizes alone).
  EVE_ASSIGN_OR_RETURN(const double size_old, EstimateViewSize(original, mkb));
  EVE_ASSIGN_OR_RETURN(const double size_new,
                       EstimateViewSizeImpl(view, mkb, renamed_ids));
  q.exact = extent_exact;
  switch (extent_relation) {
    case ExtentRel::kEqual:
      q.dd_ext_d1 = 0.0;
      q.dd_ext_d2 = 0.0;
      break;
    case ExtentRel::kSubset:
      // All new tuples are old ones: |V cap Vi| = |Vi| (Eq. 16).
      q.dd_ext_d1 = 1.0 - SafeRatio(size_new, size_old);
      q.dd_ext_d2 = 0.0;
      break;
    case ExtentRel::kSuperset:
      // All old tuples survive: |V cap Vi| = |V| (Eq. 17).
      q.dd_ext_d1 = 0.0;
      q.dd_ext_d2 = 1.0 - SafeRatio(size_old, size_new);
      break;
    case ExtentRel::kUnknown: {
      EVE_ASSIGN_OR_RETURN(const auto overlap,
                           EstimateOverlapSize(view, replacements, renamed_ids,
                                               mkb));
      q.exact = q.exact && overlap.second;
      q.dd_ext_d1 = 1.0 - SafeRatio(overlap.first, size_old);
      q.dd_ext_d2 = 1.0 - SafeRatio(overlap.first, size_new);
      break;
    }
  }
  FillTotals(&q, params);
  return q;
}

}  // namespace

Result<QualityBreakdown> EstimateQuality(const ViewDefinition& original,
                                         const Rewriting& rewriting,
                                         const MetaKnowledgeBase& mkb,
                                         const QcParameters& params) {
  return EstimateQualityImpl(original, rewriting.definition,
                             rewriting.extent_relation, rewriting.extent_exact,
                             rewriting.replacements,
                             rewriting.renamed_relation_ids, mkb, params);
}

Result<QualityBreakdown> EstimateQuality(const ViewDefinition& original,
                                         const RewriteCandidate& candidate,
                                         const DeltaView& view,
                                         const MetaKnowledgeBase& mkb,
                                         const QcParameters& params) {
  return EstimateQualityImpl(original, view, candidate.extent_relation,
                             candidate.extent_exact, candidate.replacements,
                             candidate.renamed_relation_ids, mkb, params);
}

Result<QualityBreakdown> MeasureQuality(const ViewDefinition& original,
                                        const Rewriting& rewriting,
                                        const Relation& old_extent,
                                        const Relation& new_extent,
                                        const QcParameters& params) {
  EVE_RETURN_IF_ERROR(params.Validate());
  QualityBreakdown q;
  q.q_original = InterfaceQuality(original, params);
  q.q_rewriting =
      RewritingInterfaceQuality(original, rewriting.definition, params);

  if (CommonAttributes(old_extent, new_extent).empty()) {
    // Disjoint interfaces: complete extent divergence.
    q.dd_ext_d1 = 1.0;
    q.dd_ext_d2 = 1.0;
  } else {
    EVE_ASSIGN_OR_RETURN(CommonSubsetCounts counts,
                         CountCommonSubset(old_extent, new_extent));
    q.dd_ext_d1 =
        counts.a_projected == 0
            ? 0.0
            : 1.0 - static_cast<double>(counts.intersection) /
                        static_cast<double>(counts.a_projected);
    q.dd_ext_d2 =
        counts.b_projected == 0
            ? 0.0
            : 1.0 - static_cast<double>(counts.intersection) /
                        static_cast<double>(counts.b_projected);
  }
  FillTotals(&q, params);
  return q;
}

}  // namespace eve
