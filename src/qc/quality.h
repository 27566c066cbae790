// The quality side of the QC-Model: the Degree of Divergence DD (paper §5).
//
//   DD_attr (§5.4.1): interface divergence.  Dispensable attributes of the
//     original view fall into category C1 (replaceable, weight w1) or C2
//     (non-replaceable, weight w2); Q_V = |A1|w1 + |A2|w2 and
//     DD_attr = (Q_V - Q_Vi) / Q_V (0 when Q_V = 0).
//
//   DD_ext (§5.4.2, Eqs. 13-17): extent divergence.
//     D1 = |V \~ Vi| / |V^(Vi)|    (lost tuples, relative to the old view)
//     D2 = |Vi \~ V| / |Vi^(V)|    (surplus tuples, relative to the new view)
//     DD_ext = rho_d1 * D1 + rho_d2 * D2.
//
//   DD = rho_attr * DD_attr + rho_ext * DD_ext   (Eq. 20).
//
// Two computation paths are provided:
//   * EstimateQuality -- from MKB statistics, PC-constraint overlap
//     estimation (§5.4.3, Figs. 9/10) and the rewriting's provenance; this
//     is what the paper's experiments use;
//   * MeasureQuality  -- from materialized extents, using the Fig.-7
//     common-subset operators (the ground truth the estimator approximates).

#ifndef EVE_QC_QUALITY_H_
#define EVE_QC_QUALITY_H_

#include <map>
#include <string>

#include "common/result.h"
#include "esql/ast.h"
#include "esql/view_delta.h"
#include "misd/mkb.h"
#include "qc/parameters.h"
#include "storage/relation.h"
#include "synch/partial.h"
#include "synch/rewriting.h"

namespace eve {

/// The quality measures of one rewriting.
struct QualityBreakdown {
  double q_original = 0;   ///< Q_V (Eq. 12 applied to the original view).
  double q_rewriting = 0;  ///< Q_Vi.
  double dd_attr = 0;      ///< Interface divergence.
  double dd_ext_d1 = 0;    ///< Lost-tuple divergence D1.
  double dd_ext_d2 = 0;    ///< Surplus-tuple divergence D2.
  double dd_ext = 0;       ///< rho_d1 * D1 + rho_d2 * D2.
  double dd = 0;           ///< Total degree of divergence (Eq. 20).
  /// True when every extent quantity involved was exact (estimation path
  /// only; the measured path is always exact).
  bool exact = true;

  std::string ToString() const;
};

/// Q_V of Eq. 12: the weighted count of dispensable attributes.
double InterfaceQuality(const ViewDefinition& view, const QcParameters& params);

/// Estimates the quality of `rewriting` against `original` from MKB
/// statistics and the rewriting's provenance (no data access).
Result<QualityBreakdown> EstimateQuality(const ViewDefinition& original,
                                         const Rewriting& rewriting,
                                         const MetaKnowledgeBase& mkb,
                                         const QcParameters& params);

/// Delta-native variant: scores a (base, delta) candidate directly over its
/// compiled overlay, so quality estimation never forces materialization.
/// `view` must be `candidate`'s compiled overlay (candidate.View()).
/// Produces bit-identical numbers to scoring the materialized rewriting.
Result<QualityBreakdown> EstimateQuality(const ViewDefinition& original,
                                         const RewriteCandidate& candidate,
                                         const DeltaView& view,
                                         const MetaKnowledgeBase& mkb,
                                         const QcParameters& params);

/// Computes the quality from materialized extents (ground truth).
/// `old_extent` / `new_extent` must carry the views' interface schemas.
Result<QualityBreakdown> MeasureQuality(const ViewDefinition& original,
                                        const Rewriting& rewriting,
                                        const Relation& old_extent,
                                        const Relation& new_extent,
                                        const QcParameters& params);

/// Estimated extent size of a view: js^(m-1) * prod |R_i| * prod sigma_i,
/// with sigma_i applied only for relations the view locally restricts
/// (§5.4.3, "the size of a view can be estimated by looking at its view
/// definition").
/// `renamed_ids` as for BuildCostInput (qc/cost_model.h).
Result<double> EstimateViewSize(
    const ViewDefinition& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids = {});

/// Delta-native variant over a compiled (base, delta) overlay.
Result<double> EstimateViewSize(
    const DeltaView& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids = {});

}  // namespace eve

#endif  // EVE_QC_QUALITY_H_
