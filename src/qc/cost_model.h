// The analytic view-maintenance cost model (paper §6).
//
// For one data update originating at one of the view's base relations, the
// model propagates a delta relation site by site (the maintenance process
// of Fig. 11 / Algorithm 1) and accounts:
//   CF_M   -- messages exchanged (§6.2): one update notification plus a
//             query/answer round trip per visited site; the origin site is
//             visited only if it hosts further view relations,
//   CF_T   -- bytes transferred (Eq. 21/22): the delta starts as one tuple
//             of the updated relation's width; joining the relations of a
//             site multiplies its cardinality by sigma*js*|R| per relation
//             and widens each tuple by the relation's tuple size,
//   CF_IO  -- I/Os at the sources (Eq. 32/33): per join, the cheaper of a
//             full scan and an index-assisted fetch.  Eq. 33 brackets the
//             index cost between ceil(js|R|/bfr) lookups per delta tuple
//             (lower) and js|R| tuple fetches (upper); both bounds are
//             implemented (IoBoundPolicy).  The paper's Experiments 2/5
//             match the lower bound, Experiment 4 the upper bound.
//
// Cost(V) = CF_M * cost_M + CF_T * cost_T + CF_IO * cost_IO   (Eq. 24).

#ifndef EVE_QC_COST_MODEL_H_
#define EVE_QC_COST_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/names.h"
#include "common/result.h"
#include "esql/ast.h"
#include "esql/view_delta.h"
#include "misd/mkb.h"
#include "qc/parameters.h"
#include "storage/block_model.h"

namespace eve {

/// Which Eq. 33 bound the index-assisted join I/O estimate uses.
enum class IoBoundPolicy {
  kLower,  ///< ceil(js*|R| / bfr) block fetches per delta tuple (clustered).
  kUpper,  ///< js*|R| tuple fetches per delta tuple (unclustered).
};

/// Options of the analytic cost model.
struct CostModelOptions {
  IoBoundPolicy io_policy = IoBoundPolicy::kLower;
  /// Count the update notification as a message (the paper's experiments
  /// do; the closed formula of §6.2 does not).
  bool count_notification_message = true;
  /// Block layout for the I/O estimate (paper: 1000-byte blocks -> bfr 10).
  BlockModel block;
};

/// One base relation of a view, as the cost model sees it.
struct CostRelation {
  RelationId id;
  int64_t cardinality = 0;
  int64_t tuple_bytes = 100;
  /// Selectivity of the view's local condition on this relation (1.0 when
  /// the view has none).
  double local_selectivity = 1.0;
};

/// The cost-model input: the view's base relations in join order with their
/// site assignment (CostRelation::id.site) and the space-wide join
/// selectivity js (§6.1 assumption 3).
struct ViewCostInput {
  std::vector<CostRelation> relations;
  double join_selectivity = 0.005;

  /// Number of distinct sites.
  int SiteCount() const;
};

/// Cost factors of one data update (or totals over a workload).
struct CostFactors {
  double messages = 0;
  double bytes = 0;
  double ios = 0;

  /// Eq. 24 with the unit prices of `p`.
  double Weighted(const QcParameters& p) const {
    return messages * p.cost_message + bytes * p.cost_transfer +
           ios * p.cost_io;
  }

  CostFactors& operator+=(const CostFactors& o);
  CostFactors operator*(double k) const;

  std::string ToString() const;
};

/// Cost factors of a single data update originating at
/// `input.relations[updated_index]` (paper §6.1-6.4).
Result<CostFactors> SingleUpdateCost(const ViewCostInput& input,
                                     size_t updated_index,
                                     const CostModelOptions& options = {});

/// Builds the cost-model input of a view definition from MKB statistics:
/// each FROM item is resolved to its relation id, cardinality and width are
/// read from the statistics store, and the local selectivity is the
/// relation's registered selectivity when the view places at least one
/// local condition on it (1.0 otherwise).
///
/// `renamed_ids` is a rewriting's renamed_relation_ids: FROM items it names
/// by their post-change id are priced by the pre-change id (see
/// ResolvePricedRelation).
Result<ViewCostInput> BuildCostInput(
    const ViewDefinition& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids = {});

/// Delta-native variant over a compiled (base, delta) overlay
/// (esql/view_delta.h), so candidate scoring never materializes the view.
Result<ViewCostInput> BuildCostInput(
    const DeltaView& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids = {});

/// The relation whose MKB statistics price FROM item `f`.  An item that
/// `renamed_ids` (post-change -> pre-change id) renames resolves to its
/// pre-change id: a rename rewriting is ranked before the MKB learns the
/// new name, and a rename changes no statistics.  Otherwise a site-
/// qualified item is its own id and a bare name goes through
/// MetaKnowledgeBase::ResolveName.
Result<RelationId> ResolvePricedRelation(
    const FromItem& f, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids);

/// The closed-form message count of §6.2 (excludes the notification):
/// 0 / 2 / 2(m-1) / 2m depending on m and n1.
int64_t MessagesClosedForm(int num_sites, int relations_at_origin_besides_updated);

}  // namespace eve

#endif  // EVE_QC_COST_MODEL_H_
