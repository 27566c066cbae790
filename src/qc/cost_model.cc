#include "qc/cost_model.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/str_util.h"

namespace eve {

int ViewCostInput::SiteCount() const {
  std::set<std::string> sites;
  for (const CostRelation& r : relations) sites.insert(r.id.site);
  return static_cast<int>(sites.size());
}

CostFactors& CostFactors::operator+=(const CostFactors& o) {
  messages += o.messages;
  bytes += o.bytes;
  ios += o.ios;
  return *this;
}

CostFactors CostFactors::operator*(double k) const {
  return CostFactors{messages * k, bytes * k, ios * k};
}

std::string CostFactors::ToString() const {
  return StrFormat("CF_M=%s CF_T=%s CF_IO=%s", FormatDouble(messages).c_str(),
                   FormatDouble(bytes).c_str(), FormatDouble(ios).c_str());
}

int64_t MessagesClosedForm(int num_sites,
                           int relations_at_origin_besides_updated) {
  const int m = num_sites;
  const int n1 = relations_at_origin_besides_updated;
  if (m <= 1) return n1 == 0 ? 0 : 2;
  return n1 == 0 ? 2 * (m - 1) : 2 * m;
}

Result<CostFactors> SingleUpdateCost(const ViewCostInput& input,
                                     size_t updated_index,
                                     const CostModelOptions& options) {
  if (updated_index >= input.relations.size()) {
    return Status::OutOfRange("updated relation index out of range");
  }
  if (input.join_selectivity <= 0.0) {
    return Status::InvalidArgument("join selectivity must be positive");
  }
  const CostRelation& updated = input.relations[updated_index];
  const double js = input.join_selectivity;

  // Visit order: the origin site first, then the remaining sites in order
  // of first appearance; within a site, relations in input order, excluding
  // the updated relation itself (paper Fig. 11).
  std::vector<std::string> site_order{updated.id.site};
  for (const CostRelation& r : input.relations) {
    if (std::find(site_order.begin(), site_order.end(), r.id.site) ==
        site_order.end()) {
      site_order.push_back(r.id.site);
    }
  }

  CostFactors cf;
  double card = 1.0;                                        // Delta cardinality.
  double width = static_cast<double>(updated.tuple_bytes);  // Delta width.
  // Delta cardinality for the I/O bound: the local optimizer sees every
  // matching tuple before selections are applied (no sigma damping); this
  // is the js^{i-1} * prod |R_j| factor of Eq. 33.
  double io_delta = 1.0;

  cf.bytes += width;  // Update notification (first term of Eq. 21).
  if (options.count_notification_message) cf.messages += 1;

  for (const std::string& site : site_order) {
    std::vector<const CostRelation*> rels;
    for (size_t i = 0; i < input.relations.size(); ++i) {
      if (i != updated_index && input.relations[i].id.site == site) {
        rels.push_back(&input.relations[i]);
      }
    }
    if (rels.empty()) continue;  // Origin site with n_i == 0: no query.

    cf.messages += 2;          // Single-site query + answer.
    cf.bytes += card * width;  // Delta shipped to the site.

    for (const CostRelation* r : rels) {
      // I/O of joining the incoming delta with r (Eq. 33): the cheaper of a
      // full scan and an index-assisted fetch of the matching tuples.
      const double scan =
          static_cast<double>(options.block.ScanIos(r->cardinality, r->tuple_bytes));
      double indexed = 0.0;
      switch (options.io_policy) {
        case IoBoundPolicy::kLower: {
          // Matching tuples are clustered: ceil(js|R|/bfr) blocks per probe.
          const double matched = js * static_cast<double>(r->cardinality);
          const int64_t blocks = CeilDiv(
              static_cast<int64_t>(std::ceil(matched)),
              options.block.BlockingFactor(r->tuple_bytes));
          indexed = io_delta * static_cast<double>(std::max<int64_t>(blocks, 1));
          break;
        }
        case IoBoundPolicy::kUpper:
          // One I/O per matching tuple (unclustered index).
          indexed = io_delta * js * static_cast<double>(r->cardinality);
          break;
      }
      cf.ios += std::min(scan, indexed);

      io_delta *= js * static_cast<double>(r->cardinality);
      card *= r->local_selectivity * js * static_cast<double>(r->cardinality);
      width += static_cast<double>(r->tuple_bytes);
    }
    cf.bytes += card * width;  // Result shipped back to the view site.
  }
  return cf;
}

namespace {

inline int FromSize(const ViewDefinition& v) {
  return static_cast<int>(v.from_items.size());
}
inline const FromItem& FromAt(const ViewDefinition& v, int i) {
  return v.from_items[i];
}
inline int FromSize(const DeltaView& v) { return v.from_size(); }
inline const FromItem& FromAt(const DeltaView& v, int i) { return v.from(i); }

// One implementation for the materialized definition and the compiled
// (base, delta) overlay; both read FROM items and local conjunctions only.
template <typename View>
Result<ViewCostInput> BuildCostInputImpl(
    const View& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids) {
  ViewCostInput input;
  input.join_selectivity = mkb.stats().join_selectivity();
  for (int i = 0; i < FromSize(view); ++i) {
    const FromItem& f = FromAt(view, i);
    EVE_ASSIGN_OR_RETURN(const RelationId id,
                         ResolvePricedRelation(f, mkb, renamed_ids));
    EVE_ASSIGN_OR_RETURN(RelationStats stats, mkb.stats().Get(id));
    CostRelation rel;
    rel.id = id;
    rel.cardinality = stats.cardinality;
    rel.tuple_bytes = stats.tuple_bytes;
    rel.local_selectivity =
        view.LocalConjunction(f.name()).IsTrue() ? 1.0 : stats.local_selectivity;
    input.relations.push_back(std::move(rel));
  }
  return input;
}

}  // namespace

Result<ViewCostInput> BuildCostInput(
    const ViewDefinition& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids) {
  return BuildCostInputImpl(view, mkb, renamed_ids);
}

Result<ViewCostInput> BuildCostInput(
    const DeltaView& view, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids) {
  return BuildCostInputImpl(view, mkb, renamed_ids);
}

Result<RelationId> ResolvePricedRelation(
    const FromItem& f, const MetaKnowledgeBase& mkb,
    const std::map<RelationId, RelationId>& renamed_ids) {
  for (const auto& [post, pre] : renamed_ids) {
    if (f.relation == post.relation && (f.site.empty() || f.site == post.site)) {
      return pre;
    }
  }
  if (!f.site.empty()) return RelationId{f.site, f.relation};
  return mkb.ResolveName(f.relation);
}

}  // namespace eve
