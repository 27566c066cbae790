// Copy-on-write rewriting enumeration (the default pipeline).
//
// Candidates are (shared base, RewriteDelta op log) pairs -- see
// synch/partial.h -- so deriving a strategy candidate copies a handful of
// ops and provenance strings instead of the whole ViewDefinition, and
// candidates pruned by legality, structural deduplication, or the result
// cap are never materialized at all.  The legality check and the
// structural hash both run over the compiled DeltaView overlay.
//
// Every strategy mirrors the eager implementation
// (synchronizer_eager.cc) op for op: drops are recorded in descending
// component order, substitutions override items in place, and appended
// FROM items / conditions keep their append order, so the materialized
// survivors are byte-identical to the eager oracle's output (asserted by
// the corpus equivalence tests).

#include "synch/synchronizer.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "synch/legality.h"
#include "synch/partial.h"

namespace eve {

namespace {

// A partially synchronized candidate: the (base, ops) candidate plus its
// compiled overlay.  The overlay borrows the op log's storage, so every
// copy/move re-Syncs it against the new owner's log (a pointer repoint --
// the op contents are identical).
struct Partial {
  RewriteCandidate cand;
  DeltaView view;

  explicit Partial(std::shared_ptr<const ViewDefinition> base) : view(*base) {
    cand.base = std::move(base);
  }

  Partial(const Partial& o) : cand(o.cand), view(o.view) {
    // Strategy derivation appends a handful of ops right after copying;
    // reserving once here avoids the variant-moving growth reallocations.
    cand.ops.reserve(cand.ops.size() + 8);
    view.Sync(cand.ops);
  }
  // Moves steal the op log's buffer, so the overlay's borrowed pointer
  // stays valid and no re-Sync is needed.
  Partial(Partial&&) noexcept = default;
  Partial& operator=(Partial&&) noexcept = default;
  Partial& operator=(const Partial& o) {
    cand = o.cand;
    view = o.view;
    view.Sync(cand.ops);
    return *this;
  }

  void Push(RewriteDelta d) {
    cand.ops.push_back(std::move(d));
    view.Sync(cand.ops);
  }

  // In-place op construction: payload-carrying ops are built directly in
  // the log slot (one item copy total, no variant move chain).  The op is
  // invisible to the overlay until Commit().
  RewriteDelta& StartOp(RewriteDelta::Kind kind, int32_t id) {
    cand.ops.push_back(RewriteDelta{kind, id, std::monostate{}});
    return cand.ops.back();
  }
  void Commit() { view.Sync(cand.ops); }

  void Compose(ExtentRel r, bool r_exact) { cand.Compose(r, r_exact); }
};

std::string FreshFromName(const DeltaView& view, const std::string& base) {
  if (view.FindFrom(base) == nullptr) return base;
  for (int i = 2;; ++i) {
    const std::string candidate = StrFormat("%s_%d", base.c_str(), i);
    if (view.FindFrom(candidate) == nullptr) return candidate;
  }
}

// References (SELECT items / WHERE clauses) of `from_name` within `view`,
// by stable delta id.  Ids are monotone in effective position, so ordering
// by id reproduces the eager pipeline's index ordering exactly.
struct References {
  std::vector<int32_t> select_ids;  ///< Items sourced from it.
  std::vector<int32_t> where_ids;   ///< Clauses touching it.
  std::set<std::string> attributes;  ///< Attribute names used.
};

References CollectReferences(const DeltaView& view,
                             const std::string& from_name) {
  References out;
  for (int i = 0; i < view.select_size(); ++i) {
    const SelectItem& s = view.select(i);
    if (s.source.relation == from_name) {
      out.select_ids.push_back(view.select_id(i));
      out.attributes.insert(s.source.attribute);
    }
  }
  for (int i = 0; i < view.where_size(); ++i) {
    const ConditionItem& c = view.where(i);
    if (c.clause.References(from_name)) {
      out.where_ids.push_back(view.where_id(i));
      for (const RelAttr& a : c.clause.Attributes()) {
        if (a.relation == from_name) out.attributes.insert(a.attribute);
      }
    }
  }
  return out;
}

// Removes the SELECT items / WHERE clauses with the given ids, recording
// drops in descending order (the eager pipeline erased from the back) and
// extent contributions.  A dropped local or join condition widens the
// extent (superset); a dropped SELECT item leaves the extent on the common
// attributes untouched.
void ApplyDrops(Partial* p, std::vector<int32_t> select_ids,
                std::vector<int32_t> where_ids) {
  std::sort(select_ids.rbegin(), select_ids.rend());
  for (const int32_t id : select_ids) {
    p->cand.dropped_attributes.push_back(p->view.select_by_id(id).name());
    p->Push(RewriteDelta::DropSelect(id));
  }
  std::sort(where_ids.rbegin(), where_ids.rend());
  for (const int32_t id : where_ids) {
    p->cand.dropped_conditions.push_back(
        p->view.where_by_id(id).clause.ToString());
    p->Push(RewriteDelta::DropCondition(id));
    p->Compose(ExtentRel::kSuperset, /*exact=*/true);
  }
}

// Live component ids, snapshotted so edit loops never re-walk a dirty
// overlay per access.
std::vector<int32_t> LiveSelectIds(const DeltaView& view) {
  std::vector<int32_t> ids(view.select_size());
  for (int i = 0; i < view.select_size(); ++i) ids[i] = view.select_id(i);
  return ids;
}

std::vector<int32_t> LiveWhereIds(const DeltaView& view) {
  std::vector<int32_t> ids(view.where_size());
  for (int i = 0; i < view.where_size(); ++i) ids[i] = view.where_id(i);
  return ids;
}

// Rewrites surviving references through `subst`: SELECT items found in the
// map get their exposed name pinned and their source swapped; every WHERE
// clause is substituted (a no-op substitution appends no op).  Mirrors the
// eager post-drop substitution loops.  Set ops never change liveness, so
// iterating by position while pushing is safe and Reindex-free.
void SubstituteAll(Partial* p, const std::map<RelAttr, RelAttr>& subst) {
  const int select_n = p->view.select_size();
  for (int i = 0; i < select_n; ++i) {
    const SelectItem& s = p->view.select(i);
    const auto it = subst.find(s.source);
    if (it == subst.end()) continue;
    // Copy before StartOp: an overlay reference may resolve into the op
    // log, which StartOp's push_back can reallocate.
    SelectItem ns = s;
    // Keep the exposed interface name stable across the substitution.
    if (ns.output_name.empty()) ns.output_name = ns.source.attribute;
    ns.source = it->second;
    RewriteDelta& op =
        p->StartOp(RewriteDelta::Kind::kSetSelect, p->view.select_id(i));
    op.payload.emplace<SelectItem>(std::move(ns));
    p->Commit();
  }
  const int where_n = p->view.where_size();
  for (int i = 0; i < where_n; ++i) {
    const ConditionItem& c = p->view.where(i);
    // Substitute only clauses that actually reference a substituted
    // attribute; untouched clauses stay shared with the base.
    const bool touched =
        subst.count(c.clause.lhs) > 0 ||
        (c.clause.rhs_is_attr() && subst.count(c.clause.rhs_attr()) > 0);
    if (!touched) continue;
    ConditionItem nc = c;  // Copy before StartOp (see above).
    nc.clause = nc.clause.Substitute(subst);
    RewriteDelta& op =
        p->StartOp(RewriteDelta::Kind::kSetCondition, p->view.where_id(i));
    op.payload.emplace<ConditionItem>(std::move(nc));
    p->Commit();
  }
}

}  // namespace

namespace {

// Enumeration output: the surviving partials with their compiled overlays,
// so consumers can materialize straight from the overlay (Synchronize) or
// strip it (SynchronizeCandidates).
struct PartialSet {
  bool affected = false;
  std::vector<Partial> partials;
  // Set when a governed enumeration stopped early (candidate budget or
  // deadline): `partials` holds the legal best-so-far candidates.
  bool truncated = false;
  std::string truncation_reason;
  int64_t candidates_considered = 0;
};

}  // namespace

class ViewSynchronizer::Impl {
 public:
  Impl(const MetaKnowledgeBase& mkb, const SynchronizerOptions& options,
       const ViewDefinition& view, const SchemaChange& change,
       const ExecContext& ctx)
      : mkb_(mkb),
        options_(options),
        original_(std::make_shared<const ViewDefinition>(view)),
        change_(change),
        ctx_(ctx) {}

  Result<PartialSet> Run() {
    EVE_FAULT_POINT("synch.run");
    PartialSet result;
    EVE_RETURN_IF_ERROR(original_->Validate());

    const RelationId& changed = ChangedRelation(change_);
    const std::vector<std::string> affected_names = AffectedFromNames(changed);

    if (std::holds_alternative<AddAttribute>(change_) ||
        std::holds_alternative<AddRelation>(change_)) {
      return result;  // Additions never invalidate existing views.
    }

    const DeltaView original_view(*original_);

    if (const auto* ra = std::get_if<RenameAttribute>(&change_)) {
      bool uses = false;
      for (const std::string& fn : affected_names) {
        const References refs = CollectReferences(original_view, fn);
        uses = uses || refs.attributes.count(ra->from) > 0;
      }
      if (!uses) return result;
      std::vector<Partial> partials;
      partials.push_back(RenameAttributeCandidate(*ra, affected_names));
      return Finish(/*affected=*/true, std::move(partials));
    }

    if (const auto* rr = std::get_if<RenameRelation>(&change_)) {
      if (affected_names.empty()) return result;
      std::vector<Partial> partials;
      partials.push_back(RenameRelationCandidate(*rr, affected_names));
      return Finish(/*affected=*/true, std::move(partials));
    }

    std::optional<std::string> deleted_attr;
    if (const auto* da = std::get_if<DeleteAttribute>(&change_)) {
      deleted_attr = da->attribute;
    }

    // delete-attribute / delete-relation: fold strategies over the affected
    // FROM items.
    std::vector<std::string> to_fix;
    for (const std::string& fn : affected_names) {
      if (deleted_attr.has_value()) {
        const References refs = CollectReferences(original_view, fn);
        if (refs.attributes.count(*deleted_attr) > 0) to_fix.push_back(fn);
      } else {
        to_fix.push_back(fn);
      }
    }
    if (to_fix.empty()) return result;

    std::vector<Partial> partials;
    partials.emplace_back(original_);
    const size_t rounds = to_fix.size();
    for (size_t fi = 0; fi < rounds && !partials.empty(); ++fi) {
      // Governance: a budget/deadline stop mid-fold abandons the remaining
      // rounds; Finish() then reports whatever was fully resolved so far
      // (unresolved partials fail legality or are dropped) with the
      // truncated flag set.  A hard error (cancellation, injected fault)
      // propagates from Finish() instead.
      if (StopRequested()) break;
      // The last fold round streams straight into the legality / dedup /
      // cap sink (unless drop-subset enumeration still needs the full
      // candidate set): enumeration stops the moment the cap is full.
      if (fi + 1 == rounds && !options_.enumerate_drop_subsets) {
        FinishSink sink(*this);
        for (const Partial& p : partials) {
          if (sink.full()) break;
          ResolveItem(p, to_fix[fi], deleted_attr, &sink);
        }
        EVE_RETURN_IF_ERROR(hard_error_);
        result.affected = true;
        result.partials = sink.Take();
        result.truncated = truncated_;
        result.truncation_reason = truncation_reason_;
        result.candidates_considered = considered_;
        return result;
      }
      std::vector<Partial> next;
      CollectSink collect{this, &next};
      for (const Partial& p : partials) {
        if (collect.full()) break;
        ResolveItem(p, to_fix[fi], deleted_attr, &collect);
      }
      partials = std::move(next);
    }
    if (options_.enumerate_drop_subsets) EnumerateDropSubsets(&partials);
    return Finish(/*affected=*/true, std::move(partials));
  }

 private:
  // ---------------------------------------------------------------------
  // Affectedness & renames
  // ---------------------------------------------------------------------

  std::vector<std::string> AffectedFromNames(const RelationId& changed) const {
    std::vector<std::string> out;
    for (const FromItem& f : original_->from_items) {
      if (f.relation != changed.relation) continue;
      if (!f.site.empty() && f.site != changed.site) continue;
      out.push_back(f.name());
    }
    return out;
  }

  Partial RenameAttributeCandidate(
      const RenameAttribute& ra,
      const std::vector<std::string>& from_names) const {
    Partial p(original_);
    std::map<RelAttr, RelAttr> subst;
    for (const std::string& fn : from_names) {
      subst[RelAttr{fn, ra.from}] = RelAttr{fn, ra.to};
    }
    SubstituteAll(&p, subst);
    p.cand.strategies.push_back("rename");
    p.cand.notes.push_back(NoteTemplate::AttributeRenamed(ra.from, ra.to));
    p.cand.renamed_attributes = std::move(subst);
    return p;
  }

  Partial RenameRelationCandidate(
      const RenameRelation& rr,
      const std::vector<std::string>& from_names) const {
    Partial p(original_);
    std::map<std::string, std::string> rel_map;
    for (int i = 0; i < p.view.from_size(); ++i) {
      const FromItem& f = p.view.from(i);
      if (f.relation != rr.relation.relation) continue;
      if (!f.site.empty() && f.site != rr.relation.site) continue;
      const std::string old_name = f.name();
      // Copy before StartOp: an overlay reference may resolve into the op
      // log, which StartOp's push_back can reallocate.
      FromItem nf = f;
      nf.relation = rr.new_name;
      if (f.alias.empty()) rel_map[old_name] = rr.new_name;
      RewriteDelta& op =
          p.StartOp(RewriteDelta::Kind::kReplaceFrom, p.view.from_id(i));
      op.payload.emplace<FromItem>(std::move(nf));
      p.Commit();
    }
    for (const int32_t id : LiveSelectIds(p.view)) {
      const SelectItem& s = p.view.select_by_id(id);
      const auto it = rel_map.find(s.source.relation);
      if (it == rel_map.end()) continue;
      SelectItem ns = s;  // Copy before StartOp (see above).
      ns.source.relation = it->second;
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kSetSelect, id);
      op.payload.emplace<SelectItem>(std::move(ns));
      p.Commit();
    }
    for (const int32_t id : LiveWhereIds(p.view)) {
      const ConditionItem& c = p.view.where_by_id(id);
      PrimitiveClause renamed = c.clause.RenameRelations(rel_map);
      if (renamed == c.clause) continue;
      ConditionItem nc = c;  // Copy before StartOp (see above).
      nc.clause = std::move(renamed);
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kSetCondition, id);
      op.payload.emplace<ConditionItem>(std::move(nc));
      p.Commit();
    }
    (void)from_names;
    p.cand.strategies.push_back("rename");
    p.cand.notes.push_back(
        NoteTemplate::RelationRenamed(rr.relation, rr.new_name));
    p.cand.renamed_relations = std::move(rel_map);
    p.cand.renamed_relation_ids[RelationId{rr.relation.site, rr.new_name}] =
        rr.relation;
    return p;
  }

  // ---------------------------------------------------------------------
  // Per-item resolution
  // ---------------------------------------------------------------------

  template <typename Sink>
  void ResolveItem(const Partial& base, const std::string& from_name,
                   const std::optional<std::string>& attr, Sink* out) const {
    auto append = [out](std::optional<Partial> p) {
      if (p.has_value()) out->Offer(std::move(*p));
    };

    // Collected once per (partial, FROM item); every strategy below reads
    // the same reference set instead of re-scanning the overlay.
    const References refs = CollectReferences(base.view, from_name);

    if (attr.has_value()) {
      append(DropStrategyForAttribute(base, from_name, *attr));
      if (options_.strategies.Has(Strategy::kJoinIn) && !out->full()) {
        JoinInStrategies(base, from_name, *attr, out);
      }
    } else {
      append(DropStrategyForRelation(base, from_name, refs));
    }
    if (options_.strategies.Has(Strategy::kReplaceRelation) && !out->full()) {
      ReplaceRelationStrategies(base, from_name, out);
    }
    if (options_.strategies.Has(Strategy::kCvsPair) && !out->full()) {
      CvsPairStrategies(base, from_name, refs, out);
    }
  }

  // --- Drop strategies ---------------------------------------------------

  // delete-attribute: drop exactly the references to from_name.attr.  All
  // eligibility checks run over the parent's overlay; the child candidate
  // is only derived once the strategy is known to apply.
  std::optional<Partial> DropStrategyForAttribute(const Partial& base,
                                                  const std::string& from_name,
                                                  const std::string& attr) const {
    const DeltaView& v = base.view;
    std::vector<int32_t> sel;
    std::vector<int32_t> whe;
    const RelAttr target{from_name, attr};
    for (int i = 0; i < v.select_size(); ++i) {
      const SelectItem& s = v.select(i);
      if (s.source == target) {
        if (!s.dispensable) return std::nullopt;
        sel.push_back(v.select_id(i));
      }
    }
    for (int i = 0; i < v.where_size(); ++i) {
      const ConditionItem& c = v.where(i);
      bool touches = false;
      for (const RelAttr& a : c.clause.Attributes()) {
        if (a == target) touches = true;
      }
      if (touches) {
        if (!c.dispensable) return std::nullopt;
        whe.push_back(v.where_id(i));
      }
    }
    if (sel.empty() && whe.empty()) return std::nullopt;
    if (sel.size() >= static_cast<size_t>(v.select_size())) {
      return std::nullopt;  // Would drop every output attribute.
    }
    Partial p = base;
    ApplyDrops(&p, std::move(sel), std::move(whe));
    MaybeDropUnusedFrom(&p, from_name);
    p.cand.strategies.push_back("drop");
    p.cand.notes.push_back(
        NoteTemplate::DroppedAttributeRefs(from_name, attr));
    return p;
  }

  // delete-relation: drop the FROM item with everything it feeds.
  std::optional<Partial> DropStrategyForRelation(
      const Partial& base, const std::string& from_name,
      const References& refs) const {
    const DeltaView& v = base.view;
    const FromItem* item = v.FindFrom(from_name);
    if (item == nullptr || !item->dispensable) return std::nullopt;
    for (const int32_t id : refs.select_ids) {
      if (!v.select_by_id(id).dispensable) return std::nullopt;
    }
    for (const int32_t id : refs.where_ids) {
      if (!v.where_by_id(id).dispensable) return std::nullopt;
    }
    if (refs.select_ids.size() >= static_cast<size_t>(v.select_size())) {
      return std::nullopt;  // Would drop every output attribute.
    }
    if (v.from_size() <= 1) return std::nullopt;
    Partial p = base;
    ApplyDrops(&p, refs.select_ids, refs.where_ids);
    p.Push(RewriteDelta::DropFrom(FromIdOf(p.view, from_name)));
    // Removing a (joined) relation widens the extent on common attributes.
    p.Compose(ExtentRel::kSuperset, /*exact=*/true);
    p.cand.strategies.push_back("drop");
    p.cand.notes.push_back(NoteTemplate::DroppedRelation(from_name));
    return p;
  }

  static int32_t FromIdOf(const DeltaView& view, const std::string& name) {
    for (int i = 0; i < view.from_size(); ++i) {
      if (view.from(i).name() == name) return view.from_id(i);
    }
    return -1;
  }

  // Drops the FROM item if nothing references it anymore and it is
  // dispensable; a dangling dispensable relation only multiplies tuples.
  void MaybeDropUnusedFrom(Partial* p, const std::string& from_name) const {
    if (p->view.RelationIsUsed(from_name)) return;
    const FromItem* item = p->view.FindFrom(from_name);
    if (item == nullptr || !item->dispensable) return;
    if (p->view.from_size() <= 1) return;
    p->Push(RewriteDelta::DropFrom(FromIdOf(p->view, from_name)));
    p->cand.notes.push_back(NoteTemplate::DroppedUnreferenced(from_name));
    p->Compose(ExtentRel::kSuperset, /*exact=*/true);
  }

  // --- Whole-relation replacement -----------------------------------------

  Result<RelationId> ResolveFromId(const FromItem& item) const {
    if (!item.site.empty()) return RelationId{item.site, item.relation};
    return mkb_.ResolveName(item.relation);
  }

  template <typename Sink>
  void ReplaceRelationStrategies(const Partial& base,
                                 const std::string& from_name,
                                 Sink* out) const {
    const FromItem* item = base.view.FindFrom(from_name);
    if (item == nullptr || !item->replaceable) return;
    const auto id = ResolveFromId(*item);
    if (!id.ok()) return;
    const std::vector<PcEdge>* edges = TransitiveEdges(id.value());
    if (edges == nullptr) return;
    for (const PcEdge& edge : *edges) {
      if (out->full()) return;
      if (edge.target == ChangedRelation(change_)) continue;
      auto p = TryReplaceRelation(base, from_name, edge);
      if (p.has_value()) out->Offer(std::move(*p));
    }
  }

  std::optional<Partial> TryReplaceRelation(const Partial& base,
                                            const std::string& from_name,
                                            const PcEdge& edge) const {
    const DeltaView& v = base.view;
    const std::string new_name = FreshFromName(v, edge.target.relation);

    // Map / drop SELECT items sourced from the replaced relation.
    std::map<RelAttr, RelAttr> subst;
    std::vector<int32_t> dropped_sel;
    bool anything_mapped = false;
    for (int i = 0; i < v.select_size(); ++i) {
      const SelectItem& s = v.select(i);
      if (s.source.relation != from_name) continue;
      const auto mapped = edge.attribute_map.find(s.source.attribute);
      if (mapped != edge.attribute_map.end() && s.replaceable) {
        subst[s.source] = RelAttr{new_name, mapped->second};
        anything_mapped = true;
      } else if (s.dispensable) {
        dropped_sel.push_back(v.select_id(i));
      } else {
        return std::nullopt;  // Indispensable and not substitutable.
      }
    }

    // Map / drop WHERE clauses touching the replaced relation.
    std::vector<int32_t> dropped_whe;
    for (int i = 0; i < v.where_size(); ++i) {
      const ConditionItem& c = v.where(i);
      if (!c.clause.References(from_name)) continue;
      bool mappable = c.replaceable;
      for (const RelAttr& a : c.clause.Attributes()) {
        if (a.relation == from_name &&
            edge.attribute_map.count(a.attribute) == 0) {
          mappable = false;
        }
      }
      if (mappable) {
        for (const RelAttr& a : c.clause.Attributes()) {
          if (a.relation == from_name) {
            subst[a] = RelAttr{new_name, edge.attribute_map.at(a.attribute)};
          }
        }
        anything_mapped = true;
      } else if (c.dispensable) {
        dropped_whe.push_back(v.where_id(i));
      } else {
        return std::nullopt;
      }
    }
    if (!anything_mapped) return std::nullopt;  // Degenerate: plain drop.

    Partial p = base;
    ApplyDrops(&p, std::move(dropped_sel), std::move(dropped_whe));
    // Rewrite surviving references.
    SubstituteAll(&p, subst);

    // Swap the FROM item (position preserved).
    {
      const int32_t fid = FromIdOf(p.view, from_name);
      // Copy before StartOp: the overlay read may resolve into the op
      // log, which StartOp's push_back can reallocate.
      FromItem nf = p.view.from_by_id(fid);
      nf.site = edge.target.site;
      nf.relation = edge.target.relation;
      nf.alias = new_name == edge.target.relation ? "" : new_name;
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kReplaceFrom, fid);
      op.payload.emplace<FromItem>(std::move(nf));
      p.Commit();
    }

    // Optionally pin the replacement to the constrained fragment.
    const bool target_selected = !edge.target_selection.IsTrue();
    bool applied_selection = false;
    if (target_selected && options_.apply_target_selection) {
      const std::map<std::string, std::string> rel_map{
          {edge.target.relation, new_name}};
      const Conjunction renamed = edge.target_selection.RenameRelations(rel_map);
      for (const PrimitiveClause& clause : renamed.clauses()) {
        RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kAddCondition, -1);
        op.payload.emplace<ConditionItem>().clause = clause;
        p.Commit();
      }
      applied_selection = true;
      p.cand.notes.push_back(NoteTemplate::PcFragmentCondition(new_name));
    }

    p.Compose(ReplacementExtentRel(edge, applied_selection),
              ReplacementExtentExact(edge, applied_selection));

    CandidateReplacement record;
    record.replaced = edge.source;
    record.replacement = edge.target;
    record.replaced_from_name = from_name;
    record.replacement_from_name = new_name;
    record.edge = &edge;
    record.joined_in = false;
    p.cand.replacements.push_back(std::move(record));
    p.cand.strategies.push_back("replace-relation");
    p.cand.notes.push_back(NoteTemplate::ReplacedRelation(&edge));
    return p;
  }

  // Extent relationship of a whole-relation replacement (see Fig. 9/10).
  static ExtentRel ReplacementExtentRel(const PcEdge& edge,
                                        bool applied_selection) {
    const bool src_sel = !edge.source_selection.IsTrue();
    const bool dst_sel = !edge.target_selection.IsTrue();
    if (src_sel) return ExtentRel::kUnknown;  // Only a fragment of R is known.
    if (edge.type == PcRelationType::kIncomparable) return ExtentRel::kUnknown;
    // R (whole) relates to the target fragment per the edge type.
    if (!dst_sel || applied_selection) {
      switch (edge.type) {
        case PcRelationType::kSubset:
          return ExtentRel::kSuperset;  // New view uses a bigger relation.
        case PcRelationType::kEquivalent:
          return ExtentRel::kEqual;
        case PcRelationType::kSuperset:
          return ExtentRel::kSubset;
        case PcRelationType::kIncomparable:
          return ExtentRel::kUnknown;
      }
    }
    // Target fragment selected but the view uses all of R2: R rel sigma(R2)
    // and sigma(R2) subseteq R2.
    switch (edge.type) {
      case PcRelationType::kSubset:
      case PcRelationType::kEquivalent:
        return ExtentRel::kSuperset;
      case PcRelationType::kSuperset:
      case PcRelationType::kIncomparable:
        return ExtentRel::kUnknown;
    }
    return ExtentRel::kUnknown;
  }

  static bool ReplacementExtentExact(const PcEdge& edge, bool applied_selection) {
    if (edge.type == PcRelationType::kIncomparable) return false;
    const bool src_sel = !edge.source_selection.IsTrue();
    if (src_sel) return false;
    const bool dst_sel = !edge.target_selection.IsTrue();
    if (!dst_sel || applied_selection) return true;
    return edge.type != PcRelationType::kSuperset;
  }

  // --- Join-in replacement (attribute-level) -------------------------------

  template <typename Sink>
  void JoinInStrategies(const Partial& base, const std::string& from_name,
                        const std::string& attr, Sink* out) const {
    const FromItem* item = base.view.FindFrom(from_name);
    if (item == nullptr) return;
    const auto id = ResolveFromId(*item);
    if (!id.ok()) return;

    // Every SELECT item losing the attribute must be replaceable; clauses
    // must be replaceable or dispensable (checked in TryJoinIn).
    const std::vector<PcEdge>* edges = TransitiveEdges(id.value());
    if (edges == nullptr) return;
    for (const PcEdge& edge : *edges) {
      if (out->full()) return;
      if (edge.attribute_map.count(attr) == 0) continue;
      if (edge.target == id.value()) continue;
      const auto jcs = mkb_.FindJoinConstraints(id.value(), edge.target);
      for (const JoinConstraint* jc : jcs) {
        if (out->full()) return;
        auto p = TryJoinIn(base, from_name, attr, edge, *jc);
        if (p.has_value()) out->Offer(std::move(*p));
      }
    }
  }

  std::optional<Partial> TryJoinIn(const Partial& base,
                                   const std::string& from_name,
                                   const std::string& attr, const PcEdge& edge,
                                   const JoinConstraint& jc) const {
    // The join constraint must not itself use the deleted attribute.
    for (const RelAttr& a : jc.condition.Attributes()) {
      if (a.relation == edge.source.relation && a.attribute == attr) {
        return std::nullopt;
      }
    }
    const DeltaView& v = base.view;
    const std::string new_name = FreshFromName(v, edge.target.relation);
    const RelAttr lost{from_name, attr};
    const RelAttr found{new_name, edge.attribute_map.at(attr)};

    // Planned edits, applied only once the whole scan has succeeded.
    std::vector<std::pair<int32_t, SelectItem>> set_sel;
    std::vector<std::pair<int32_t, ConditionItem>> set_whe;
    std::vector<int32_t> dropped_whe;

    bool anything = false;
    for (int i = 0; i < v.select_size(); ++i) {
      const SelectItem& s = v.select(i);
      if (s.source == lost) {
        if (!s.replaceable) return std::nullopt;
        SelectItem ns = s;
        if (ns.output_name.empty()) ns.output_name = ns.source.attribute;
        ns.source = found;
        set_sel.emplace_back(v.select_id(i), std::move(ns));
        anything = true;
      }
    }
    const std::map<RelAttr, RelAttr> subst{{lost, found}};
    for (int i = 0; i < v.where_size(); ++i) {
      const ConditionItem& c = v.where(i);
      bool touches = false;
      for (const RelAttr& a : c.clause.Attributes()) {
        if (a == lost) touches = true;
      }
      if (!touches) continue;
      if (c.replaceable) {
        ConditionItem nc = c;
        nc.clause = nc.clause.Substitute(subst);
        set_whe.emplace_back(v.where_id(i), std::move(nc));
        anything = true;
      } else if (c.dispensable) {
        dropped_whe.push_back(v.where_id(i));
      } else {
        return std::nullopt;
      }
    }
    if (!anything) return std::nullopt;

    Partial p = base;
    for (auto& [sid, item] : set_sel) {
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kSetSelect, sid);
      op.payload.emplace<SelectItem>(std::move(item));
      p.Commit();
    }
    for (auto& [wid, item] : set_whe) {
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kSetCondition, wid);
      op.payload.emplace<ConditionItem>(std::move(item));
      p.Commit();
    }
    ApplyDrops(&p, {}, std::move(dropped_whe));

    // Join the auxiliary relation in via the JC.
    {
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kAddFrom, -1);
      FromItem& aux = op.payload.emplace<FromItem>();
      aux.site = edge.target.site;
      aux.relation = edge.target.relation;
      aux.alias = new_name == edge.target.relation ? "" : new_name;
      aux.dispensable = false;
      aux.replaceable = true;
      p.Commit();
    }

    const std::map<std::string, std::string> rel_map{
        {edge.source.relation, from_name}, {edge.target.relation, new_name}};
    const Conjunction renamed_jc = jc.condition.RenameRelations(rel_map);
    for (const PrimitiveClause& clause : renamed_jc.clauses()) {
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kAddCondition, -1);
      ConditionItem& ci = op.payload.emplace<ConditionItem>();
      ci.clause = clause;
      ci.replaceable = true;
      p.Commit();
    }

    // Extent estimate: with the lost fragment contained in the target
    // fragment, every surviving tuple recovers its attribute -> equal (but
    // inexact, as value-level agreement rests on the JC being key-based).
    switch (edge.type) {
      case PcRelationType::kSubset:
      case PcRelationType::kEquivalent:
        p.Compose(ExtentRel::kEqual, /*exact=*/false);
        break;
      case PcRelationType::kSuperset:
        p.Compose(ExtentRel::kSubset, /*exact=*/false);
        break;
      case PcRelationType::kIncomparable:
        p.Compose(ExtentRel::kUnknown, /*exact=*/false);
        break;
    }

    CandidateReplacement record;
    record.replaced = edge.source;
    record.replacement = edge.target;
    record.replaced_from_name = from_name;
    record.replacement_from_name = new_name;
    record.edge = &edge;
    record.joined_in = true;
    p.cand.replacements.push_back(std::move(record));
    p.cand.strategies.push_back("join-in");
    p.cand.notes.push_back(
        NoteTemplate::JoinInRecovered(from_name, attr, &edge, &jc));
    return p;
  }

  // --- Complex (CVS-style) pair substitution -------------------------------

  template <typename Sink>
  void CvsPairStrategies(const Partial& base, const std::string& from_name,
                         const References& refs, Sink* out) const {
    const FromItem* item = base.view.FindFrom(from_name);
    if (item == nullptr || !item->replaceable) return;
    const auto id = ResolveFromId(*item);
    if (!id.ok()) return;
    const std::vector<PcEdge>* edges_ptr = TransitiveEdges(id.value());
    if (edges_ptr == nullptr) return;
    const std::vector<PcEdge>& edges = *edges_ptr;

    // Per-edge coverage of the referenced attributes as bitsets, so the
    // quadratic pair loop rejects non-viable pairs (TryCvsPair's
    // used1/used2-empty cases) before any JC lookup or candidate
    // derivation.  Views referencing more than 64 attributes of one FROM
    // item skip the precheck and fall back to per-pair evaluation.
    const bool precheck = refs.attributes.size() <= 64;
    std::vector<uint64_t> covered;
    if (precheck) {
      covered.resize(edges.size(), 0);
      for (size_t i = 0; i < edges.size(); ++i) {
        uint64_t bits = 0;
        uint64_t bit = 1;
        for (const std::string& a : refs.attributes) {
          if (edges[i].attribute_map.count(a) > 0) bits |= bit;
          bit <<= 1;
        }
        covered[i] = bits;
      }
    }

    for (size_t i = 0; i < edges.size(); ++i) {
      for (size_t j = 0; j < edges.size(); ++j) {
        if (out->full()) return;
        if (i == j) continue;
        const PcEdge& e1 = edges[i];
        const PcEdge& e2 = edges[j];
        if (e1.target == e2.target) continue;
        if (precheck) {
          // used1 = referenced attrs e1 maps; used2 = referenced attrs
          // only e2 maps (merged prefers e1).  Either empty means
          // TryCvsPair returns nullopt for every JC -- skip the pair.
          const uint64_t used1 = covered[i];
          const uint64_t used2 = covered[j] & ~covered[i];
          if (used1 == 0 || used2 == 0) continue;
        }
        if (e1.target == ChangedRelation(change_) ||
            e2.target == ChangedRelation(change_)) {
          continue;
        }
        const auto jcs = mkb_.FindJoinConstraints(e1.target, e2.target);
        for (const JoinConstraint* jc : jcs) {
          if (out->full()) return;
          auto p = TryCvsPair(base, from_name, refs, e1, e2, *jc);
          if (p.has_value()) out->Offer(std::move(*p));
        }
      }
    }
  }

  std::optional<Partial> TryCvsPair(const Partial& base,
                                    const std::string& from_name,
                                    const References& refs, const PcEdge& e1,
                                    const PcEdge& e2,
                                    const JoinConstraint& jc) const {
    const DeltaView& v = base.view;
    const std::string name1 = FreshFromName(v, e1.target.relation);
    // Reserve name1 before computing name2 (relations could share names
    // only across sites; FreshFromName needs the updated def, so fake it).
    const std::string name2 =
        e2.target.relation == name1
            ? FreshFromName(v, e2.target.relation + "_b")
            : FreshFromName(v, e2.target.relation);

    // Per-attribute target choice: prefer e1, fall back to e2.  The records
    // carry reduced maps so the legality oracle sees a consistent picture.
    std::map<std::string, RelAttr> merged;
    std::map<std::string, std::string> used1;
    std::map<std::string, std::string> used2;
    for (const std::string& a : refs.attributes) {
      if (const auto it = e1.attribute_map.find(a); it != e1.attribute_map.end()) {
        merged[a] = RelAttr{name1, it->second};
        used1[a] = it->second;
      } else if (const auto it2 = e2.attribute_map.find(a);
                 it2 != e2.attribute_map.end()) {
        merged[a] = RelAttr{name2, it2->second};
        used2[a] = it2->second;
      }
    }
    if (used1.empty() || used2.empty()) {
      return std::nullopt;  // One relation suffices: not a pair substitution.
    }

    std::map<RelAttr, RelAttr> subst;
    std::vector<int32_t> dropped_sel;
    for (int i = 0; i < v.select_size(); ++i) {
      const SelectItem& s = v.select(i);
      if (s.source.relation != from_name) continue;
      const auto it = merged.find(s.source.attribute);
      if (it != merged.end() && s.replaceable) {
        subst[s.source] = it->second;
      } else if (s.dispensable) {
        dropped_sel.push_back(v.select_id(i));
      } else {
        return std::nullopt;
      }
    }
    std::vector<int32_t> dropped_whe;
    for (int i = 0; i < v.where_size(); ++i) {
      const ConditionItem& c = v.where(i);
      if (!c.clause.References(from_name)) continue;
      bool mappable = c.replaceable;
      for (const RelAttr& a : c.clause.Attributes()) {
        if (a.relation == from_name && merged.count(a.attribute) == 0) {
          mappable = false;
        }
      }
      if (mappable) {
        for (const RelAttr& a : c.clause.Attributes()) {
          if (a.relation == from_name) subst[a] = merged.at(a.attribute);
        }
      } else if (c.dispensable) {
        dropped_whe.push_back(v.where_id(i));
      } else {
        return std::nullopt;
      }
    }

    Partial p = base;
    ApplyDrops(&p, std::move(dropped_sel), std::move(dropped_whe));
    SubstituteAll(&p, subst);

    // Replace the FROM item by the first target; append the second.
    {
      const int32_t fid = FromIdOf(p.view, from_name);
      FromItem nf = p.view.from_by_id(fid);  // Copy before StartOp.
      nf.site = e1.target.site;
      nf.relation = e1.target.relation;
      nf.alias = name1 == e1.target.relation ? "" : name1;
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kReplaceFrom, fid);
      op.payload.emplace<FromItem>(std::move(nf));
      p.Commit();
    }
    {
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kAddFrom, -1);
      FromItem& second = op.payload.emplace<FromItem>();
      second.site = e2.target.site;
      second.relation = e2.target.relation;
      second.alias = name2 == e2.target.relation ? "" : name2;
      second.replaceable = true;
      p.Commit();
    }

    const std::map<std::string, std::string> rel_map{
        {e1.target.relation, name1}, {e2.target.relation, name2}};
    const Conjunction renamed_jc = jc.condition.RenameRelations(rel_map);
    for (const PrimitiveClause& clause : renamed_jc.clauses()) {
      RewriteDelta& op = p.StartOp(RewriteDelta::Kind::kAddCondition, -1);
      ConditionItem& ci = op.payload.emplace<ConditionItem>();
      ci.clause = clause;
      ci.replaceable = true;
      p.Commit();
    }

    const bool both_equivalent = e1.type == PcRelationType::kEquivalent &&
                                 e2.type == PcRelationType::kEquivalent &&
                                 e1.source_selection.IsTrue() &&
                                 e2.source_selection.IsTrue() &&
                                 e1.target_selection.IsTrue() &&
                                 e2.target_selection.IsTrue();
    p.Compose(both_equivalent ? ExtentRel::kEqual : ExtentRel::kUnknown,
              /*exact=*/false);

    for (const auto& [edge, used, nm] :
         {std::tuple<const PcEdge*, std::map<std::string, std::string>*,
                     const std::string*>{&e1, &used1, &name1},
          {&e2, &used2, &name2}}) {
      CandidateReplacement record;
      record.replaced = edge->source;
      record.replacement = edge->target;
      record.replaced_from_name = from_name;
      record.replacement_from_name = *nm;
      record.edge = edge;
      record.reduced_map = std::move(*used);
      record.joined_in = false;
      p.cand.replacements.push_back(std::move(record));
    }
    p.cand.strategies.push_back("cvs-pair");
    p.cand.notes.push_back(NoteTemplate::CvsPairReplaced(from_name, &e1, &e2));
    return p;
  }

  // --- Post-processing ------------------------------------------------------

  void EnumerateDropSubsets(std::vector<Partial>* partials) const {
    std::vector<Partial> extra;
    for (const Partial& p : *partials) {
      std::vector<int32_t> droppable;
      for (int i = 0; i < p.view.select_size(); ++i) {
        if (p.view.select(i).dispensable) {
          droppable.push_back(p.view.select_id(i));
        }
      }
      const int n = static_cast<int>(droppable.size());
      if (n == 0 || n > 10) continue;
      const size_t select_count = static_cast<size_t>(p.view.select_size());
      for (int mask = 1; mask < (1 << n); ++mask) {
        std::vector<int32_t> to_drop;
        for (int b = 0; b < n; ++b) {
          if (mask & (1 << b)) to_drop.push_back(droppable[b]);
        }
        if (to_drop.size() >= select_count) continue;
        std::sort(to_drop.rbegin(), to_drop.rend());
        Partial variant = p;
        for (const int32_t id : to_drop) {
          variant.cand.dropped_attributes.push_back(
              variant.view.select_by_id(id).name());
          variant.Push(RewriteDelta::DropSelect(id));
        }
        variant.cand.strategies.push_back("drop-subset");
        extra.push_back(std::move(variant));
      }
    }
    partials->insert(partials->end(), std::make_move_iterator(extra.begin()),
                     std::make_move_iterator(extra.end()));
  }

  // ---------------------------------------------------------------------
  // Governance
  // ---------------------------------------------------------------------
  //
  // Degradation policy: a candidate-budget or deadline stop during
  // enumeration is NOT an error -- the enumeration returns the legal
  // best-so-far candidates with PartialSet::truncated set (the caller may
  // still adopt the best rewriting found in time).  Cancellation and
  // injected faults are hard errors and propagate as non-OK Status.
  // The flags are mutable because sinks and strategies run under const
  // methods; one Impl is single-threaded by construction.

  // True once enumeration must stop (soft truncation or hard error).
  bool StopRequested() const { return truncated_ || !hard_error_.ok(); }

  // Routes a governance/fault failure: deadline + budget exhaustion become
  // truncation, everything else (cancellation, injected faults) the first
  // hard error.
  void HandleGovernance(Status s) const {
    if (s.ok()) return;
    if (s.code() == StatusCode::kDeadlineExceeded ||
        s.code() == StatusCode::kResourceExhausted) {
      if (!truncated_) {
        truncated_ = true;
        truncation_reason_ = s.message();
      }
      return;
    }
    if (hard_error_.ok()) hard_error_ = std::move(s);
  }

  // Charges one derived candidate against the budget and polls
  // deadline/cancellation.  False means the candidate must be discarded
  // and enumeration stops (StopRequested() is now true).
  bool AdmitCandidate() const {
    if (StopRequested()) return false;
    ++considered_;
    if (!ctx_.limited()) return true;
    Status s = ctx_.ConsumeCandidates(1);
    if (s.ok()) s = ctx_.CheckNow();
    if (s.ok()) return true;
    HandleGovernance(std::move(s));
    return false;
  }

  // Governed MKB closure lookup; nullptr means the strategy must bail
  // (StopRequested() tells the caller why via Finish()).
  const std::vector<PcEdge>* TransitiveEdges(const RelationId& id) const {
    Result<const std::vector<PcEdge>*> edges =
        mkb_.PcEdgesFromTransitiveGoverned(id, options_.max_pc_hops, ctx_);
    if (edges.ok()) return edges.value();
    HandleGovernance(edges.status());
    return nullptr;
  }

  // Accumulates candidates of an intermediate fold round; full only when
  // governance stops the enumeration.
  struct CollectSink {
    const Impl* impl;
    std::vector<Partial>* out;
    void Offer(Partial p) {
      if (!impl->AdmitCandidate()) return;
      out->push_back(std::move(p));
    }
    bool full() const { return impl->StopRequested(); }
  };

  // Streaming legality / structural-dedup / cap sink: candidates are
  // checked over their compiled overlays as the strategies produce them --
  // pruned candidates are never rendered or materialized -- and once the
  // result cap is full, full() stops the enumeration loops outright, so a
  // wide fan-out never derives candidates the cap would discard anyway.
  // (Processing order equals enumeration order, so the kept set is exactly
  // what the batch formulation kept.)
  class FinishSink {
   public:
    explicit FinishSink(const Impl& impl) : impl_(impl) {}

    void Offer(Partial p) {
      if (full()) return;
      if (Status injected = FaultInjection::Probe("synch.finish");
          !injected.ok()) {
        impl_.HandleGovernance(std::move(injected));
        return;
      }
      if (!impl_.AdmitCandidate()) return;
      CandidateFacts facts;
      facts.extent_relation = p.cand.extent_relation;
      facts.replacements = &p.cand.replacements;
      facts.renamed_attributes = &p.cand.renamed_attributes;
      facts.renamed_relations = &p.cand.renamed_relations;
      if (!CheckLegality(*impl_.original_, p.view, facts).ok()) return;
      const size_t hash = p.view.StructuralHash();
      std::vector<size_t>& bucket = buckets_[hash];
      const bool duplicate =
          std::any_of(bucket.begin(), bucket.end(), [&](size_t i) {
            return kept_[i].view.StructurallyEquals(p.view);
          });
      if (duplicate) return;
      bucket.push_back(kept_.size());
      kept_.push_back(std::move(p));
    }

    bool full() const {
      return static_cast<int>(kept_.size()) >= impl_.options_.max_rewritings ||
             impl_.StopRequested();
    }

    std::vector<Partial> Take() { return std::move(kept_); }

   private:
    const Impl& impl_;
    std::vector<Partial> kept_;
    std::unordered_map<size_t, std::vector<size_t>> buckets_;
  };

  Result<PartialSet> Finish(bool affected,
                            std::vector<Partial> partials) const {
    PartialSet result;
    result.affected = affected;
    FinishSink sink(*this);
    for (Partial& p : partials) {
      if (sink.full()) break;
      sink.Offer(std::move(p));
    }
    EVE_RETURN_IF_ERROR(hard_error_);
    result.partials = sink.Take();
    result.truncated = truncated_;
    result.truncation_reason = truncation_reason_;
    result.candidates_considered = considered_;
    return result;
  }

  const MetaKnowledgeBase& mkb_;
  const SynchronizerOptions& options_;
  std::shared_ptr<const ViewDefinition> original_;
  const SchemaChange& change_;
  const ExecContext& ctx_;
  // Governance outcome; mutable so the const enumeration path can record
  // it (see the Governance section above).
  mutable Status hard_error_;
  mutable bool truncated_ = false;
  mutable std::string truncation_reason_;
  // Enumeration-work counter: candidates offered to the sinks.
  mutable int64_t considered_ = 0;
};

ViewSynchronizer::ViewSynchronizer(const MetaKnowledgeBase& mkb,
                                   SynchronizerOptions options)
    : mkb_(mkb), options_(options) {}

Result<SynchronizationResult> ViewSynchronizer::Synchronize(
    const ViewDefinition& view, const SchemaChange& change,
    const ExecContext& ctx) const {
  EVE_ASSIGN_OR_RETURN(PartialSet set,
                       Impl(mkb_, options_, view, change, ctx).Run());
  SynchronizationResult result;
  result.affected = set.affected;
  result.truncated = set.truncated;
  result.truncation_reason = std::move(set.truncation_reason);
  result.candidates_considered = set.candidates_considered;
  result.rewritings.reserve(set.partials.size());
  for (Partial& p : set.partials) {
    // Survivors materialize once, straight from the compiled overlay.
    result.rewritings.push_back(
        std::move(p.cand).ToRewriting(p.view.Materialize()));
  }
  return result;
}

Result<CandidateSynchronizationResult> ViewSynchronizer::SynchronizeCandidates(
    const ViewDefinition& view, const SchemaChange& change,
    const ExecContext& ctx) const {
  EVE_ASSIGN_OR_RETURN(PartialSet set,
                       Impl(mkb_, options_, view, change, ctx).Run());
  CandidateSynchronizationResult result;
  result.affected = set.affected;
  result.truncated = set.truncated;
  result.truncation_reason = std::move(set.truncation_reason);
  result.candidates_considered = set.candidates_considered;
  result.candidates.reserve(set.partials.size());
  for (Partial& p : set.partials) {
    result.candidates.push_back(std::move(p.cand));
  }
  return result;
}

}  // namespace eve
