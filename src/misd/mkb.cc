#include "misd/mkb.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/hashing.h"
#include "common/str_util.h"

namespace eve {

namespace {

// True when `m` (a small mutation set) contains `id`.
bool Touches(const std::vector<RelationId>& m, const RelationId& id) {
  return std::find(m.begin(), m.end(), id) != m.end();
}

// True when the mutation set intersects the touched set of a cached edge
// list keyed by `source`: {source} + every edge target.  The soundness
// argument lives on InvalidateTouching's declaration.
bool TouchesEdges(const std::vector<RelationId>& m, const RelationId& source,
                  const std::vector<PcEdge>& edges) {
  if (Touches(m, source)) return true;
  for (const PcEdge& e : edges) {
    if (Touches(m, e.target)) return true;
  }
  return false;
}

}  // namespace

void MetaKnowledgeBase::InvalidateTouching(
    const std::vector<RelationId>& pc_mutated,
    const std::vector<RelationId>& jc_mutated) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (!selective_invalidation_) {
    // The oracle mode reproduces the seed exactly: every mutator flushes
    // everything, even ones (RegisterRelation, AddAttribute) that cannot
    // affect any derived entry.
    adjacency_cache_.clear();
    closure_cache_.clear();
    jc_pair_cache_.clear();
    ++memo_stats_.full_flushes;
    return;
  }
  if (!pc_mutated.empty()) {
    for (auto it = adjacency_cache_.begin(); it != adjacency_cache_.end();) {
      if (TouchesEdges(pc_mutated, it->first, it->second)) {
        it = adjacency_cache_.erase(it);
        ++memo_stats_.selective_drops;
      } else {
        ++memo_stats_.memo_survivals;
        ++it;
      }
    }
    for (auto it = closure_cache_.begin(); it != closure_cache_.end();) {
      if (TouchesEdges(pc_mutated, it->first.first, it->second)) {
        it = closure_cache_.erase(it);
        ++memo_stats_.selective_drops;
        ++memo_stats_.closure_drops;
      } else {
        ++memo_stats_.memo_survivals;
        ++memo_stats_.closure_survivals;
        ++it;
      }
    }
  }
  if (!jc_mutated.empty()) {
    for (auto it = jc_pair_cache_.begin(); it != jc_pair_cache_.end();) {
      if (Touches(jc_mutated, it->first.first) ||
          Touches(jc_mutated, it->first.second)) {
        it = jc_pair_cache_.erase(it);
        ++memo_stats_.selective_drops;
      } else {
        ++memo_stats_.memo_survivals;
        ++it;
      }
    }
  }
}

std::vector<RelationId> MetaKnowledgeBase::PcNeighborhood(
    const RelationId& id) const {
  std::vector<RelationId> out{id};
  for (const PcEdge& e : PcEdgesFrom(id)) {
    if (!Touches(out, e.target)) out.push_back(e.target);
  }
  return out;
}

MkbMemoStats MetaKnowledgeBase::memo_stats() const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  return memo_stats_;
}

Status MetaKnowledgeBase::RegisterRelation(const RelationId& id,
                                           const Schema& schema) {
  if (schemas_.count(id) > 0) {
    return Status::AlreadyExists("relation " + id.ToString() +
                                 " already registered in MKB");
  }
  if (schema.size() == 0) {
    return Status::InvalidArgument("relation " + id.ToString() +
                                   " must have at least one attribute");
  }
  // A freshly registered relation cannot be referenced by any constraint
  // yet, so no derived memo entry can depend on it: nothing to drop.
  InvalidateTouching({}, {});
  schemas_.emplace(id, schema);
  ids_by_name_[id.relation].push_back(id);
  return Status::OK();
}

namespace {

// Composes the set-relation types of two chained PC edges; nullopt when the
// combination admits no containment conclusion (subset followed by
// superset).  Incomparability is absorbing.
std::optional<PcRelationType> ComposePcType(PcRelationType a, PcRelationType b) {
  if (a == PcRelationType::kIncomparable || b == PcRelationType::kIncomparable) {
    return PcRelationType::kIncomparable;
  }
  if (a == PcRelationType::kEquivalent) return b;
  if (b == PcRelationType::kEquivalent) return a;
  if (a == b) return a;
  return std::nullopt;
}

bool PcTouches(const PcConstraint& pc, const RelationId& id) {
  return pc.left.relation == id || pc.right.relation == id;
}

bool PcReferencesAttr(const PcConstraint& pc, const RelationId& id,
                      const std::string& attr) {
  auto side_refs = [&](const PcSide& side) {
    if (!(side.relation == id)) return false;
    if (std::find(side.attributes.begin(), side.attributes.end(), attr) !=
        side.attributes.end()) {
      return true;
    }
    for (const RelAttr& a : side.selection.Attributes()) {
      if (a.attribute == attr) return true;
    }
    return false;
  };
  return side_refs(pc.left) || side_refs(pc.right);
}

bool JcReferencesAttr(const JoinConstraint& jc, const RelationId& id,
                      const std::string& attr) {
  if (!jc.Involves(id)) return false;
  for (const RelAttr& a : jc.condition.Attributes()) {
    if (a.attribute == attr &&
        (a.relation == id.relation || a.relation.empty())) {
      return true;
    }
  }
  return false;
}

// Erases the PC constraints matching `doomed` together with their texts
// (the parallel vector stays aligned); returns the number erased.
template <typename Pred>
int ErasePcConstraintsIf(std::vector<PcConstraint>* pcs,
                         std::vector<std::string>* texts, Pred&& doomed) {
  size_t kept = 0;
  for (size_t i = 0; i < pcs->size(); ++i) {
    if (doomed((*pcs)[i])) continue;
    if (kept != i) {
      (*pcs)[kept] = std::move((*pcs)[i]);
      (*texts)[kept] = std::move((*texts)[i]);
    }
    ++kept;
  }
  const int erased = static_cast<int>(pcs->size() - kept);
  pcs->resize(kept);
  texts->resize(kept);
  return erased;
}

}  // namespace

void MetaKnowledgeBase::UnindexName(const RelationId& id) {
  const auto it = ids_by_name_.find(id.relation);
  std::erase(it->second, id);
  if (it->second.empty()) ids_by_name_.erase(it);
}

Result<int> MetaKnowledgeBase::UnregisterRelation(const RelationId& id) {
  if (schemas_.count(id) == 0) {
    return Status::NotFound("relation " + id.ToString() + " not in MKB");
  }
  // Dropping id's constraints and installing bridges between its PC
  // partners touches id and every one of those partners.
  InvalidateTouching(PcNeighborhood(id), {id});
  BridgeConstraintsThrough(id, /*attr=*/nullptr);
  schemas_.erase(id);
  UnindexName(id);
  int dropped = static_cast<int>(std::erase_if(
      join_constraints_,
      [&](const JoinConstraint& jc) { return jc.Involves(id); }));
  dropped += ErasePcConstraintsIf(
      &pc_constraints_, &pc_texts_,
      [&](const PcConstraint& pc) { return PcTouches(pc, id); });
  stats_.Remove(id);
  return dropped;
}

Result<int> MetaKnowledgeBase::RemoveAttribute(const RelationId& id,
                                               const std::string& attr) {
  const auto it = schemas_.find(id);
  if (it == schemas_.end()) {
    return Status::NotFound("relation " + id.ToString() + " not in MKB");
  }
  const auto idx = it->second.IndexOf(attr);
  if (!idx.has_value()) {
    return Status::NotFound("attribute " + attr + " not in relation " +
                            id.ToString());
  }
  std::vector<Attribute> attrs = it->second.attributes();
  attrs.erase(attrs.begin() + *idx);
  if (attrs.empty()) {
    return Status::FailedPrecondition(
        "removing the last attribute of " + id.ToString() +
        "; use UnregisterRelation instead");
  }
  // Conservative superset of the attr-doomed constraints' endpoints.
  InvalidateTouching(PcNeighborhood(id), {id});
  BridgeConstraintsThrough(id, &attr);
  it->second = Schema(std::move(attrs));

  int dropped = static_cast<int>(
      std::erase_if(join_constraints_, [&](const JoinConstraint& jc) {
        return JcReferencesAttr(jc, id, attr);
      }));
  dropped += ErasePcConstraintsIf(
      &pc_constraints_, &pc_texts_, [&](const PcConstraint& pc) {
        return PcReferencesAttr(pc, id, attr);
      });
  return dropped;
}

Status MetaKnowledgeBase::AddAttribute(const RelationId& id,
                                       const Attribute& attribute) {
  const auto it = schemas_.find(id);
  if (it == schemas_.end()) {
    return Status::NotFound("relation " + id.ToString() + " not in MKB");
  }
  if (it->second.Contains(attribute.name)) {
    return Status::AlreadyExists("attribute " + attribute.name +
                                 " already in relation " + id.ToString());
  }
  std::vector<Attribute> attrs = it->second.attributes();
  attrs.push_back(attribute);
  // Adding an attribute changes no constraint, and the derived memos read
  // only the constraint stores: every entry stays warm.  (The full-flush
  // oracle still flushes here, matching the seed.)
  InvalidateTouching({}, {});
  it->second = Schema(std::move(attrs));
  return Status::OK();
}

Status MetaKnowledgeBase::RenameRelation(const RelationId& from,
                                         const std::string& new_name) {
  const auto it = schemas_.find(from);
  if (it == schemas_.end()) {
    return Status::NotFound("relation " + from.ToString() + " not in MKB");
  }
  const RelationId to{from.site, new_name};
  if (schemas_.count(to) > 0) {
    return Status::AlreadyExists("relation " + to.ToString() +
                                 " already registered in MKB");
  }
  // Constraints involving `from` are rewritten in place; nothing can
  // reference `to` yet, but it joins the set for symmetry.
  InvalidateTouching({from, to}, {from, to});
  Schema schema = it->second;
  schemas_.erase(it);
  schemas_.emplace(to, std::move(schema));
  UnindexName(from);
  ids_by_name_[new_name].push_back(to);

  const std::map<std::string, std::string> rel_map{{from.relation, new_name}};
  for (JoinConstraint& jc : join_constraints_) {
    if (jc.left == from) jc.left = to;
    if (jc.right == from) jc.right = to;
    jc.condition = jc.condition.RenameRelations(rel_map);
  }
  for (size_t i = 0; i < pc_constraints_.size(); ++i) {
    PcConstraint& pc = pc_constraints_[i];
    if (!PcTouches(pc, from)) continue;
    for (PcSide* side : {&pc.left, &pc.right}) {
      if (side->relation == from) {
        side->relation = to;
        side->selection = side->selection.RenameRelations(rel_map);
      }
    }
    pc_texts_[i] = pc.ToString();
  }
  if (stats_.Has(from)) {
    EVE_RETURN_IF_ERROR(stats_.Rename(from, to));
  }
  return Status::OK();
}

Status MetaKnowledgeBase::RenameAttribute(const RelationId& id,
                                          const std::string& from,
                                          const std::string& to) {
  const auto it = schemas_.find(id);
  if (it == schemas_.end()) {
    return Status::NotFound("relation " + id.ToString() + " not in MKB");
  }
  const auto idx = it->second.IndexOf(from);
  if (!idx.has_value()) {
    return Status::NotFound("attribute " + from + " not in relation " +
                            id.ToString());
  }
  if (it->second.Contains(to)) {
    return Status::AlreadyExists("attribute " + to + " already in relation " +
                                 id.ToString());
  }
  // Only constraints involving id are rewritten; cached edges not touching
  // id cannot mention the attribute (attribute maps pair SOURCE and TARGET
  // attrs, and id is neither for a surviving entry).
  InvalidateTouching({id}, {id});
  std::vector<Attribute> attrs = it->second.attributes();
  attrs[*idx].name = to;
  it->second = Schema(std::move(attrs));

  const std::map<RelAttr, RelAttr> attr_map{
      {RelAttr{id.relation, from}, RelAttr{id.relation, to}}};
  for (JoinConstraint& jc : join_constraints_) {
    if (jc.Involves(id)) jc.condition = jc.condition.Substitute(attr_map);
  }
  for (size_t i = 0; i < pc_constraints_.size(); ++i) {
    PcConstraint& pc = pc_constraints_[i];
    if (!PcTouches(pc, id)) continue;
    for (PcSide* side : {&pc.left, &pc.right}) {
      if (side->relation == id) {
        for (std::string& a : side->attributes) {
          if (a == from) a = to;
        }
        side->selection = side->selection.Substitute(attr_map);
      }
    }
    pc_texts_[i] = pc.ToString();
  }
  return Status::OK();
}

void MetaKnowledgeBase::BridgeConstraintsThrough(const RelationId& through,
                                                 const std::string* attr) {
  // Normalized edges from the disappearing capability that are about to be
  // dropped: every PC constraint touching `through` (for a relation
  // deletion) or touching `through`.`attr` (for an attribute deletion).
  std::vector<PcEdge> doomed;
  for (const PcEdge& edge : PcEdgesFrom(through)) {
    if (attr != nullptr && edge.attribute_map.count(*attr) == 0) {
      // Selection conditions referencing the attribute also doom the
      // constraint; treat those conservatively as not bridgeable.
      continue;
    }
    // Bridging through a selected source fragment is unsound.
    if (!edge.source_selection.IsTrue()) continue;
    doomed.push_back(edge);
  }
  if (doomed.size() < 2) return;

  // Existing-constraint fingerprints, to avoid duplicates.
  std::set<std::string> existing(pc_texts_.begin(), pc_texts_.end());

  std::vector<std::pair<PcConstraint, std::string>> bridges;
  for (size_t i = 0; i < doomed.size(); ++i) {
    for (size_t j = 0; j < doomed.size(); ++j) {
      if (i == j) continue;
      const PcEdge& e1 = doomed[i];  // through -> Y
      const PcEdge& e2 = doomed[j];  // through -> Z
      if (e1.target == e2.target) continue;
      // Y REL Z with REL = flip(e1.type) o e2.type (incomparable fallback).
      const auto type =
          ComposePcType(FlipPcRelationType(e1.type), e2.type)
              .value_or(PcRelationType::kIncomparable);
      PcConstraint bridge;
      bridge.type = type;
      bridge.left.relation = e1.target;
      bridge.right.relation = e2.target;
      for (const auto& [x_attr, y_attr] : e1.attribute_map) {
        const auto z_it = e2.attribute_map.find(x_attr);
        if (z_it == e2.attribute_map.end()) continue;
        bridge.left.attributes.push_back(y_attr);
        bridge.right.attributes.push_back(z_it->second);
      }
      if (bridge.left.attributes.empty()) continue;
      bridge.left.selection = e1.target_selection;
      bridge.left.selectivity = e1.target_selectivity;
      bridge.right.selection = e2.target_selection;
      bridge.right.selectivity = e2.target_selectivity;
      std::string text = bridge.ToString();
      if (existing.insert(text).second) {
        bridges.emplace_back(std::move(bridge), std::move(text));
      }
    }
  }
  for (auto& [bridge, text] : bridges) {
    pc_constraints_.push_back(std::move(bridge));
    pc_texts_.push_back(std::move(text));
  }
}

bool MetaKnowledgeBase::HasRelation(const RelationId& id) const {
  return schemas_.count(id) > 0;
}

Result<Schema> MetaKnowledgeBase::GetSchema(const RelationId& id) const {
  const auto it = schemas_.find(id);
  if (it == schemas_.end()) {
    return Status::NotFound("relation " + id.ToString() + " not in MKB");
  }
  return it->second;
}

std::vector<RelationId> MetaKnowledgeBase::Relations() const {
  std::vector<RelationId> out;
  out.reserve(schemas_.size());
  for (const auto& [id, schema] : schemas_) out.push_back(id);
  return out;
}

Result<RelationId> MetaKnowledgeBase::ResolveName(
    const std::string& relation_name) const {
  const auto it = ids_by_name_.find(relation_name);
  if (it == ids_by_name_.end()) {
    return Status::NotFound("relation " + relation_name + " not in MKB");
  }
  if (it->second.size() > 1) {
    return Status::FailedPrecondition("relation name " + relation_name +
                                      " is ambiguous across sites");
  }
  return it->second.front();
}

Status MetaKnowledgeBase::AddJoinConstraint(JoinConstraint jc) {
  if (!HasRelation(jc.left) || !HasRelation(jc.right)) {
    return Status::NotFound("join constraint references unregistered relation: " +
                            jc.ToString());
  }
  if (jc.condition.IsTrue()) {
    return Status::InvalidArgument(
        "join constraint must have at least one clause");
  }
  // The PC-derived memos never read join constraints: only the JC-pair
  // entries for the new endpoints can change.
  InvalidateTouching({}, {jc.left, jc.right});
  join_constraints_.push_back(std::move(jc));
  return Status::OK();
}

Status MetaKnowledgeBase::AddPcConstraint(PcConstraint pc) {
  EVE_RETURN_IF_ERROR(pc.Validate());
  if (!HasRelation(pc.left.relation) || !HasRelation(pc.right.relation)) {
    return Status::NotFound("PC constraint references unregistered relation: " +
                            pc.ToString());
  }
  // Every projected attribute must exist in the registered schema.
  for (const PcSide* side : {&pc.left, &pc.right}) {
    EVE_ASSIGN_OR_RETURN(Schema schema, GetSchema(side->relation));
    for (const std::string& a : side->attributes) {
      if (!schema.Contains(a)) {
        return Status::NotFound("PC constraint projects unknown attribute " +
                                side->relation.ToString() + "." + a);
      }
    }
  }
  // A new PC edge between these endpoints can extend any closure that
  // reached either of them; join constraints are untouched.
  InvalidateTouching({pc.left.relation, pc.right.relation}, {});
  pc_texts_.push_back(pc.ToString());
  pc_constraints_.push_back(std::move(pc));
  return Status::OK();
}

std::vector<const JoinConstraint*> MetaKnowledgeBase::FindJoinConstraints(
    const RelationId& a, const RelationId& b) const {
  // Normalized pair key: Connects() is symmetric, so both orientations
  // share one memo entry (and the store-order result is identical).  The
  // entry holds copies in a stable map node, so the returned pointers
  // survive both store reallocation and selective drops of other entries.
  const std::pair<RelationId, RelationId> key =
      a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto it = jc_pair_cache_.find(key);
  if (it == jc_pair_cache_.end()) {
    std::vector<JoinConstraint> found;
    for (const JoinConstraint& jc : join_constraints_) {
      if (jc.Connects(a, b)) found.push_back(jc);
    }
    it = jc_pair_cache_.emplace(key, std::move(found)).first;
  }
  std::vector<const JoinConstraint*> out;
  out.reserve(it->second.size());
  for (const JoinConstraint& jc : it->second) out.push_back(&jc);
  return out;
}

PcEdge MetaKnowledgeBase::MakeEdge(const PcConstraint& pc,
                                   const std::string& text, bool flipped) {
  const PcSide& src = flipped ? pc.right : pc.left;
  const PcSide& dst = flipped ? pc.left : pc.right;
  PcEdge edge;
  edge.constraint_text = text;
  edge.source = src.relation;
  edge.target = dst.relation;
  edge.type = flipped ? FlipPcRelationType(pc.type) : pc.type;
  for (size_t i = 0; i < src.attributes.size(); ++i) {
    edge.attribute_map[src.attributes[i]] = dst.attributes[i];
  }
  edge.source_selectivity = src.selectivity;
  edge.target_selectivity = dst.selectivity;
  edge.source_selection = src.selection;
  edge.target_selection = dst.selection;
  return edge;
}

std::vector<PcEdge> MetaKnowledgeBase::PcEdgesFrom(
    const RelationId& source) const {
  std::vector<PcEdge> out;
  for (size_t i = 0; i < pc_constraints_.size(); ++i) {
    const PcConstraint& pc = pc_constraints_[i];
    if (pc.left.relation == source && !(pc.right.relation == source)) {
      out.push_back(MakeEdge(pc, pc_texts_[i], /*flipped=*/false));
    } else if (pc.right.relation == source && !(pc.left.relation == source)) {
      out.push_back(MakeEdge(pc, pc_texts_[i], /*flipped=*/true));
    }
  }
  return out;
}

namespace {

// Structural dedup key of a derived edge: target + type + attribute map.
// Replaces the seed's string-rendered keys; equality stays exact (hash
// collisions fall back to the structural comparison of the unordered_map).
struct EdgeSignature {
  RelationId target;
  PcRelationType type;
  std::map<std::string, std::string> attribute_map;

  bool operator==(const EdgeSignature& o) const = default;
};

struct EdgeSignatureHash {
  size_t operator()(const EdgeSignature& k) const {
    size_t h = HashOf(k.target.site);
    h = HashCombine(h, HashOf(k.target.relation));
    h = HashCombine(h, static_cast<size_t>(k.type));
    for (const auto& [from, to] : k.attribute_map) {
      h = HashCombine(h, HashOf(from));
      h = HashCombine(h, HashOf(to));
    }
    return h;
  }
};

}  // namespace

const std::vector<PcEdge>& MetaKnowledgeBase::AdjacencyForLocked(
    const RelationId& source) const {
  auto it = adjacency_cache_.find(source);
  if (it == adjacency_cache_.end()) {
    it = adjacency_cache_.emplace(source, PcEdgesFrom(source)).first;
  }
  return it->second;
}

namespace {

// Breadth-first closure over `adjacency` (a callable RelationId -> edge
// list); shortest derivation wins the structural dedup because the search
// is breadth-first.
//
// An edge's children depend only on its signature (target, type, attribute
// map), so each derivation class is expanded once: by its first edge with
// an unselected target, which sits at the earliest hop and earliest in
// frontier order.  A later edge of the class would only rebuild children
// whose signatures the first one's children already claimed, at an earlier
// hop or earlier in the same frontier, so skipping it keeps the result
// byte-identical to expanding every path.  For the same reason a composed
// edge whose signature is already claimed is not built when it could never
// be expanded either (class already expanded, selected target, or last
// hop).  A miss therefore costs O(distinct derivations x degree) rather
// than O(paths).
//
// A non-null `gov` charges one work unit per frontier edge and per composed
// edge, bounding pathological closures under a governed context (the error
// aborts the search; callers must not cache the partial result).
template <typename AdjacencyFn>
Result<std::vector<PcEdge>> ComputeClosure(const RelationId& source,
                                           int max_hops,
                                           AdjacencyFn&& adjacency,
                                           ExecGovernor* gov) {
  std::vector<PcEdge> result;
  // Signature -> whether an edge of that class has been expanded.
  std::unordered_map<EdgeSignature, bool, EdgeSignatureHash> seen;

  // Frontier of derived edges source -> X, expanded breadth-first.
  std::vector<PcEdge> frontier = adjacency(source);
  for (int hop = 1; hop <= max_hops && !frontier.empty(); ++hop) {
    const bool expand = hop < max_hops;
    // Children of this hop's edges land on the last hop: never expanded.
    const bool children_final = hop + 1 == max_hops;
    std::vector<PcEdge> next;
    for (PcEdge& frontier_edge : frontier) {
      if (gov != nullptr) {
        EVE_RETURN_IF_ERROR(gov->Charge());
      }
      const auto [slot, inserted] = seen.try_emplace(EdgeSignature{
          frontier_edge.target, frontier_edge.type, frontier_edge.attribute_map});
      if (inserted) result.push_back(std::move(frontier_edge));
      const PcEdge& edge = inserted ? result.back() : frontier_edge;
      if (!expand) continue;
      // The intermediate fragment must be unselected for a sound join of
      // the two constraints.
      if (!edge.target_selection.IsTrue()) continue;
      if (slot->second) continue;  // Class already expanded.
      slot->second = true;
      for (const PcEdge& ext : adjacency(edge.target)) {
        if (ext.target == source || ext.target == edge.target) continue;
        if (!ext.source_selection.IsTrue()) continue;
        const auto type = ComposePcType(edge.type, ext.type);
        if (!type.has_value()) continue;
        EdgeSignature signature{ext.target, *type, {}};
        for (const auto& [from, mid] : edge.attribute_map) {
          const auto it = ext.attribute_map.find(mid);
          if (it != ext.attribute_map.end()) {
            signature.attribute_map[from] = it->second;
          }
        }
        if (signature.attribute_map.empty()) continue;
        if (const auto claimed = seen.find(signature);
            claimed != seen.end() &&
            (claimed->second || children_final ||
             !ext.target_selection.IsTrue())) {
          continue;  // Certain to be dropped unexpanded.
        }
        PcEdge composed;
        composed.constraint_text =
            edge.constraint_text + " o " + ext.constraint_text;
        composed.source = source;
        composed.target = ext.target;
        composed.type = *type;
        composed.attribute_map = std::move(signature.attribute_map);
        composed.source_selectivity = edge.source_selectivity;
        composed.target_selectivity = ext.target_selectivity;
        composed.source_selection = edge.source_selection;
        composed.target_selection = ext.target_selection;
        composed.hops = edge.hops + ext.hops;
        if (gov != nullptr) {
          EVE_RETURN_IF_ERROR(gov->Charge());
        }
        next.push_back(std::move(composed));
      }
    }
    frontier = std::move(next);
  }
  return result;
}

}  // namespace

const std::vector<PcEdge>& MetaKnowledgeBase::PcEdgesFromTransitive(
    const RelationId& source, int max_hops) const {
  // One lock spans lookup and (on a miss) the closure computation: concurrent
  // readers serialize only on cold misses, and the returned reference stays
  // valid because map nodes are stable and only mutators (single-writer)
  // invalidate.  Holding the lock through ComputeClosure also covers the
  // AdjacencyForLocked memo the closure search populates.
  std::lock_guard<std::mutex> lock(memo_mu_);
  const auto cache_key = std::make_pair(source, max_hops);
  if (const auto hit = closure_cache_.find(cache_key);
      hit != closure_cache_.end()) {
    ++memo_stats_.closure_hits;
    return hit->second;
  }
  ++memo_stats_.closure_misses;
  std::vector<PcEdge> result =
      ComputeClosure(
          source, max_hops,
          [this](const RelationId& id) -> const std::vector<PcEdge>& {
            return AdjacencyForLocked(id);
          },
          /*gov=*/nullptr)
          .value();  // Ungoverned closure cannot fail.
  return closure_cache_.emplace(cache_key, std::move(result)).first->second;
}

Result<const std::vector<PcEdge>*>
MetaKnowledgeBase::PcEdgesFromTransitiveGoverned(const RelationId& source,
                                                 int max_hops,
                                                 const ExecContext& ctx) const {
  EVE_FAULT_POINT("mkb.closure");
  std::lock_guard<std::mutex> lock(memo_mu_);
  const auto cache_key = std::make_pair(source, max_hops);
  if (const auto hit = closure_cache_.find(cache_key);
      hit != closure_cache_.end()) {
    ++memo_stats_.closure_hits;
    return &hit->second;
  }
  ++memo_stats_.closure_misses;
  ExecGovernor gov(ctx);
  EVE_ASSIGN_OR_RETURN(
      std::vector<PcEdge> result,
      ComputeClosure(
          source, max_hops,
          [this](const RelationId& id) -> const std::vector<PcEdge>& {
            return AdjacencyForLocked(id);
          },
          &gov));
  EVE_RETURN_IF_ERROR(gov.Flush());
  const std::vector<PcEdge>* memoized =
      &closure_cache_.emplace(cache_key, std::move(result)).first->second;
  return memoized;
}

std::vector<PcEdge> MetaKnowledgeBase::PcEdgesFromTransitiveUncached(
    const RelationId& source, int max_hops) const {
  return ComputeClosure(
             source, max_hops,
             [this](const RelationId& id) { return PcEdgesFrom(id); },
             /*gov=*/nullptr)
      .value();
}

std::vector<TypeConstraint> MetaKnowledgeBase::TypeConstraints() const {
  std::vector<TypeConstraint> out;
  for (const auto& [id, schema] : schemas_) {
    for (const Attribute& a : schema.attributes()) {
      out.push_back(TypeConstraint{id, a.name, a.type});
    }
  }
  return out;
}

std::string MetaKnowledgeBase::ToString() const {
  std::string out = "MKB {\n";
  for (const auto& [id, schema] : schemas_) {
    out += "  " + id.ToString() + schema.ToString();
    if (stats_.Has(id)) {
      const RelationStats s = stats_.Get(id).value();
      out += StrFormat("  |R|=%lld s=%lldB sigma=%s",
                       static_cast<long long>(s.cardinality),
                       static_cast<long long>(s.tuple_bytes),
                       FormatDouble(s.local_selectivity).c_str());
    }
    out += "\n";
  }
  for (const JoinConstraint& jc : join_constraints_) out += "  " + jc.ToString() + "\n";
  for (const PcConstraint& pc : pc_constraints_) out += "  " + pc.ToString() + "\n";
  out += StrFormat("  js=%s\n}", FormatDouble(stats_.join_selectivity()).c_str());
  return out;
}

Status MetaKnowledgeBase::RegisterRelationWithStats(const RelationId& id,
                                                    const Schema& schema,
                                                    int64_t cardinality,
                                                    double local_selectivity) {
  EVE_RETURN_IF_ERROR(RegisterRelation(id, schema));
  RelationStats stats;
  stats.cardinality = cardinality;
  stats.tuple_bytes = schema.TupleBytes();
  stats.local_selectivity = local_selectivity;
  stats_.Set(id, stats);
  return Status::OK();
}

}  // namespace eve
