// MetaKnowledgeBase (MKB): the registry of information-source capabilities
// and inter-source semantic constraints (paper §3.2 and Fig. 1).
//
// The MKB stores, per registered relation, its schema (the capability
// description IS.R(A1..An), Eq. 3, with type constraints implied by the
// schema) plus statistics, and globally the JC and PC constraints.  The
// view synchronizer queries it to discover replacements; the MKB Evolver
// role of Fig. 1 is covered by ApplySchemaChange-style mutators that keep
// the constraint set consistent when sources change capabilities.

#ifndef EVE_MISD_MKB_H_
#define EVE_MISD_MKB_H_

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/names.h"
#include "catalog/schema.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "misd/constraints.h"
#include "misd/statistics.h"

namespace eve {

/// Counters describing the behavior of the MKB's derived-state memos under
/// mutation (see MetaKnowledgeBase::set_selective_invalidation).  Snapshot
/// via MetaKnowledgeBase::memo_stats(); all counters are cumulative.
struct MkbMemoStats {
  /// Closure (PcEdgesFromTransitive) memo hits / misses.
  int64_t closure_hits = 0;
  int64_t closure_misses = 0;
  /// Memo entries (all three caches) that survived a mutation because the
  /// mutated relation set did not intersect their touched set, vs entries
  /// dropped by the delta-aware sweep.
  int64_t memo_survivals = 0;
  int64_t selective_drops = 0;
  /// Closure-cache-only split of the above (the survival fraction of the
  /// enumeration hot path, reported by the evolution-stream harness).
  int64_t closure_survivals = 0;
  int64_t closure_drops = 0;
  /// Full-flush invalidations (selective invalidation disabled).
  int64_t full_flushes = 0;
};

/// A PC-derived replacement edge, normalized so that `source` is the
/// relation being replaced and `target` the candidate replacement.
struct PcEdge {
  /// Rendering of the underlying constraint (for provenance; edges are
  /// self-contained so rewritings survive later MKB evolution).
  std::string constraint_text;
  RelationId source;
  RelationId target;
  /// Extent relation of source fragment vs target fragment, read
  /// source-to-target (kSubset: source fragment ⊆ target fragment).
  PcRelationType type = PcRelationType::kEquivalent;
  /// Attribute mapping source attr -> target attr (positional).
  std::map<std::string, std::string> attribute_map;
  /// Selectivities of the source-side / target-side selections.
  double source_selectivity = 1.0;
  double target_selectivity = 1.0;
  /// Selection conditions (bare relation names).
  Conjunction source_selection;
  Conjunction target_selection;
  /// Derivation depth: 1 for a direct constraint, k for an edge composed
  /// of k chained constraints by the transitive closure.  Feeds the policy
  /// layer's PC-hop-depth candidate feature.
  int hops = 1;
};

/// The Meta Knowledge Base.
class MetaKnowledgeBase {
 public:
  // --- Capability registration -------------------------------------------

  /// Registers relation `id` with schema `schema`.  Fails if already known.
  Status RegisterRelation(const RelationId& id, const Schema& schema);

  /// Unregisters a relation and drops every constraint touching it.
  /// Before dropping, the consistency checker installs *bridge* PC
  /// constraints between the surviving endpoints of constraint pairs that
  /// met at the disappearing relation (see BridgeConstraintsThrough), so
  /// replacement knowledge survives the deletion -- this is what lets a
  /// once-replaced view evolve again (paper Experiment 1, Fig. 12).
  /// Returns the number of dropped constraints.
  Result<int> UnregisterRelation(const RelationId& id);

  /// Removes attribute `attr` from the registered schema and drops every
  /// constraint referencing it (after installing bridges, as above).
  /// Returns the number of dropped constraints.
  Result<int> RemoveAttribute(const RelationId& id, const std::string& attr);

  /// Adds an attribute to a registered schema.
  Status AddAttribute(const RelationId& id, const Attribute& attribute);

  /// Renames a relation, rewriting constraints in place.
  Status RenameRelation(const RelationId& from, const std::string& new_name);

  /// Renames an attribute, rewriting schema and constraints in place.
  Status RenameAttribute(const RelationId& id, const std::string& from,
                         const std::string& to);

  bool HasRelation(const RelationId& id) const;
  Result<Schema> GetSchema(const RelationId& id) const;

  /// All registered relations (sorted by id).
  std::vector<RelationId> Relations() const;

  /// Resolves a bare relation name to its RelationId.  Fails if unknown
  /// (NotFound) or ambiguous across sites (FailedPrecondition).  O(1): a
  /// bare-name index kept by RegisterRelation, UnregisterRelation and
  /// RenameRelation answers it.
  Result<RelationId> ResolveName(const std::string& relation_name) const;

  // --- Constraints ---------------------------------------------------------

  Status AddJoinConstraint(JoinConstraint jc);
  Status AddPcConstraint(PcConstraint pc);

  const std::vector<JoinConstraint>& join_constraints() const {
    return join_constraints_;
  }
  const std::vector<PcConstraint>& pc_constraints() const {
    return pc_constraints_;
  }

  /// Join constraints connecting `a` and `b` (either orientation), in
  /// store order.  Memoized per normalized pair (the CVS pair search probes
  /// every target pair of a wide fan-out, which made the former full-store
  /// scan quadratic in practice); a constraint mutation touching `a` or `b`
  /// invalidates the entry (every mutation, with selective invalidation
  /// off), and the returned pointers follow the same validity rule as the
  /// closure memo: valid until the next non-const MKB call.
  std::vector<const JoinConstraint*> FindJoinConstraints(
      const RelationId& a, const RelationId& b) const;

  /// All PC edges with `source` as the replaced relation (both stored
  /// orientations are normalized into source->target edges).
  std::vector<PcEdge> PcEdgesFrom(const RelationId& source) const;

  /// PC edges derived by composing up to `max_hops` constraints through
  /// intermediate relations (e.g. S1 ⊆ S2 and S2 ⊆ S3 imply S1 ⊆ S3).
  /// Composition is conservative: it requires the intermediate fragments to
  /// be unselected, composes attribute maps positionally, and combines set
  /// relations only when compatible (equivalent is neutral; subset chains
  /// stay subset, superset chains stay superset; mixing is not derivable).
  /// Direct (1-hop) edges are included.  Results are deduplicated, keeping
  /// the shortest derivation per (target, type, attribute map), in
  /// breadth-first order.
  ///
  /// Expansion rule: an edge's extensions depend only on that signature,
  /// so the breadth-first search expands each derivation class once, at
  /// its first edge with an unselected target, and never builds a composed
  /// edge whose signature is already claimed unless it may still be
  /// expanded.  The result is exactly what expanding every path would give
  /// (the first derivation per signature), but a miss costs
  /// O(distinct derivations x degree) instead of O(paths): chains that fan
  /// into a shared hub derive the hub's closure once, not once per path.
  ///
  /// The closure is memoized per (source, max_hops); a mutation touching a
  /// relation the closure reached invalidates the entry -- unrelated
  /// mutations leave it warm (see set_selective_invalidation; with the
  /// flag off, any mutation flushes everything).  The returned reference is
  /// valid until the next non-const MKB call.  The synchronizer queries the
  /// same closure up to three times per FROM item per partial
  /// (replace-relation, join-in, cvs-pair), so this memo is the dominant
  /// saving of the rewriting-enumeration hot path.
  ///
  /// Thread-safe against other const calls (the memo maps are mutex-
  /// guarded, mirroring the Relation cache pattern), so extent-replay
  /// drivers may synchronize independent views against one MKB from
  /// ParallelFor workers.  The single-writer caveat applies as everywhere:
  /// mutating the MKB concurrently with readers requires external
  /// synchronization, since a mutation invalidates memo references a
  /// reader may still hold.
  const std::vector<PcEdge>& PcEdgesFromTransitive(const RelationId& source,
                                                   int max_hops = 4) const;

  /// Governed variant of PcEdgesFromTransitive: a memo hit is returned
  /// as-is (free); a miss runs the closure search charging one row-budget
  /// work unit per frontier edge and per composed edge it builds (pruned
  /// duplicates are never built, so they cost nothing) against `ctx`,
  /// honoring its deadline and cancellation.  A governance failure caches
  /// nothing, so the memo never holds a partial closure.  The returned pointer follows
  /// the same validity rule as PcEdgesFromTransitive's reference.
  Result<const std::vector<PcEdge>*> PcEdgesFromTransitiveGoverned(
      const RelationId& source, int max_hops, const ExecContext& ctx) const;

  /// The same closure computed without any memoization: the adjacency lists
  /// are rebuilt by scanning the constraint store per expanded node, and
  /// the result is not cached.  It runs the same once-per-class expansion,
  /// so it is the no-memo benchmark baseline and the memo's equivalence
  /// oracle, not a second algorithm.
  std::vector<PcEdge> PcEdgesFromTransitiveUncached(const RelationId& source,
                                                    int max_hops = 4) const;

  /// Type constraints implied by the registered schemas.
  std::vector<TypeConstraint> TypeConstraints() const;

  // --- Statistics ----------------------------------------------------------

  StatisticsStore& stats() { return stats_; }
  const StatisticsStore& stats() const { return stats_; }

  /// Registers schema and statistics in one call (convenience).
  Status RegisterRelationWithStats(const RelationId& id, const Schema& schema,
                                   int64_t cardinality,
                                   double local_selectivity = 1.0);

  /// Human-readable dump (for examples and debugging).
  std::string ToString() const;

  // --- Derived-memo invalidation policy ------------------------------------

  /// Delta-aware invalidation (the default): every mutator computes the set
  /// of relations it touches and drops only the memo entries whose touched
  /// set intersects it, keeping closures warm across unrelated changes --
  /// the difference between O(stream) and O(stream^2) closure work on long
  /// evolution streams.  Off restores the seed's drop-everything behavior,
  /// kept as the equivalence oracle (both modes answer every query
  /// identically; only the amount of recomputation differs).
  void set_selective_invalidation(bool on) { selective_invalidation_ = on; }
  bool selective_invalidation() const { return selective_invalidation_; }

  /// Snapshot of the memo behavior counters.
  MkbMemoStats memo_stats() const;

 private:
  // `text` is pc's stored rendering (pc_texts_), copied into the edge.
  static PcEdge MakeEdge(const PcConstraint& pc, const std::string& text,
                         bool flipped);

  // Drops `id` from the bare-name index (ids_by_name_).
  void UnindexName(const RelationId& id);

  // Installs PC constraints composing each pair of soon-to-be-dropped
  // constraints that meet at `through` (optionally only those referencing
  // `attr` of it).  Sound compositions keep their containment direction;
  // Y superset X subset Z pairs degrade to kIncomparable ("same information
  // type, unknown containment").
  void BridgeConstraintsThrough(const RelationId& through,
                                const std::string* attr);

  // Memoized normalized adjacency (PcEdgesFrom) for the closure search.
  // Requires memo_mu_ held.
  const std::vector<PcEdge>& AdjacencyForLocked(const RelationId& source) const;

  // Delta-aware invalidation: drops the adjacency/closure entries whose
  // touched relation set intersects `pc_mutated` and the JC-pair entries
  // whose pair intersects `jc_mutated`.  An entry's touched set is derived
  // from its contents -- {key source} + every cached edge target -- which
  // is sound because any constraint the closure search ever examined
  // involves a relation that ended up in that set (see mkb.cc).  With
  // selective invalidation disabled, any non-empty mutation set degrades to
  // the seed's full flush.  Counts survivals/drops into memo_stats_.
  void InvalidateTouching(const std::vector<RelationId>& pc_mutated,
                          const std::vector<RelationId>& jc_mutated);

  // The relations whose PC memo entries a mutation of `id`'s constraint set
  // can affect: {id} + the targets of every current PC edge at `id`.
  // Covers the bridge constraints UnregisterRelation/RemoveAttribute
  // install between pairs of those targets.  Call BEFORE mutating.
  std::vector<RelationId> PcNeighborhood(const RelationId& id) const;

  std::map<RelationId, Schema> schemas_;
  std::vector<JoinConstraint> join_constraints_;
  std::vector<PcConstraint> pc_constraints_;
  // pc_texts_[i] == pc_constraints_[i].ToString(), rendered once when the
  // constraint is stored or rewritten; edges and bridge dedup copy it.
  std::vector<std::string> pc_texts_;
  // Bare relation name -> every registered id with that name (ResolveName).
  std::unordered_map<std::string, std::vector<RelationId>> ids_by_name_;
  StatisticsStore stats_;
  bool selective_invalidation_ = true;

  // Lazily built derived state (std::map nodes are stable, so returned
  // references survive unrelated insertions AND selective drops of other
  // entries).  Guarded by memo_mu_ so concurrent const readers may populate
  // the memos; mutators still follow the single-writer contract (see
  // PcEdgesFromTransitive).  The JC-pair cache stores constraint COPIES:
  // the backing join_constraints_ vector reallocates on insert and
  // compacts on erase, so surviving entries must not point into it; the
  // copies in stable map nodes extend the returned pointers' validity to
  // "until the entry is dropped", which subsumes the documented
  // next-non-const-call rule.
  mutable std::mutex memo_mu_;
  mutable std::map<RelationId, std::vector<PcEdge>> adjacency_cache_;
  mutable std::map<std::pair<RelationId, int>, std::vector<PcEdge>>
      closure_cache_;
  mutable std::map<std::pair<RelationId, RelationId>,
                   std::vector<JoinConstraint>>
      jc_pair_cache_;
  mutable MkbMemoStats memo_stats_;
};

}  // namespace eve

#endif  // EVE_MISD_MKB_H_
