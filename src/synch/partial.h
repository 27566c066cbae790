// RewriteCandidate: the copy-on-write successor of the synchronizer's old
// eagerly-copied `Partial`.
//
// A candidate is a shared immutable base definition (`shared_ptr<const
// ViewDefinition>`, one allocation per Synchronize call) plus the compact
// `RewriteDelta` op log that derives it, together with the provenance the
// legality checker and the QC-Model need (extent relationship, replacement
// records, rename maps, dropped components, strategy tags).  Copying a
// candidate copies the op log and provenance only; the base is shared by
// every candidate of one enumeration.
//
// Materialization is lazy and one-shot: `Definition()` builds the full
// `ViewDefinition` on first use and caches it, so candidates pruned by
// legality, deduplication, or the result cap never pay the deep copy.
// `View()` compiles the (base, ops) overlay for delta-native queries
// (legality, structural hashing, quality / cost estimation) without any
// materialization at all.

#ifndef EVE_SYNCH_PARTIAL_H_
#define EVE_SYNCH_PARTIAL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "esql/view_delta.h"
#include "synch/extent_relationship.h"
#include "synch/rewriting.h"

namespace eve {

/// One substitution performed on a candidate, in lean (borrowing) form: the
/// licensing PC edge stays in the MKB's memoized closure storage instead of
/// being deep-copied (constraint text, selections, and attribute map) into
/// every candidate of a wide fan-out.  Materializing the candidate copies
/// the edge into a self-contained ReplacementRecord, applying the reduced
/// attribute map when one was recorded (CVS pair substitutions use only
/// part of each edge's map).
///
/// Lifetime: `edge` follows the MKB memo rule -- valid until the next
/// non-const MetaKnowledgeBase call.  Candidates must be materialized (or
/// dropped) before the MKB is mutated; the EVE system ranks and adopts
/// rewritings before applying the change to the MKB, which satisfies this
/// by construction.
struct CandidateReplacement {
  RelationId replaced;
  RelationId replacement;
  std::string replaced_from_name;
  std::string replacement_from_name;
  const PcEdge* edge = nullptr;
  /// Non-empty for CVS pairs: the per-attribute subset of edge's map this
  /// substitution actually used.
  std::map<std::string, std::string> reduced_map;
  bool joined_in = false;

  const std::map<std::string, std::string>& attribute_map() const {
    return reduced_map.empty() ? edge->attribute_map : reduced_map;
  }

  /// The self-contained record (deep-copies the edge).
  ReplacementRecord Materialize() const;
};

/// A provenance note in unrendered form: the strategy that produced it plus
/// the handful of values the note interpolates.  Enumeration used to build
/// the full note string per derived candidate; since most candidates are
/// pruned by legality, deduplication, or the result cap, those
/// concatenations were pure waste.  Render() produces the string -- byte
/// for byte the one the eager pipeline emits -- and only runs for
/// candidates that survive to a Rewriting (ToRewriting).
///
/// Lifetime: `edge`, `edge2`, and `jc` follow the same MKB memo rule as
/// CandidateReplacement::edge -- valid until the next non-const
/// MetaKnowledgeBase call, which the rank-then-adopt order satisfies by
/// construction.
struct NoteTemplate {
  enum class Kind {
    kAttributeRenamed,      ///< "attribute <a> renamed to <b>"
    kRelationRenamed,       ///< "relation <id> renamed to <a>"
    kDroppedAttributeRefs,  ///< "dropped references to deleted attribute <a>.<b>"
    kDroppedRelation,       ///< "dropped deleted relation <a>"
    kDroppedUnreferenced,   ///< "dropped now-unreferenced relation <a>"
    kPcFragmentCondition,   ///< "added PC fragment condition on <a>"
    kReplacedRelation,      ///< "replaced <edge.source> by <edge.target>"
    kJoinInRecovered,       ///< "recovered <a>.<b> from <edge.target> via <jc>"
    kCvsPairReplaced,  ///< "replaced <a> by join of <edge.target> and <edge2.target>"
  };

  Kind kind = Kind::kAttributeRenamed;
  std::string a;  ///< First interpolated name (SSO-sized in practice).
  std::string b;  ///< Second interpolated name, when the note has one.
  RelationId id;  ///< Pre-rename identity (kRelationRenamed only).
  const PcEdge* edge = nullptr;
  const PcEdge* edge2 = nullptr;  ///< Second edge of a CVS pair.
  const JoinConstraint* jc = nullptr;

  static NoteTemplate AttributeRenamed(std::string from, std::string to);
  static NoteTemplate RelationRenamed(RelationId old_id, std::string new_name);
  static NoteTemplate DroppedAttributeRefs(std::string from_name,
                                           std::string attr);
  static NoteTemplate DroppedRelation(std::string from_name);
  static NoteTemplate DroppedUnreferenced(std::string from_name);
  static NoteTemplate PcFragmentCondition(std::string new_name);
  static NoteTemplate ReplacedRelation(const PcEdge* edge);
  static NoteTemplate JoinInRecovered(std::string from_name, std::string attr,
                                      const PcEdge* edge,
                                      const JoinConstraint* jc);
  static NoteTemplate CvsPairReplaced(std::string from_name, const PcEdge* e1,
                                      const PcEdge* e2);

  /// The human-readable note, identical to the eager pipeline's string.
  std::string Render() const;
};

/// One (base, delta) rewriting candidate with provenance.
struct RewriteCandidate {
  std::shared_ptr<const ViewDefinition> base;
  std::vector<RewriteDelta> ops;

  ExtentRel extent_relation = ExtentRel::kEqual;
  bool extent_exact = true;
  std::vector<CandidateReplacement> replacements;
  std::map<RelAttr, RelAttr> renamed_attributes;
  std::map<std::string, std::string> renamed_relations;
  std::map<RelationId, RelationId> renamed_relation_ids;
  std::vector<std::string> dropped_attributes;
  std::vector<std::string> dropped_conditions;
  std::vector<NoteTemplate> notes;      ///< Rendered only in ToRewriting.
  std::vector<std::string> strategies;  ///< Raw tags; joined + deduped later.

  /// Lattice composition of one more transformation (as the old Partial).
  void Compose(ExtentRel r, bool r_exact) {
    extent_relation = ComposeExtentRel(extent_relation, r);
    extent_exact = extent_exact && r_exact;
  }

  /// Compiles the read-only overlay over (base, ops).  O(|base| + |ops|),
  /// no item deep copies.
  DeltaView View() const { return DeltaView(*base, ops); }

  /// The materialized definition; built on first call and cached (one-shot
  /// lazy materialization).  Not thread-safe with itself on the same
  /// candidate.
  const ViewDefinition& Definition() const;

  /// Rewriting::IsPureRename() of the converted candidate, without
  /// converting it.
  bool IsPureRename() const;

  /// Converts to the public Rewriting (materialized definition + provenance,
  /// strategy tags joined with '+' and deduplicated in first-seen order,
  /// exactly as the eager pipeline produced them).
  Rewriting ToRewriting() const&;
  Rewriting ToRewriting() &&;

  /// Conversion with an externally materialized definition (e.g. from an
  /// already-compiled overlay), skipping the Apply replay.
  Rewriting ToRewriting(ViewDefinition definition) &&;

 private:
  mutable std::shared_ptr<const ViewDefinition> materialized_;
};

/// Result of the delta-native synchronization API: like
/// SynchronizationResult, but candidates stay unmaterialized.
struct CandidateSynchronizationResult {
  bool affected = false;
  std::vector<RewriteCandidate> candidates;
  /// Best-so-far degradation marker; see SynchronizationResult::truncated.
  bool truncated = false;
  std::string truncation_reason;
  /// Enumeration work: candidates the strategies derived and offered to the
  /// legality / dedup / cap sinks (counted whether or not they survived).
  /// The policy layer's savings metric.  Delta pipeline only; the eager
  /// oracle reports 0.
  int64_t candidates_considered = 0;
};

}  // namespace eve

#endif  // EVE_SYNCH_PARTIAL_H_
