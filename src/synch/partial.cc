#include "synch/partial.h"

#include <algorithm>

#include "common/str_util.h"

namespace eve {

namespace {

// Strategy tags joined with '+', deduplicated preserving first-seen order
// (identical to the eager pipeline's ToRewriting).
std::string JoinStrategies(const std::vector<std::string>& strategies) {
  std::vector<std::string> tags;
  for (const std::string& s : strategies) {
    if (std::find(tags.begin(), tags.end(), s) == tags.end()) tags.push_back(s);
  }
  return Join(tags, "+");
}

}  // namespace

NoteTemplate NoteTemplate::AttributeRenamed(std::string from, std::string to) {
  NoteTemplate n;
  n.kind = Kind::kAttributeRenamed;
  n.a = std::move(from);
  n.b = std::move(to);
  return n;
}

NoteTemplate NoteTemplate::RelationRenamed(RelationId old_id,
                                           std::string new_name) {
  NoteTemplate n;
  n.kind = Kind::kRelationRenamed;
  n.id = std::move(old_id);
  n.a = std::move(new_name);
  return n;
}

NoteTemplate NoteTemplate::DroppedAttributeRefs(std::string from_name,
                                                std::string attr) {
  NoteTemplate n;
  n.kind = Kind::kDroppedAttributeRefs;
  n.a = std::move(from_name);
  n.b = std::move(attr);
  return n;
}

NoteTemplate NoteTemplate::DroppedRelation(std::string from_name) {
  NoteTemplate n;
  n.kind = Kind::kDroppedRelation;
  n.a = std::move(from_name);
  return n;
}

NoteTemplate NoteTemplate::DroppedUnreferenced(std::string from_name) {
  NoteTemplate n;
  n.kind = Kind::kDroppedUnreferenced;
  n.a = std::move(from_name);
  return n;
}

NoteTemplate NoteTemplate::PcFragmentCondition(std::string new_name) {
  NoteTemplate n;
  n.kind = Kind::kPcFragmentCondition;
  n.a = std::move(new_name);
  return n;
}

NoteTemplate NoteTemplate::ReplacedRelation(const PcEdge* edge) {
  NoteTemplate n;
  n.kind = Kind::kReplacedRelation;
  n.edge = edge;
  return n;
}

NoteTemplate NoteTemplate::JoinInRecovered(std::string from_name,
                                           std::string attr, const PcEdge* edge,
                                           const JoinConstraint* jc) {
  NoteTemplate n;
  n.kind = Kind::kJoinInRecovered;
  n.a = std::move(from_name);
  n.b = std::move(attr);
  n.edge = edge;
  n.jc = jc;
  return n;
}

NoteTemplate NoteTemplate::CvsPairReplaced(std::string from_name,
                                           const PcEdge* e1, const PcEdge* e2) {
  NoteTemplate n;
  n.kind = Kind::kCvsPairReplaced;
  n.a = std::move(from_name);
  n.edge = e1;
  n.edge2 = e2;
  return n;
}

std::string NoteTemplate::Render() const {
  switch (kind) {
    case Kind::kAttributeRenamed:
      return "attribute " + a + " renamed to " + b;
    case Kind::kRelationRenamed:
      return "relation " + id.ToString() + " renamed to " + a;
    case Kind::kDroppedAttributeRefs:
      return "dropped references to deleted attribute " + a + "." + b;
    case Kind::kDroppedRelation:
      return "dropped deleted relation " + a;
    case Kind::kDroppedUnreferenced:
      return "dropped now-unreferenced relation " + a;
    case Kind::kPcFragmentCondition:
      return "added PC fragment condition on " + a;
    case Kind::kReplacedRelation:
      return "replaced " + edge->source.ToString() + " by " +
             edge->target.ToString();
    case Kind::kJoinInRecovered:
      return "recovered " + a + "." + b + " from " + edge->target.ToString() +
             " via " + jc->ToString();
    case Kind::kCvsPairReplaced:
      return "replaced " + a + " by join of " + edge->target.ToString() +
             " and " + edge2->target.ToString();
  }
  return {};
}

ReplacementRecord CandidateReplacement::Materialize() const {
  ReplacementRecord record;
  record.replaced = replaced;
  record.replacement = replacement;
  record.replaced_from_name = replaced_from_name;
  record.replacement_from_name = replacement_from_name;
  record.edge = *edge;
  if (!reduced_map.empty()) record.edge.attribute_map = reduced_map;
  record.joined_in = joined_in;
  return record;
}

const ViewDefinition& RewriteCandidate::Definition() const {
  if (materialized_ == nullptr) {
    if (ops.empty()) {
      materialized_ = base;  // Identity candidate: share the base outright.
    } else {
      materialized_ = std::make_shared<const ViewDefinition>(base->Apply(ops));
    }
  }
  return *materialized_;
}

namespace {

// One materialization, bypassing the cache when it is cold so conversion
// never pays a second deep copy on top of Apply().
ViewDefinition MaterializeOnce(
    const std::shared_ptr<const ViewDefinition>& cached,
    const std::shared_ptr<const ViewDefinition>& base,
    std::span<const RewriteDelta> ops) {
  if (cached != nullptr) return *cached;
  if (ops.empty()) return *base;
  return base->Apply(ops);
}

}  // namespace

namespace {

std::vector<ReplacementRecord> MaterializeReplacements(
    const std::vector<CandidateReplacement>& replacements) {
  std::vector<ReplacementRecord> out;
  out.reserve(replacements.size());
  for (const CandidateReplacement& r : replacements) {
    out.push_back(r.Materialize());
  }
  return out;
}

// Renders the surviving candidate's note templates; the only place note
// strings are ever built on the delta pipeline.
std::vector<std::string> RenderNotes(const std::vector<NoteTemplate>& notes) {
  std::vector<std::string> out;
  out.reserve(notes.size());
  for (const NoteTemplate& n : notes) out.push_back(n.Render());
  return out;
}

}  // namespace

Rewriting RewriteCandidate::ToRewriting() const& {
  Rewriting out;
  out.definition = MaterializeOnce(materialized_, base, ops);
  out.extent_relation = extent_relation;
  out.extent_exact = extent_exact;
  out.replacements = MaterializeReplacements(replacements);
  out.renamed_attributes = renamed_attributes;
  out.renamed_relations = renamed_relations;
  out.renamed_relation_ids = renamed_relation_ids;
  out.dropped_attributes = dropped_attributes;
  out.dropped_conditions = dropped_conditions;
  out.notes = RenderNotes(notes);
  out.strategy = JoinStrategies(strategies);
  return out;
}

bool RewriteCandidate::IsPureRename() const {
  return JoinStrategies(strategies) == "rename" && replacements.empty() &&
         dropped_attributes.empty() && dropped_conditions.empty();
}

Rewriting RewriteCandidate::ToRewriting() && {
  return std::move(*this).ToRewriting(MaterializeOnce(materialized_, base, ops));
}

Rewriting RewriteCandidate::ToRewriting(ViewDefinition definition) && {
  Rewriting out;
  out.definition = std::move(definition);
  out.extent_relation = extent_relation;
  out.extent_exact = extent_exact;
  out.replacements = MaterializeReplacements(replacements);
  out.renamed_attributes = std::move(renamed_attributes);
  out.renamed_relations = std::move(renamed_relations);
  out.renamed_relation_ids = std::move(renamed_relation_ids);
  out.dropped_attributes = std::move(dropped_attributes);
  out.dropped_conditions = std::move(dropped_conditions);
  out.notes = RenderNotes(notes);
  out.strategy = JoinStrategies(strategies);
  return out;
}

}  // namespace eve
