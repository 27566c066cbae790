// Rewriting: one candidate replacement definition for an affected view,
// together with the provenance the QC-Model needs to score it (which
// relations were substituted via which PC edges, what was dropped, and the
// estimated extent relationship).

#ifndef EVE_SYNCH_REWRITING_H_
#define EVE_SYNCH_REWRITING_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/names.h"
#include "esql/ast.h"
#include "misd/mkb.h"
#include "synch/extent_relationship.h"

namespace eve {

/// One relation substitution performed by the synchronizer.
struct ReplacementRecord {
  RelationId replaced;     ///< The relation that disappeared (or lost an attr).
  RelationId replacement;  ///< The substitute relation.
  /// View-level FROM names: which FROM item of the original view was
  /// replaced and under which name the substitute appears in the rewriting.
  /// Needed to disambiguate self-joins (one relation, several aliases).
  std::string replaced_from_name;
  std::string replacement_from_name;
  /// The (self-contained) PC edge that licensed the substitution, oriented
  /// replaced -> replacement.
  PcEdge edge;
  /// True when the substitution joined `replacement` into the view next to
  /// the surviving `replaced` relation (attribute-level substitution),
  /// false when it replaced the FROM item outright.
  bool joined_in = false;
};

/// A candidate rewriting of a view.
struct Rewriting {
  ViewDefinition definition;

  /// Estimated relationship of the new extent to the old one.
  ExtentRel extent_relation = ExtentRel::kUnknown;
  /// True when the relationship follows from exact PC knowledge.
  bool extent_exact = false;

  /// Substitutions performed (empty for pure-drop rewritings).
  std::vector<ReplacementRecord> replacements;
  /// Reference renames caused by change-attribute-name /
  /// change-relation-name.  Renames preserve the referenced information
  /// exactly, so the legality checker admits them without requiring the
  /// replaceable flags.  Keys/values are view-level references
  /// ("fromName.attr" / FROM names).
  std::map<RelAttr, RelAttr> renamed_attributes;
  std::map<std::string, std::string> renamed_relations;
  /// The same relation renames by id, post-change -> pre-change (aliased
  /// FROM items included).  The QC model prices a renamed FROM item by its
  /// pre-change id: ranking runs before the MKB learns the new name.
  std::map<RelationId, RelationId> renamed_relation_ids;
  /// Output names of SELECT items dropped relative to the original view.
  std::vector<std::string> dropped_attributes;
  /// Rendered WHERE clauses dropped relative to the original view.
  std::vector<std::string> dropped_conditions;

  /// Strategy tag: "rename", "drop", "replace-relation", "join-in",
  /// "cvs-pair", optionally suffixed by "+drop".
  std::string strategy;
  /// Human-readable derivation notes.
  std::vector<std::string> notes;

  /// True when the rewriting only renames references: strategy "rename",
  /// no substitutions, no drops.  Such a rewriting computes exactly the
  /// original's extent under the original's output names (≡ without any
  /// constraint), so an adoption can keep the materialized extent.
  bool IsPureRename() const;

  /// Compact description for reports.
  std::string Summary() const;
};

/// Result of synchronizing one view against one capability change.
struct SynchronizationResult {
  /// False when the view does not reference the changed capability (the
  /// rewritings vector is then empty and the view stays untouched).
  bool affected = false;
  /// Legal rewritings, unranked (the QC-Model orders them).  Empty with
  /// affected == true AND truncated == false means the view cannot be
  /// preserved (it is dead).
  std::vector<Rewriting> rewritings;
  /// True when a governed enumeration stopped early (candidate budget or
  /// deadline of the ExecContext): `rewritings` holds the legal best-so-far
  /// candidates -- the paper's quality/cost trade-off as a degradation
  /// mode, not an error.  An empty truncated result proves nothing about
  /// view death.
  bool truncated = false;
  /// Human-readable cause when truncated (e.g. the budget status message).
  std::string truncation_reason;
  /// Enumeration work: candidates derived and offered to the legality /
  /// dedup / cap sinks.  Delta pipeline only; the eager oracle reports 0.
  int64_t candidates_considered = 0;
};

}  // namespace eve

#endif  // EVE_SYNCH_REWRITING_H_
