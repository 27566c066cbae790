// ViewKnowledgeBase (VKB): the registry of views defined over the
// information space, their materialized extents, and their evolution
// history (paper Fig. 1, "View Knowledge Base" + "View Space").

#ifndef EVE_VKB_VIEW_KNOWLEDGE_BASE_H_
#define EVE_VKB_VIEW_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/names.h"
#include "common/result.h"
#include "esql/ast.h"
#include "storage/relation.h"

namespace eve {

/// Life-cycle states of a view under evolution (Experiment 1, Fig. 12).
enum class ViewState {
  kAlive,     ///< Definition valid against the current information space.
  kAffected,  ///< A capability change invalidated it; awaiting synchronization.
  kDead,      ///< No legal rewriting existed; the view is deceased.
};

std::string_view ViewStateToString(ViewState state);

/// One step in a view's evolution history.
struct EvolutionRecord {
  std::string trigger;      ///< The schema change that forced the rewrite.
  std::string old_version;  ///< Compact E-SQL of the replaced definition.
  std::string new_version;  ///< Compact E-SQL of the adopted rewriting
                            ///< (empty when the view died).
};

/// A registered view: definition, materialized extent, state, and history.
struct ViewEntry {
  ViewDefinition definition;
  Relation extent;          ///< Materialized extent (may be empty if never
                            ///< materialized).
  bool materialized = false;
  ViewState state = ViewState::kAlive;
  std::vector<EvolutionRecord> history;
};

/// The view registry.
class ViewKnowledgeBase {
 public:
  /// Registers a validated view definition.  Fails on duplicate names.
  Status Define(ViewDefinition definition);

  /// Removes a view.
  Status Drop(const std::string& name);

  Result<const ViewEntry*> Get(const std::string& name) const;
  /// Mutable access for extent maintenance.  Definitions and states change
  /// only through Define / Drop / ReplaceDefinition / MarkDead, which keep
  /// version() current; callers must not edit them through this pointer.
  Result<ViewEntry*> GetMutable(const std::string& name);

  /// Process-unique stamp of the registered definitions and states, fresh
  /// after every Define, Drop, ReplaceDefinition and MarkDead; extent
  /// maintenance (SetExtent, GetMutable) keeps it.  Equal stamps imply
  /// identical alive view definitions, so snapshot capture shares the
  /// previous epoch's definition map while the stamp holds.
  uint64_t version() const { return version_; }

  bool Has(const std::string& name) const { return views_.count(name) > 0; }

  /// Sorted names of all registered views.
  std::vector<std::string> ViewNames() const;

  /// Views whose definition references relation `id` (by FROM item, with
  /// sites resolved through `site_of`: a map from bare relation name to
  /// site).  Used by the view synchronizer to find affected views.
  std::vector<std::string> ViewsReferencing(
      const RelationId& id,
      const std::map<std::string, std::string>& site_of) const;

  /// Stores a freshly computed extent for `name`.
  Status SetExtent(const std::string& name, Relation extent);

  /// Replaces the definition after a synchronization step and logs history.
  /// The stored extent no longer counts as materialized and must be
  /// recomputed, unless `keep_extent`: the caller vouches that the new
  /// definition computes exactly the stored extent (a pure-rename
  /// adoption), and the extent and its `materialized` flag stay as they are.
  Status ReplaceDefinition(const std::string& name, ViewDefinition new_def,
                           const std::string& trigger,
                           bool keep_extent = false);

  /// Marks a view dead, logging the terminal history record.
  Status MarkDead(const std::string& name, const std::string& trigger);

 private:
  /// Process-unique, never 0, so stamps of distinct registries differ.
  static uint64_t NextVersion();
  void Touch() { version_ = NextVersion(); }

  std::map<std::string, ViewEntry> views_;
  uint64_t version_ = NextVersion();
};

}  // namespace eve

#endif  // EVE_VKB_VIEW_KNOWLEDGE_BASE_H_
