// EveSystem: the end-to-end Evolvable View Environment (paper Fig. 1).
//
// It owns the information space, the Meta Knowledge Base, and the View
// Knowledge Base, and wires together the view synchronizer, the QC-Model,
// the query executor, and the incremental view maintainer.
//
// Lifecycle of a capability change (NotifySchemaChange):
//   1. identify the affected views (VKB lookup);
//   2. synchronize each against the PRE-change MKB (the constraints about
//      the disappearing capability license its replacement);
//   3. rank the legal rewritings with the QC-Model and adopt the best one
//      (or mark the view dead when none exists);
//   4. apply the change to the information space and evolve the MKB;
//   5. rematerialize the adopted rewritings.

#ifndef EVE_EVE_EVE_SYSTEM_H_
#define EVE_EVE_EVE_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "esql/ast.h"
#include "maintenance/maintainer.h"
#include "misd/mkb.h"
#include "plan/plan_cache.h"
#include "policy/policy.h"
#include "policy/ranker.h"
#include "qc/ranking.h"
#include "serve/snapshot.h"
#include "space/information_space.h"
#include "synch/synchronizer.h"
#include "types/string_pool.h"
#include "vkb/view_knowledge_base.h"

namespace eve {

/// Per-view outcome of one capability change.
struct ViewSynchronizationReport {
  std::string view_name;
  bool affected = false;
  /// True when the governed rewriting enumeration stopped early (deadline /
  /// candidate budget): the ranking covers the best-so-far legal rewritings
  /// only.  Never set when the system runs ungoverned.
  bool truncated = false;
  ViewState resulting_state = ViewState::kAlive;
  /// Ranked legal rewritings (best first); empty when unaffected or dead.
  std::vector<RankedRewriting> ranking;
  /// Compact E-SQL of the adopted rewriting (empty when none).
  std::string adopted;
  /// What the policy layer decided for this (change, view) pair.  Always
  /// kFull under PolicyMode::kExhaustive, so exhaustive reports render
  /// byte-identically to the seed's (the annotation only prints for the
  /// selective actions).
  PolicyAction policy_action = PolicyAction::kFull;

  std::string ToString() const;
};

/// Outcome of NotifySchemaChange across all views.
struct ChangeReport {
  std::string change;
  std::vector<ViewSynchronizationReport> views;
  int mkb_constraints_dropped = 0;

  std::string ToString() const;
};

/// Configuration of an EveSystem: the one configuration surface of the
/// pipeline (enumeration, decision policy, ranking, maintenance, threading,
/// governance).  policy/presets.h names three starting points.
struct EveOptions {
  SynchronizerOptions synchronizer;
  QcParameters qc;
  CostModelOptions cost;
  WorkloadOptions workload;
  MaintainerOptions maintainer;
  /// Materialize view extents on definition and after synchronization.
  bool materialize = true;
  /// Adopt the first legal rewriting the synchronizer generates instead of
  /// the QC-Model's top pick.  This reproduces the behavior of the original
  /// EVE prototype (paper §8) and exists for head-to-head comparisons; the
  /// ranking is still computed for reporting.
  bool adopt_first_legal = false;
  /// The selective rewriting policy (policy/policy.h).  The default
  /// (PolicyMode::kExhaustive) bypasses the decision layer entirely and is
  /// byte-identical to the seed's always-enumerate behavior.
  PolicyConfig policy;
  /// Optional adoption ranker plugin (policy/ranker.h).  Null adopts the
  /// QC-Model's top pick (the paper's behavior).  When set, the QC ranking
  /// is still computed and reported, but the adopted rewriting is the
  /// ranker's stable argmax.
  std::shared_ptr<const CandidateRanker> ranker;
  /// Worker threads for the per-view enumerate+rank loop of
  /// NotifySchemaChange (the views are independent: each synchronizes
  /// against the same PRE-change MKB, whose memos are mutex-populated).
  /// 0 picks DefaultThreadCount(); 1 forces the serial loop.  Parallelism
  /// only engages for ungoverned runs with no armed fault sites and when
  /// not already inside a parallel region -- in every such case the
  /// ChangeReport is byte-identical to the serial loop's (reports are
  /// collected in deterministic candidate order and the lowest-index hard
  /// error wins), so the serial path stays the equivalence oracle.
  int synchronize_threads = 0;
  /// Optional resource governance for every long-running path the system
  /// drives (synchronization, materialization, maintenance).  Borrowed, not
  /// owned -- must outlive the system.  Null runs ungoverned.
  ///
  /// Degradation semantics: a deadline or candidate-budget stop during
  /// rewriting enumeration adopts the best rewriting found in time and
  /// marks the report truncated; it never falsely declares a view dead (a
  /// truncated enumeration with NO rewriting found is an error, since
  /// neither adoption nor death can be decided).  Stops during execution /
  /// materialization are hard errors, but not always raised before a
  /// mutation: DefineView rolls its registration back, whereas
  /// NotifySchemaChange rematerializes AFTER applying the change to space
  /// and MKB (a stop there leaves the change committed, the failing view
  /// on its new definition with a stale extent, and later adopted views on
  /// their old definitions), and NotifyDataUpdate maintains view by view
  /// (a stop leaves some extents maintained and the rest not).  A later
  /// pure-rename adoption keeps such a stale extent as it is: only a
  /// recomputing adoption replaces it.  ROADMAP item 5 tracks the staged
  /// all-or-nothing commit.
  const ExecContext* exec = nullptr;

  /// Checks cross-field consistency: max_rewritings positive,
  /// max_pc_hops >= 1, policy.cap_max_rewritings positive, QC weights
  /// valid.  NotifySchemaChange runs it on entry, so a bad configuration
  /// fails the first schema change before any mutation.
  Status Validate() const;
};

/// The EVE system facade.
class EveSystem {
 public:
  explicit EveSystem(EveOptions options = {});

  // --- Registration ---------------------------------------------------------

  /// Registers a relation (schema + data) at `site`; records capabilities
  /// and statistics in the MKB.
  Status RegisterRelation(const std::string& site, Relation relation,
                          double local_selectivity = 1.0);

  Status AddJoinConstraint(JoinConstraint jc);
  Status AddPcConstraint(PcConstraint pc);
  /// Parses and installs a constraint declaration ("JOIN CONSTRAINT ..." /
  /// "PC CONSTRAINT ..."; see esql/constraint_parser.h).
  Status DeclareConstraint(const std::string& text);
  void SetJoinSelectivity(double js);

  // --- Views -----------------------------------------------------------------

  /// Parses and registers an E-SQL view; materializes it when configured.
  Status DefineView(const std::string& esql_text);
  Status DefineView(ViewDefinition definition);

  /// The current (possibly evolved) definition of a view.
  Result<ViewDefinition> GetViewDefinition(const std::string& name) const;
  Result<ViewState> GetViewState(const std::string& name) const;
  Result<Relation> GetViewExtent(const std::string& name) const;
  Result<const ViewEntry*> GetViewEntry(const std::string& name) const;

  // --- Evolution --------------------------------------------------------------

  /// Processes a capability change end to end (see class comment).
  Result<ChangeReport> NotifySchemaChange(const SchemaChange& change);

  /// Processes a data update: applies it to the space and incrementally
  /// maintains every materialized view.  Returns per-view counters summed.
  Result<MaintenanceCounters> NotifyDataUpdate(const DataUpdate& update);

  // --- Access to the underlying components ------------------------------------

  const InformationSpace& space() const { return space_; }
  InformationSpace& space() { return space_; }
  const MetaKnowledgeBase& mkb() const { return mkb_; }
  MetaKnowledgeBase& mkb() { return mkb_; }
  const ViewKnowledgeBase& vkb() const { return vkb_; }
  const EveOptions& options() const { return options_; }
  EveOptions& options() { return options_; }
  /// Cumulative per-decision counters of the policy layer across every
  /// NotifySchemaChange since construction (or the last reset).
  const PolicyStats& policy_stats() const { return policy_stats_; }
  void ResetPolicyStats() { policy_stats_ = PolicyStats{}; }
  /// Prepared plans for (re)materialization.  Cleared on every schema
  /// change; stale entries from data updates revalidate lazily against
  /// relation versions.
  const PlanCache& plan_cache() const { return plan_cache_; }
  /// This system's string intern pool.  Bulk loaders should intern string
  /// Values here (`Value(text, system.string_pool())`) so unrelated systems
  /// never contend on the process-wide default pool; cross-pool Values
  /// still compare equal by content (see types/string_pool.h).
  StringPool& string_pool() { return string_pool_; }
  const StringPool& string_pool() const { return string_pool_; }

  // --- Snapshot publication (serve/snapshot.h) ---------------------------------

  /// The epoch publisher: every successful registration, view definition,
  /// schema change, and data update captures and atomically publishes a
  /// fresh immutable SystemSnapshot here.  Concurrent readers (the serving
  /// front end, serve/frontend.h) pin epochs with snapshots().Current()
  /// and never touch the live space.
  const SnapshotPublisher& snapshots() const { return publisher_; }

  /// Re-attempts snapshot publication (recovery after a failed swap left
  /// snapshots() stale).  Idempotent; fails only when capture/swap fails
  /// again, in which case the old epoch keeps serving.
  Status RefreshSnapshot();

  /// RAII suppression of per-mutation snapshot publication for bulk loads.
  /// Capture is O(columns across the whole space), so registering N
  /// relations publishes O(N^2) column handles; a batch defers to ONE
  /// publish when the scope closes (only if any suppressed publish was
  /// requested).  Committed mutations are never deferred -- only their
  /// epoch publication is.  Single-writer, like every mutating entry point.
  class SnapshotBatch {
   public:
    explicit SnapshotBatch(EveSystem& system) : system_(system) {
      ++system_.snapshot_batch_depth_;
    }
    ~SnapshotBatch() {
      if (--system_.snapshot_batch_depth_ == 0 &&
          system_.snapshot_batch_dirty_) {
        system_.snapshot_batch_dirty_ = false;
        (void)system_.PublishSnapshot();
      }
    }
    SnapshotBatch(const SnapshotBatch&) = delete;
    SnapshotBatch& operator=(const SnapshotBatch&) = delete;

   private:
    EveSystem& system_;
  };

 private:
  Status Materialize(const std::string& view_name);

  /// Captures and publishes the current space + alive views as a new
  /// epoch.  On failure (fault site `eve.snapshot_swap`) the triggering
  /// mutation STAYS COMMITTED: the publisher is marked stale, the old
  /// epoch keeps serving, and the next successful publish recovers --
  /// graceful degradation instead of a torn mutation.
  Status PublishSnapshot();

  /// The governing context (Unlimited when options_.exec is null).
  const ExecContext& ExecCtx() const {
    return options_.exec != nullptr ? *options_.exec : ExecContext::Unlimited();
  }

  EveOptions options_;
  InformationSpace space_;
  MetaKnowledgeBase mkb_;
  ViewKnowledgeBase vkb_;
  PlanCache plan_cache_;
  SnapshotPublisher publisher_;
  PolicyStats policy_stats_;
  int snapshot_batch_depth_ = 0;
  bool snapshot_batch_dirty_ = false;
  /// Owned intern pool for this system's string data.  Values are trivially
  /// destructible, so teardown order does not matter; the pool only has to
  /// outlive reads of the Values interned into it, which it does because
  /// both live exactly as long as this system.
  StringPool string_pool_;
};

}  // namespace eve

#endif  // EVE_EVE_EVE_SYSTEM_H_
