// Epoch-based snapshot publication (ROADMAP item 1, serving half 1).
//
// A SystemSnapshot is an immutable, self-contained copy of the information
// space (and the alive view definitions) at one instant: one frozen
// Relation per (site, relation), sharing the live relations' column
// segments and already-built index/hash caches through the storage layer's
// copy-on-write handles.  The snapshot implements RelationProvider, so
// prepared plans, PlanCache, and ExecutePrepared run against it unchanged;
// because nothing can mutate it, the whole read path is lock-free after
// planning (plans capture their hash-join indexes at prepare time,
// plan/prepared_view.h).
//
// Capture is incremental: given the previous epoch, it copies only the
// relations that changed (one cheap compare per relation, no per-row
// work).  A relation whose (site, name,
// identity, version) matches the previous epoch's entry reuses that frozen
// copy (same `relations()[i].relation` pointer, so plans validated against
// it stay valid); the relation table is shared whole when nothing changed;
// the site/name maps are shared while InformationSpace::NameVersion() holds;
// and the alive-view definitions are shared while
// ViewKnowledgeBase::version() holds.  A changed relation's fresh copy
// shares its column chunks with the live relation, whose next write clones
// only the chunks it touches (storage/column_segment.h).  Every capture
// still gets a fresh epoch id.
//
// The SnapshotPublisher holds the current snapshot in an atomic
// shared_ptr.  Readers pin an epoch with Current() (wait-free, one atomic
// load + refcount); the single mutator thread captures the next epoch off
// to the side and swaps it in with Publish().  Old epochs stay alive for
// exactly as long as some reader still holds them.
//
// Epoch identity vs publication sequence: epoch() is process-unique
// (PlanCache keys its fast path on it -- see RelationProvider::
// SnapshotEpoch), while sequence() is publisher-local and increments by
// one per Publish, so a serving watchdog can measure how many swaps a
// pinned reader has fallen behind (serve/frontend.h).
//
// Failure semantics: when snapshot capture/swap fails (fault site
// `eve.snapshot_swap` in eve/eve_system.cc), the mutation that triggered
// it stays committed and the OLD epoch keeps serving; the publisher is
// marked stale and the next successful Publish clears the flag.  Readers
// degrade to slightly outdated answers instead of errors.

#ifndef EVE_SERVE_SNAPSHOT_H_
#define EVE_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "algebra/provider.h"
#include "common/result.h"
#include "esql/ast.h"
#include "storage/relation.h"

namespace eve {

class InformationSpace;
class ViewKnowledgeBase;

/// One relation frozen at capture time.  The Relation copy shares the
/// source's column segments and prewarmed index/hash caches (CoW), and is
/// never mutated again, so any number of threads may scan and probe it
/// without synchronization.
struct RelationSnapshot {
  std::string site;
  std::string name;
  std::shared_ptr<const Relation> relation;
  uint64_t source_identity = 0;  ///< identity() of the live source relation.
  uint64_t source_version = 0;   ///< version() of the live source relation.
};

/// An immutable copy of the information space at one epoch.
class SystemSnapshot : public RelationProvider {
 public:
  /// Captures the current state of `space` (and, when non-null, the alive
  /// view definitions of `vkb`), reusing whatever of `previous` (when
  /// non-null) is still current -- see the file comment.  Must run on the
  /// mutator thread (the single-writer contract of Relation); the result is
  /// safe to share.
  static std::shared_ptr<SystemSnapshot> Capture(
      const InformationSpace& space, const ViewKnowledgeBase* vkb,
      const SystemSnapshot* previous = nullptr);

  /// Process-unique epoch id (never 0; never reused within a process).
  uint64_t epoch() const { return epoch_; }

  /// Publisher-local publication number (0 until published; then the
  /// number of Publish calls up to and including this snapshot).
  uint64_t sequence() const { return sequence_; }

  // RelationProvider: mirrors InformationSpace::Resolve, including the
  // bare-name ambiguity contract.
  Result<const Relation*> Resolve(const std::string& site,
                                  const std::string& relation) const override;
  uint64_t SnapshotEpoch() const override { return epoch_; }

  /// The definition a view had at capture time (alive views only): during
  /// an evolution, readers pinned to this epoch keep querying the OLD
  /// definition until the new epoch is published.
  Result<ViewDefinition> View(const std::string& name) const;

  const std::vector<RelationSnapshot>& relations() const {
    return *relations_;
  }

 private:
  friend class SnapshotPublisher;

  /// site -> (name -> index into relations()), and bare name -> index or
  /// kAmbiguous when hosted by several sites.  Shared across epochs while
  /// the space's name shape holds.
  struct NameMaps {
    std::map<std::string, std::map<std::string, size_t>> by_site;
    std::map<std::string, size_t> by_name;
  };

  SystemSnapshot();

  void CaptureRelations(const InformationSpace& space,
                        const SystemSnapshot* previous);
  void CaptureViews(const ViewKnowledgeBase* vkb,
                    const SystemSnapshot* previous);
  /// The entry for (site, name), or nullptr.
  const RelationSnapshot* Find(const std::string& site,
                               const std::string& name) const;

  uint64_t epoch_;
  uint64_t sequence_ = 0;
  std::shared_ptr<const std::vector<RelationSnapshot>> relations_;
  std::shared_ptr<const NameMaps> names_;
  uint64_t name_version_ = 0;  ///< space.NameVersion() at capture.
  /// Alive view definitions at capture time (null without a VKB).
  std::shared_ptr<const std::map<std::string, ViewDefinition>> views_;
  uint64_t views_version_ = 0;  ///< vkb->version() at capture (0: none).

  static constexpr size_t kAmbiguous = static_cast<size_t>(-1);
};

/// The atomically swapped current-snapshot slot (single publisher, many
/// pinning readers).
///
/// The slot is a std::atomic<std::shared_ptr> -- except under TSan, where
/// it degrades to a mutex-guarded shared_ptr with identical semantics:
/// GCC 12's _Sp_atomic implements the atomic shared_ptr with a lock bit
/// spliced into the refcount pointer, and that spinlock carries no TSan
/// annotations (libstdc++ added them in GCC 13), so every Publish/Current
/// pair reports a false data race the sanitizer cannot see through.
class SnapshotPublisher {
 public:
  SnapshotPublisher() = default;
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Atomically installs `snapshot` as the current epoch, stamping its
  /// publication sequence, and clears the stale flag.  Single-publisher.
  void Publish(std::shared_ptr<SystemSnapshot> snapshot);

  /// The current epoch, or nullptr before the first Publish.  Wait-free
  /// (one atomic load + refcount); the returned pointer pins the epoch for
  /// as long as it is held.
  std::shared_ptr<const SystemSnapshot> Current() const {
#if defined(__SANITIZE_THREAD__)
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
#else
    return current_.load(std::memory_order_acquire);
#endif
  }

  /// Sequence number of the latest published epoch (0 before the first).
  /// The serving watchdog compares this against a pinned snapshot's
  /// sequence() to measure reader lag without dereferencing anything.
  uint64_t CurrentSequence() const {
    return sequence_.load(std::memory_order_acquire);
  }

  /// True when the latest mutation failed to publish its epoch, so
  /// Current() is known to be behind the live space.  Cleared by the next
  /// successful Publish.
  bool stale() const { return stale_.load(std::memory_order_acquire); }
  void MarkStale() { stale_.store(true, std::memory_order_release); }

 private:
#if defined(__SANITIZE_THREAD__)
  mutable std::mutex current_mu_;
  std::shared_ptr<const SystemSnapshot> current_;
#else
  std::atomic<std::shared_ptr<const SystemSnapshot>> current_{nullptr};
#endif
  std::atomic<uint64_t> sequence_{0};
  std::atomic<bool> stale_{false};
};

}  // namespace eve

#endif  // EVE_SERVE_SNAPSHOT_H_
