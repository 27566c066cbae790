// Relation: an in-memory table (schema + tuples).  This is the storage unit
// hosted by information sources and the result type of the query executor.
//
// Storage is columnar and typed: one ColumnSegment per attribute
// (storage/column_segment.h).  Tag-uniform INT64 columns are packed
// vector<int64_t> segments, uniform interned-string columns pack to
// (hash, id) word segments (dictionary encoding for free), and mixed
// columns fall back to the tagged vector<Value> layout -- with a compact
// exception sidecar in between, so one stray NULL does not demote a packed
// column.  The hot consumers (hash-index builds, dedup hashing, the
// prepared executor's batch probes / residual filters / per-column
// gathers) read the packed words branch-free through the kernels in
// storage/column_kernel.h.  The row-oriented API survives as an adapter
// (TupleAt / AddTuple / CopyTuples materialize rows on demand) so callers
// migrate incrementally; per-column access goes through Segment / ValueAt.
//
// Relations use bag semantics by default; Distinct() derives the set-
// semantics version that the paper's extent comparisons require
// ("duplicates removed first", §5.3).
//
// Concurrency: the tuple store itself is single-writer (mutations are not
// synchronized), but the lazily built per-column index cache and the
// tuple-hash column are guarded by a mutex, so any number of threads may
// execute read-only queries (Index / TupleHashes / Distinct / SetEquals)
// against the same unchanging relation concurrently.  WarmIndexes() can
// pre-build the indexes a prepared plan needs so parallel executions never
// contend on first use.
//
// Segments are held by shared_ptr and copy-on-write at two levels:
// copies, projections, and snapshots (serve/snapshot.h) share the segment
// objects, and a segment copy shares its fixed-size row chunks
// (storage/column_segment.h).  A mutation clones the segment header (its
// chunk pointers) only when some other owner still holds it (`MutCol`),
// and the segment then clones only the chunks the mutation touches -- the
// tail chunk for an append, the chunks from the first victim onward for an
// erase -- so a write after a snapshot costs O(chunk), not O(rows).  The
// use_count checks are race-free under the single-writer contract because
// new shares of a segment or chunk are only ever handed out by the owning
// writer thread (snapshot capture, Relation copies); readers hold refs
// obtained before the mutation began.
//
// Every relation carries a process-unique identity stamp (assigned at
// construction and on copy/move, `identity()`) plus a cheap per-instance
// mutation counter (`version()`).  Prepared query plans snapshot the
// (pointer, identity, version) triple and revalidate it before reuse, so a
// stale plan over mutated -- or destroyed-and-rebuilt-at-the-same-address
// -- data replans instead of reading dropped caches.

#ifndef EVE_STORAGE_RELATION_H_
#define EVE_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/column_segment.h"
#include "storage/tuple.h"

namespace eve {

class HashIndex;

/// An in-memory relation instance (typed columnar tuple store).
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {
    columns_.reserve(static_cast<size_t>(schema_.size()));
    for (int c = 0; c < schema_.size(); ++c) {
      columns_.push_back(std::make_shared<ColumnSegment>());
    }
  }

  // Copies share the already-built immutable caches (indexes store row ids
  // only, so they stay valid for the copied column store); each copy gets a
  // fresh identity stamp because it is a distinct object.  The cache mutex
  // is per-instance and never copied.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  /// Adopts ready-made columns (all of equal length, one per schema
  /// attribute) without any row materialization -- each column is scanned
  /// once to pick its segment encoding.  Column values are not type-checked
  /// against the schema (as InsertUnchecked); sizes are.
  static Relation FromColumns(std::string name, Schema schema,
                              std::vector<std::vector<Value>> columns);

  /// Adopts ready-made segments (all of equal length, one per schema
  /// attribute) -- the zero-rescan result path of the executor's gathers.
  static Relation FromSegments(std::string name, Schema schema,
                               std::vector<ColumnSegment> columns);

  /// Adopts already-shared segments without copying their storage (the
  /// projection path).  The new relation co-owns the segments; a later
  /// mutation of either owner clones first (MutCol).
  static Relation FromSharedSegments(
      std::string name, Schema schema,
      std::vector<std::shared_ptr<ColumnSegment>> columns);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  /// Replaces the schema without touching the stored columns (attribute
  /// renames); arities must match.  Bumps version(), so prepared plans
  /// revalidate and replan, but keeps the cached indexes and tuple-hash
  /// column: they depend on values and column positions, not on names.
  void ReplaceSchema(Schema schema);

  /// Widens the relation by one attribute backed by an all-NULL column
  /// (schema evolution's add-attribute back-fill); in place, no copies of
  /// the existing columns.  Counts as a mutation.
  void AddNullColumn(const Attribute& attribute);

  int64_t cardinality() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  /// Number of columns (schema arity).
  int width() const { return static_cast<int>(columns_.size()); }

  /// The typed column segment of attribute `c`.
  const ColumnSegment& Segment(int c) const { return *columns_[c]; }
  /// Shared handle on the segment of attribute `c` (snapshot capture and
  /// zero-copy projections); keeps the storage alive across a later
  /// mutation of this relation, which clones rather than edits in place.
  std::shared_ptr<const ColumnSegment> SegmentShared(int c) const {
    return columns_[static_cast<size_t>(c)];
  }
  /// Row `row` of column `col` as a full Value (reconstructed on demand
  /// from the packed word on packed segments).
  Value ValueAt(int64_t row, int col) const {
    return columns_[col]->ValueAt(row);
  }

  /// True iff every value in column `c` has tag INT64 (no NULLs, doubles,
  /// or strings); the historic promotion signal, now derived from the
  /// segment encoding.
  bool ColumnAllInt64(int c) const { return columns_[c]->all_int64(); }

  /// Row-adapter: materializes row `row` as a Tuple (one allocation).
  Tuple TupleAt(int64_t row) const;

  /// Row-adapter: materializes every row (for shuffles, sorts, and golden
  /// comparisons in tests).
  std::vector<Tuple> CopyTuples() const;

  /// `prefix` concatenated with row `row` of this relation, in one
  /// allocation (the join-materialization shape of the maintenance
  /// simulator and the reference executor).
  Tuple ConcatRow(const Tuple& prefix, int64_t row) const;

  /// Process-unique object-identity stamp: fresh per construction, copy,
  /// and move (a moved-from relation is restamped too, since its columns
  /// were stolen).  Together with version() it lets prepared plans detect
  /// a relation that was destroyed and rebuilt at the same address.
  uint64_t identity() const { return identity_.load(std::memory_order_acquire); }

  /// Mutation counter of this instance; bumped by every AddTuple / Insert /
  /// Erase / EraseBatch / Clear / ReplaceSchema.  Two observations with
  /// equal (identity, version) saw identical data and names.  Stamps are
  /// atomic so a concurrent plan revalidation reads a consistent value, but
  /// a reader racing a mutation may see either stamp -- observing the tuple
  /// store itself still requires the single-writer contract above.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Appends a tuple after checking arity and type conformance.
  Status Insert(Tuple t);

  /// Appends without checks; for internal operators that construct
  /// schema-conforming tuples by construction.
  void AddTuple(Tuple t);

  /// Historic name of AddTuple, kept so call sites migrate incrementally.
  void InsertUnchecked(Tuple t) { AddTuple(std::move(t)); }

  /// Removes (one occurrence of) each tuple equal to `t`; returns the number
  /// of removed tuples (0 or 1 with `all_occurrences` false).
  int64_t Erase(const Tuple& t, bool all_occurrences = false);

  /// Removes one occurrence per victim (first matching row in scan order,
  /// exactly as repeated single Erase calls would) in ONE compaction pass.
  /// Two passes find the victims: one hash scan of column 0 against a
  /// bitmap of the victims' column-0 hashes picks the candidate rows, and
  /// only those get a full tuple hash and a probe of the hash-bucketed
  /// victims.  Every column then compacts once.  Returns the number of
  /// removed rows; a batch that matches nothing is a no-op (no version
  /// bump).  The maintenance delete sweeps call this instead of
  /// O(victims) full scans.
  int64_t EraseBatch(const std::vector<Tuple>& victims);

  void Clear();

  /// True iff row `row` of this relation equals row `other_row` of `other`
  /// column by column (arities must match).
  bool RowEquals(int64_t row, const Relation& other, int64_t other_row) const;

  /// True iff row `row` equals tuple `t` (arities must match).
  bool RowEqualsTuple(int64_t row, const Tuple& t) const;

  /// Cached equality index on `column`, built on first use and dropped by
  /// any data mutation (Insert / AddTuple / Erase / Clear; a ReplaceSchema
  /// rename keeps it).  Copies of the relation share the already-built
  /// (immutable) indexes.  Thread-safe: concurrent first-use builds are
  /// serialized by the cache mutex.
  const HashIndex& Index(int column) const;

  /// As Index(), but returns the shared handle so a prepared plan or a
  /// snapshot can pin the index past a later mutation of this relation
  /// (mutations drop the cache; the shared_ptr keeps the built index
  /// alive for whoever captured it).
  std::shared_ptr<const HashIndex> IndexShared(int column) const;

  /// Pre-builds the indexes on `columns` (deduplicated) so later concurrent
  /// Index() calls are pure cache hits.  Out-of-range columns are ignored.
  void WarmIndexes(const std::vector<int>& columns) const;

  /// Cached per-row tuple hashes (hashes[i] == TupleAt(i).Hash()), built on
  /// first use and dropped by any data mutation (not by ReplaceSchema).
  /// The shared_ptr keeps the column alive across a concurrent
  /// invalidation.  Thread-safe.
  std::shared_ptr<const std::vector<size_t>> TupleHashes() const;

  /// Uncached hash-column computation (column-wise FNV mixing; what
  /// TupleHashes builds and caches).
  std::vector<size_t> ComputeTupleHashes() const;

  /// True iff some tuple equals `t`.
  bool ContainsTuple(const Tuple& t) const;

  /// Set-semantics copy: duplicates removed, input order preserved.
  Relation Distinct() const;

  /// Projection onto named attributes; fails on unknown names.  Columnar:
  /// each projected column is one segment copy, encoding preserved.
  Result<Relation> ProjectByName(const std::vector<std::string>& names) const;

  /// Number of distinct tuples.
  int64_t DistinctCount() const;

  /// Tuple width in bytes (sum of attribute sizes): s_R in the cost model.
  int TupleBytes() const { return schema_.TupleBytes(); }

  /// Sorted-by-tuple rendering for stable golden tests.
  std::string ToString(int64_t max_rows = 20) const;

  /// Appends the `rows` of `src` (same arity) as one gather per
  /// column (packed sources gather word-by-word); a single mutation stamp
  /// for the whole batch.
  void AppendGathered(const Relation& src, const std::vector<int64_t>& rows);

 private:
  static uint64_t NextIdentity();

  // Mutations are single-writer (class comment), so the version bump is a
  // load+store (no read-modify-write needed) and the cache clear is
  // skipped entirely unless a cache was actually built -- result
  // materialization inserts row by row and must not pay a lock or an
  // atomic RMW per tuple.
  void BumpVersion() {
    version_.store(version_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }
  void MarkMutated() {
    BumpVersion();
    if (caches_present_.load(std::memory_order_acquire)) DropCaches();
  }

  void DropCaches();

  /// Mutable access to column `c`, cloning the segment header first when
  /// it is shared with a copy, projection, or snapshot.  The clone copies
  /// chunk pointers only; the segment's own chunk-level copy-on-write then
  /// clones just the chunks the mutation writes.  The use_count probe is
  /// sound because shares are only handed out from the writer thread (see
  /// the concurrency comment above).
  ColumnSegment& MutCol(size_t c) {
    std::shared_ptr<ColumnSegment>& col = columns_[c];
    if (col.use_count() > 1) col = std::make_shared<ColumnSegment>(*col);
    return *col;
  }

  std::string name_;
  Schema schema_;
  /// One typed column segment per attribute, all of length rows_; held by
  /// shared_ptr so copies/snapshots share storage (copy-on-write via
  /// MutCol).  Pointers are never null.
  std::vector<std::shared_ptr<ColumnSegment>> columns_;
  int64_t rows_ = 0;
  std::atomic<uint64_t> identity_{NextIdentity()};
  std::atomic<uint64_t> version_{0};
  /// Guards index_cache_ and hash_cache_ (not the tuple store).
  mutable std::mutex cache_mutex_;
  /// True iff index_cache_ or hash_cache_ holds anything; lets MarkMutated
  /// skip the lock on cache-free relations.
  mutable std::atomic<bool> caches_present_{false};
  /// Lazily built per-column equality indexes (see Index()).  Indexes store
  /// row ids only, so copied relations can keep sharing them.
  mutable std::unordered_map<int, std::shared_ptr<const HashIndex>> index_cache_;
  /// Lazily built per-row tuple hashes (see TupleHashes()).
  mutable std::shared_ptr<const std::vector<size_t>> hash_cache_;
};

/// Set operations under set semantics (inputs deduplicated first).  Schemas
/// must have equal arity; attribute names are taken from `a`.
Result<Relation> SetUnion(const Relation& a, const Relation& b);
Result<Relation> SetIntersect(const Relation& a, const Relation& b);
Result<Relation> SetDifference(const Relation& a, const Relation& b);

/// True iff the distinct tuple sets are equal.  Uses the cached tuple-hash
/// columns of both inputs, so repeated extent comparisons against
/// unchanged relations skip re-hashing entirely.
bool SetEquals(const Relation& a, const Relation& b);

}  // namespace eve

#endif  // EVE_STORAGE_RELATION_H_
