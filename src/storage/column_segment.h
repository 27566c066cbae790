// ColumnSegment: one attribute's values in a typed, packed, chunked layout.
//
// Relation stores one segment per attribute.  A segment holds its rows in
// one of three encodings:
//
//   * kInt64  -- packed int64_t words of the raw integer payloads
//                (8 bytes/row instead of a 16-byte tagged Value).
//   * kString -- packed int64_t words of strings over ONE interned
//                StringPool (the pool index lives in the segment header):
//                word = (content_hash << 32) | interned id.  Equality
//                within the segment is a full-word integer compare (equal
//                ids imply equal words, distinct ids differ in the low 32
//                bits) and the value hash needs only the high half --
//                dictionary encoding for free, no pool access on the hot
//                paths.
//   * kTagged -- plain Values, the legacy layout kept as the fallback for
//                genuinely mixed columns.
//
// Chunks: the rows live in fixed-size chunks of kChunkRows (4096) rows,
// each behind its own shared_ptr; every chunk but the last is full, so row
// r sits in chunk r >> kChunkShift at local row r & kChunkMask.  Copying a
// segment copies only the chunk pointers, and a mutation clones only the
// chunks it touches while another segment still shares them: an append
// clones the tail chunk, EraseRows rebuilds the chunks from the first
// victim's onward, and every earlier chunk stays shared.  A write after a
// snapshot (serve/snapshot.h) therefore costs O(chunk), not O(rows).  The
// tail chunk grows geometrically (it is never pre-reserved to kChunkRows),
// so small relations stay small.  The use_count probe that decides between
// clone and in-place edit relies on Relation's single-writer contract:
// new shares of a chunk are only made on the writer thread.
//
// Packed segments degrade gracefully instead of demoting on the first
// stray value: a compact per-chunk exception sidecar (sorted chunk-local
// row ids + their full Values) carries NULLs, doubles-in-int-columns, and
// cross-pool strings, with a zero placeholder in the packed word array.
// The branch-free kernels in storage/column_kernel.h iterate the runs
// between exception rows (chunk boundaries end runs too) and patch the
// exceptions generically, so a column with one NULL in a million rows
// still scans at packed speed.  When the segment's exceptions exceed
// MaxExceptions (~1/8 of the rows) the whole segment demotes to kTagged.
//
// Encoding decisions are automatic: an empty segment adopts the encoding
// of its first appended value (the promotion signal that used to be the
// per-column ColumnAllInt64 flag), FromValues scans a ready-made column
// once, and TaggedFromValues forces the legacy layout (baseline benches
// and differential tests).  all_int64() preserves the historic flag
// semantics: true iff every stored value has tag INT64 (vacuously true
// while empty).

#ifndef EVE_STORAGE_COLUMN_SEGMENT_H_
#define EVE_STORAGE_COLUMN_SEGMENT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "types/value.h"

namespace eve {

/// One attribute's value column in a typed packed chunked layout (see file
/// comment).  Copyable; copies share chunks copy-on-write and are
/// observably independent.
class ColumnSegment {
 public:
  enum class Encoding : uint8_t {
    kInt64,   ///< Chunk words hold raw int64 payloads.
    kString,  ///< Chunk words hold (content_hash << 32 | id) over pool().
    kTagged,  ///< Chunk tagged arrays hold full Values.
  };

  static constexpr int kChunkShift = 12;
  static constexpr int64_t kChunkRows = int64_t{1} << kChunkShift;
  static constexpr int64_t kChunkMask = kChunkRows - 1;

  /// One kChunkRows slice of the segment.  Only the array of the
  /// segment's encoding is used (words for packed, tagged for kTagged); a
  /// chunk shared by two segments is never edited in place.
  struct Chunk {
    std::vector<int64_t> words;     ///< Packed payloads (kInt64 / kString).
    std::vector<int64_t> exc_rows;  ///< Sorted chunk-local sidecar rows.
    std::vector<Value> exc_vals;    ///< Their values, parallel to exc_rows.
    std::vector<Value> tagged;      ///< Full values (kTagged).
  };

  /// Row-addressed read view over every chunk's words (T = int64_t) or
  /// tagged values (T = Value): a flat pointer table, so a gather costs a
  /// shift, a mask and two loads per row.  Valid until the segment is
  /// mutated.
  template <typename T>
  class Rows {
   public:
    const T& operator[](int64_t row) const {
      return ptrs_[static_cast<size_t>(row >> kChunkShift)][row & kChunkMask];
    }

   private:
    friend class ColumnSegment;
    std::vector<const T*> ptrs_;
  };

  ColumnSegment() = default;

  /// Adopts a ready-made column, choosing the best encoding in one scan:
  /// packed when the uniform values dominate (exceptions under
  /// MaxExceptions), tagged otherwise.
  static ColumnSegment FromValues(std::vector<Value> values);

  /// Adopts a ready-made column in the legacy tagged layout regardless of
  /// content (differential tests and the tagged-baseline benchmarks).
  /// Tag-uniform INT64 content is still detected so the tagged fast-path
  /// kernels run exactly as they did before packed segments existed.
  static ColumnSegment TaggedFromValues(std::vector<Value> values);

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Encoding encoding() const { return enc_; }
  bool packed() const { return enc_ != Encoding::kTagged; }

  /// True iff every stored value has tag INT64 (vacuously true while
  /// empty): the historic ColumnAllInt64 promotion flag.
  bool all_int64() const {
    return enc_ == Encoding::kInt64 ? exc_count_ == 0
                                    : (enc_ == Encoding::kTagged &&
                                       tagged_all_int64_);
  }

  /// True iff this is a tagged segment whose every value has tag INT64
  /// (the legacy uniform layout; enables the old tagged fast paths).
  bool tagged_all_int64() const {
    return enc_ == Encoding::kTagged && tagged_all_int64_;
  }

  bool has_exceptions() const { return exc_count_ != 0; }

  /// Pool of a kString segment's packed words (meaningless otherwise).
  uint32_t pool() const { return pool_; }

  /// The word a kString segment packs for `v` (which must be a STRING of
  /// this segment's pool).
  static int64_t StringWord(const Value& v) {
    return static_cast<int64_t>(
        (static_cast<uint64_t>(v.string_content_hash()) << 32) |
        v.string_id());
  }

  /// Chunk layout, for the kernels in storage/column_kernel.h.
  int64_t num_chunks() const { return static_cast<int64_t>(chunks_.size()); }
  const Chunk& chunk(int64_t k) const {
    return *chunks_[static_cast<size_t>(k)];
  }
  /// Rows in chunk `k`: kChunkRows for every chunk but the last.
  int64_t chunk_rows(int64_t k) const {
    return std::min(kChunkRows, size_ - (k << kChunkShift));
  }

  /// Packed word of `row` (exception rows hold a placeholder); packed
  /// encodings only.
  int64_t WordAt(int64_t row) const {
    return chunks_[static_cast<size_t>(row >> kChunkShift)]
        ->words[static_cast<size_t>(row & kChunkMask)];
  }
  /// Gather views over every chunk (packed / kTagged respectively).
  Rows<int64_t> Words() const;
  Rows<Value> Tagged() const;

  /// Row `row` as a full Value (reconstructed from the packed word, the
  /// exception sidecar, or the tagged store).
  Value ValueAt(int64_t row) const {
    const Chunk& c = *chunks_[static_cast<size_t>(row >> kChunkShift)];
    const size_t local = static_cast<size_t>(row & kChunkMask);
    switch (enc_) {
      case Encoding::kInt64:
        if (exc_count_ != 0) {
          if (const Value* e = FindIn(c, local)) return *e;
        }
        return Value(c.words[local]);
      case Encoding::kString:
        if (exc_count_ != 0) {
          if (const Value* e = FindIn(c, local)) return *e;
        }
        return UnpackString(c.words[local]);
      case Encoding::kTagged:
        return c.tagged[local];
    }
    return Value();
  }

  /// The sidecar Value stored at `row`, or nullptr when `row` holds a
  /// packed word (kernels patch exceptions through this).
  const Value* FindException(int64_t row) const {
    return FindIn(*chunks_[static_cast<size_t>(row >> kChunkShift)],
                  static_cast<size_t>(row & kChunkMask));
  }

  /// Segment-wide sidecar rows, ascending (tests and diagnostics).
  std::vector<int64_t> exception_rows() const;

  /// Appends one value, promoting an empty segment to the value's natural
  /// encoding, routing mismatches into the exception sidecar, and demoting
  /// to kTagged past MaxExceptions.
  void Append(const Value& v);

  /// Appends `n` gathered rows of `src` (any encodings); packed sources
  /// gather word-by-word into a packed target.
  void AppendGathered(const ColumnSegment& src, const int64_t* rows,
                      size_t n);

  /// Removes the rows listed in `doomed` (sorted ascending, in range,
  /// duplicate-free) in one stable compaction pass over the chunks from
  /// the first victim's onward; earlier chunks stay untouched (and
  /// shared).  Packing and the exception sidecar are preserved (a segment
  /// whose last exceptions die becomes fully packed again).
  void EraseRows(const std::vector<int64_t>& doomed);

  /// Drops all rows and resets to the pristine empty state (encoding is
  /// re-chosen by the next append).
  void Clear();

  /// Value equality of row `row` against `v` / against a row of another
  /// segment; same-encoding packed segments compare words directly.
  bool RowEqualsValue(int64_t row, const Value& v) const;
  bool RowEqualsRow(int64_t row, const ColumnSegment& other,
                    int64_t other_row) const;

  /// Sidecar capacity before a packed segment of `size` rows demotes.
  static int64_t MaxExceptions(int64_t size) { return size / 8 + 4; }

 private:
  static const Value* FindIn(const Chunk& c, size_t local) {
    const auto it = std::lower_bound(c.exc_rows.begin(), c.exc_rows.end(),
                                     static_cast<int64_t>(local));
    if (it == c.exc_rows.end() || *it != static_cast<int64_t>(local)) {
      return nullptr;
    }
    return &c.exc_vals[static_cast<size_t>(it - c.exc_rows.begin())];
  }

  Value UnpackString(int64_t word) const {
    const uint64_t w = static_cast<uint64_t>(word);
    return Value::FromInterned(static_cast<uint32_t>(w & 0xFFFFFFFFu), pool_,
                               static_cast<uint32_t>(w >> 32));
  }

  /// True while nothing was ever appended (encoding still undecided).
  bool pristine() const {
    return size_ == 0 && enc_ == Encoding::kInt64 && exc_count_ == 0;
  }

  /// Chooses the encoding from the first appended value.
  void InitEncoding(const Value& v);

  /// Adopts `src`'s encoding (gather into a pristine target).
  void AdoptEncodingOf(const ColumnSegment& src);

  /// The chunk row size_ lands in, unshared and with room for at least
  /// min(`expect`, room left in the chunk) more rows: a fresh chunk at a
  /// chunk boundary, else the tail (cloned first when another segment
  /// shares it).  Capacity grows geometrically up to kChunkRows.
  Chunk& AppendTarget(int64_t expect);

  /// Appends `v` into the sidecar of a packed segment (placeholder word),
  /// demoting first when the sidecar is full.
  void AppendException(const Value& v);

  /// Rewrites a packed segment as kTagged (sidecar folded back in).
  void Demote();

  Encoding enc_ = Encoding::kInt64;
  /// kTagged only: every value has tag INT64 (the legacy uniform layout).
  bool tagged_all_int64_ = false;
  uint32_t pool_ = 0;  ///< kString only: pool of the packed words.
  int64_t size_ = 0;
  int64_t exc_count_ = 0;  ///< Sidecar entries across all chunks.
  /// ceil(size_ / kChunkRows) chunks, all full but the last; never null.
  std::vector<std::shared_ptr<Chunk>> chunks_;
};

}  // namespace eve

#endif  // EVE_STORAGE_COLUMN_SEGMENT_H_
