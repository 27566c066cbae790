#include "storage/column_segment.h"

#include <iterator>
#include <utility>

namespace eve {

namespace {

/// Grows `v` to hold at least `want` elements, doubling (capped at one
/// chunk) so a run of single-row appends reallocates O(log kChunkRows)
/// times.
template <typename T>
void GrowTo(std::vector<T>& v, int64_t want) {
  if (static_cast<int64_t>(v.capacity()) >= want) return;
  v.reserve(static_cast<size_t>(std::min(
      ColumnSegment::kChunkRows,
      std::max(want, 2 * static_cast<int64_t>(v.capacity())))));
}

}  // namespace

ColumnSegment ColumnSegment::FromValues(std::vector<Value> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  ColumnSegment seg;
  if (n == 0) return seg;

  // One scan decides the encoding.  Strings pack against the FIRST string's
  // pool; minority-pool strings ride in the exception sidecar like any
  // other stray value (the same graceful degradation Append gives).
  int64_t ints = 0;
  int64_t strs = 0;
  uint32_t pool = 0;
  bool pool_set = false;
  for (const Value& v : values) {
    if (v.type() == DataType::kInt64) {
      ++ints;
    } else if (v.type() == DataType::kString) {
      if (!pool_set) {
        pool = v.string_pool_index();
        pool_set = true;
      }
      if (v.string_pool_index() == pool) ++strs;
    }
  }

  const int64_t max_exc = MaxExceptions(n);
  if (ints > 0 && ints >= strs && n - ints <= max_exc) {
    seg.enc_ = Encoding::kInt64;
  } else if (pool_set && n - strs <= max_exc) {
    seg.enc_ = Encoding::kString;
    seg.pool_ = pool;
  } else {
    return TaggedFromValues(std::move(values));
  }
  for (int64_t b = 0; b < n; b += kChunkRows) {
    const int64_t e = std::min(n, b + kChunkRows);
    auto c = std::make_shared<Chunk>();
    c->words.reserve(static_cast<size_t>(e - b));
    for (int64_t i = b; i < e; ++i) {
      const Value& v = values[static_cast<size_t>(i)];
      if (seg.enc_ == Encoding::kInt64 && v.type() == DataType::kInt64) {
        c->words.push_back(v.AsInt());
      } else if (seg.enc_ == Encoding::kString &&
                 v.type() == DataType::kString &&
                 v.string_pool_index() == pool) {
        c->words.push_back(StringWord(v));
      } else {
        c->exc_rows.push_back(i - b);
        c->exc_vals.push_back(v);
        c->words.push_back(0);
        ++seg.exc_count_;
      }
    }
    seg.chunks_.push_back(std::move(c));
  }
  seg.size_ = n;
  return seg;
}

ColumnSegment ColumnSegment::TaggedFromValues(std::vector<Value> values) {
  ColumnSegment seg;
  seg.enc_ = Encoding::kTagged;
  seg.tagged_all_int64_ = true;
  for (const Value& v : values) {
    if (v.type() != DataType::kInt64) {
      seg.tagged_all_int64_ = false;
      break;
    }
  }
  const int64_t n = static_cast<int64_t>(values.size());
  for (int64_t b = 0; b < n; b += kChunkRows) {
    const int64_t e = std::min(n, b + kChunkRows);
    auto c = std::make_shared<Chunk>();
    c->tagged.assign(values.begin() + b, values.begin() + e);
    seg.chunks_.push_back(std::move(c));
  }
  seg.size_ = n;
  return seg;
}

ColumnSegment::Rows<int64_t> ColumnSegment::Words() const {
  Rows<int64_t> out;
  out.ptrs_.reserve(chunks_.size());
  for (const auto& c : chunks_) out.ptrs_.push_back(c->words.data());
  return out;
}

ColumnSegment::Rows<Value> ColumnSegment::Tagged() const {
  Rows<Value> out;
  out.ptrs_.reserve(chunks_.size());
  for (const auto& c : chunks_) out.ptrs_.push_back(c->tagged.data());
  return out;
}

std::vector<int64_t> ColumnSegment::exception_rows() const {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(exc_count_));
  for (size_t k = 0; k < chunks_.size(); ++k) {
    const int64_t base = static_cast<int64_t>(k) << kChunkShift;
    for (const int64_t r : chunks_[k]->exc_rows) out.push_back(base + r);
  }
  return out;
}

ColumnSegment::Chunk& ColumnSegment::AppendTarget(int64_t expect) {
  const int64_t local = size_ & kChunkMask;
  const int64_t want = std::min(kChunkRows, local + std::max<int64_t>(expect, 1));
  if (local == 0) {
    // Chunk boundary (or empty segment): start a fresh chunk.
    auto c = std::make_shared<Chunk>();
    if (enc_ == Encoding::kTagged) {
      c->tagged.reserve(static_cast<size_t>(want));
    } else {
      c->words.reserve(static_cast<size_t>(want));
    }
    chunks_.push_back(std::move(c));
    return *chunks_.back();
  }
  std::shared_ptr<Chunk>& tail = chunks_.back();
  if (tail.use_count() > 1) {
    // Shared with a copy or a snapshot: clone the tail alone, straight into
    // geometric capacity so the append after it does not reallocate again.
    auto c = std::make_shared<Chunk>();
    const size_t cap =
        static_cast<size_t>(std::min(kChunkRows, std::max(want, 2 * local)));
    if (enc_ == Encoding::kTagged) {
      c->tagged.reserve(cap);
      c->tagged.assign(tail->tagged.begin(), tail->tagged.end());
    } else {
      c->words.reserve(cap);
      c->words.assign(tail->words.begin(), tail->words.end());
      c->exc_rows = tail->exc_rows;
      c->exc_vals = tail->exc_vals;
    }
    tail = std::move(c);
  } else if (enc_ == Encoding::kTagged) {
    GrowTo(tail->tagged, want);
  } else {
    GrowTo(tail->words, want);
  }
  return *tail;
}

void ColumnSegment::InitEncoding(const Value& v) {
  switch (v.type()) {
    case DataType::kInt64:
      enc_ = Encoding::kInt64;
      break;
    case DataType::kString:
      enc_ = Encoding::kString;
      pool_ = v.string_pool_index();
      break;
    default:
      enc_ = Encoding::kTagged;
      tagged_all_int64_ = false;
      break;
  }
}

void ColumnSegment::Append(const Value& v) {
  if (pristine()) InitEncoding(v);
  switch (enc_) {
    case Encoding::kInt64:
      if (v.type() == DataType::kInt64) {
        AppendTarget(1).words.push_back(v.AsInt());
        ++size_;
        return;
      }
      AppendException(v);
      return;
    case Encoding::kString:
      if (v.type() == DataType::kString && v.string_pool_index() == pool_) {
        AppendTarget(1).words.push_back(StringWord(v));
        ++size_;
        return;
      }
      AppendException(v);
      return;
    case Encoding::kTagged:
      AppendTarget(1).tagged.push_back(v);
      tagged_all_int64_ =
          tagged_all_int64_ && v.type() == DataType::kInt64;
      ++size_;
      return;
  }
}

void ColumnSegment::AppendException(const Value& v) {
  if (exc_count_ + 1 > MaxExceptions(size_ + 1)) {
    Demote();
    Append(v);
    return;
  }
  Chunk& c = AppendTarget(1);
  c.exc_rows.push_back(size_ & kChunkMask);
  c.exc_vals.push_back(v);
  c.words.push_back(0);
  ++exc_count_;
  ++size_;
}

void ColumnSegment::Demote() {
  std::vector<std::shared_ptr<Chunk>> tagged;
  tagged.reserve(chunks_.size());
  for (int64_t k = 0; k < num_chunks(); ++k) {
    auto c = std::make_shared<Chunk>();
    const int64_t base = k << kChunkShift;
    const int64_t n = chunk_rows(k);
    c->tagged.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) c->tagged.push_back(ValueAt(base + i));
    tagged.push_back(std::move(c));
  }
  chunks_ = std::move(tagged);
  exc_count_ = 0;
  enc_ = Encoding::kTagged;
  tagged_all_int64_ = false;
  pool_ = 0;
}

void ColumnSegment::AdoptEncodingOf(const ColumnSegment& src) {
  enc_ = src.enc_;
  pool_ = src.pool_;
  // An empty tagged target is vacuously all-int64; appends AND it down.
  tagged_all_int64_ = enc_ == Encoding::kTagged;
}

void ColumnSegment::AppendGathered(const ColumnSegment& src,
                                   const int64_t* rows, size_t n) {
  if (n == 0) return;
  if (pristine()) AdoptEncodingOf(src);
  // Fills whole chunk-sized stretches at a time: push(chunk, i) appends
  // gathered row i to the (unshared) tail chunk.
  const auto bulk = [&](auto&& push) {
    size_t i = 0;
    while (i < n) {
      Chunk& t = AppendTarget(static_cast<int64_t>(n - i));
      const size_t m = std::min(
          n - i, static_cast<size_t>(kChunkRows - (size_ & kChunkMask)));
      for (size_t j = i; j < i + m; ++j) push(t, j);
      size_ += static_cast<int64_t>(m);
      i += m;
    }
  };
  if (enc_ == Encoding::kTagged && src.enc_ == Encoding::kTagged) {
    const Rows<Value> tv = src.Tagged();
    bool all_int = tagged_all_int64_;
    bulk([&](Chunk& t, size_t i) {
      const Value& v = tv[rows[i]];
      t.tagged.push_back(v);
      all_int = all_int && v.type() == DataType::kInt64;
    });
    tagged_all_int64_ = all_int;
    return;
  }
  if (enc_ == src.enc_ && packed() &&
      (enc_ != Encoding::kString || pool_ == src.pool_)) {
    const Rows<int64_t> w = src.Words();
    if (!src.has_exceptions()) {
      bulk([&](Chunk& t, size_t i) { t.words.push_back(w[rows[i]]); });
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      if (enc_ != src.enc_) {
        // A sidecar overflow demoted us mid-gather; finish generically.
        for (; i < n; ++i) Append(src.ValueAt(rows[i]));
        return;
      }
      if (const Value* e = src.FindException(rows[i])) {
        Append(*e);
      } else {
        AppendTarget(1).words.push_back(w[rows[i]]);
        ++size_;
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) Append(src.ValueAt(rows[i]));
}

void ColumnSegment::EraseRows(const std::vector<int64_t>& doomed) {
  if (doomed.empty()) return;
  // Chunks before the first victim's stay as they are (still shared with
  // any copy); the rest are detached and their survivors re-appended into
  // fresh chunks, which keeps every chunk but the last full.
  const size_t k0 = static_cast<size_t>(doomed.front() >> kChunkShift);
  std::vector<std::shared_ptr<Chunk>> old(
      std::make_move_iterator(chunks_.begin() + static_cast<ptrdiff_t>(k0)),
      std::make_move_iterator(chunks_.end()));
  chunks_.resize(k0);
  const int64_t old_size = size_;
  size_ = static_cast<int64_t>(k0) << kChunkShift;
  for (const auto& c : old) {
    exc_count_ -= static_cast<int64_t>(c->exc_rows.size());
  }
  // Appends local rows [a, b) of `src`, splitting at destination chunk
  // boundaries and remapping the sidecar rows it carries.
  const auto copy_run = [&](const Chunk& src, int64_t a, int64_t b) {
    while (a < b) {
      Chunk& t = AppendTarget(b - a);
      const int64_t at = size_ & kChunkMask;
      const int64_t m = std::min(b - a, kChunkRows - at);
      if (enc_ == Encoding::kTagged) {
        t.tagged.insert(t.tagged.end(), src.tagged.begin() + a,
                        src.tagged.begin() + a + m);
      } else {
        auto it =
            std::lower_bound(src.exc_rows.begin(), src.exc_rows.end(), a);
        for (; it != src.exc_rows.end() && *it < a + m; ++it) {
          t.exc_rows.push_back(*it - a + at);
          t.exc_vals.push_back(
              src.exc_vals[static_cast<size_t>(it - src.exc_rows.begin())]);
          ++exc_count_;
        }
        t.words.insert(t.words.end(), src.words.begin() + a,
                       src.words.begin() + a + m);
      }
      size_ += m;
      a += m;
    }
  };
  size_t di = 0;
  for (size_t j = 0; j < old.size(); ++j) {
    const int64_t base = static_cast<int64_t>(k0 + j) << kChunkShift;
    const int64_t rows = std::min(kChunkRows, old_size - base);
    int64_t a = 0;
    while (di < doomed.size() && doomed[di] < base + rows) {
      const int64_t r = doomed[di++] - base;
      copy_run(*old[j], a, r);
      a = r + 1;
    }
    copy_run(*old[j], a, rows);
  }
  // tagged_all_int64_ stays conservative, like the old per-column flag.
  if (size_ == 0) Clear();
}

void ColumnSegment::Clear() {
  enc_ = Encoding::kInt64;
  tagged_all_int64_ = false;
  pool_ = 0;
  size_ = 0;
  exc_count_ = 0;
  chunks_.clear();
}

bool ColumnSegment::RowEqualsValue(int64_t row, const Value& v) const {
  const Chunk& c = *chunks_[static_cast<size_t>(row >> kChunkShift)];
  const size_t local = static_cast<size_t>(row & kChunkMask);
  if (enc_ == Encoding::kTagged) return c.tagged[local] == v;
  if (exc_count_ != 0) {
    if (const Value* e = FindIn(c, local)) return *e == v;
  }
  const int64_t w = c.words[local];
  if (enc_ == Encoding::kInt64) {
    if (v.type() == DataType::kInt64) return w == v.AsInt();
    return Value(w) == v;  // INT 3 == DOUBLE 3.0 and the like.
  }
  if (v.type() == DataType::kString && v.string_pool_index() == pool_) {
    return w == StringWord(v);
  }
  return UnpackString(w) == v;
}

bool ColumnSegment::RowEqualsRow(int64_t row, const ColumnSegment& other,
                                 int64_t other_row) const {
  if (enc_ == other.enc_ && packed() &&
      (enc_ != Encoding::kString || pool_ == other.pool_)) {
    const Value* e1 = exc_count_ == 0 ? nullptr : FindException(row);
    const Value* e2 =
        other.exc_count_ == 0 ? nullptr : other.FindException(other_row);
    if (e1 == nullptr && e2 == nullptr) {
      return WordAt(row) == other.WordAt(other_row);
    }
  }
  return ValueAt(row) == other.ValueAt(other_row);
}

}  // namespace eve
