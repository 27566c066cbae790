#include "storage/relation.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"
#include "common/str_util.h"
#include "storage/column_kernel.h"
#include "storage/hash_index.h"
#include "storage/row_dedup.h"

namespace eve {

namespace {

// Numeric INT values may be stored where DOUBLE is declared and vice versa;
// comparisons promote, so only string/number mismatches are errors.
bool TypeConforms(DataType declared, DataType actual) {
  if (actual == DataType::kNull) return true;
  if (declared == actual) return true;
  const bool declared_num =
      declared == DataType::kInt64 || declared == DataType::kDouble;
  const bool actual_num =
      actual == DataType::kInt64 || actual == DataType::kDouble;
  return declared_num && actual_num;
}

// Records row `i` of `rel` as a distinct representative unless an equal row
// is already present; true iff the row was new.  The shared primitive of
// every hashed dedup path below (flat table, see storage/row_dedup.h);
// equality confirms through columnar row compares.
bool InsertIfDistinct(RowDedupTable& table, size_t hash, const Relation& rel,
                      int64_t i) {
  return table.InsertIfAbsent(hash, i, [&](int64_t j) {
           return rel.RowEquals(j, rel, i);
         }) < 0;
}

}  // namespace

uint64_t Relation::NextIdentity() {
  // Process-unique stamps: a relation rebuilt at the same address with the
  // same mutation count still gets a different identity, so prepared-plan
  // revalidation cannot be fooled by address reuse.
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void Relation::DropCaches() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  index_cache_.clear();
  hash_cache_.reset();
  caches_present_.store(false, std::memory_order_release);
}

Relation::Relation(const Relation& other)
    : name_(other.name_),
      schema_(other.schema_),
      columns_(other.columns_),
      rows_(other.rows_) {
  std::lock_guard<std::mutex> lock(other.cache_mutex_);
  index_cache_ = other.index_cache_;
  hash_cache_ = other.hash_cache_;
  caches_present_.store(other.caches_present_.load(std::memory_order_acquire),
                        std::memory_order_release);
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  schema_ = other.schema_;
  columns_ = other.columns_;
  rows_ = other.rows_;
  identity_ = NextIdentity();
  version_ = 0;
  std::unordered_map<int, std::shared_ptr<const HashIndex>> indexes;
  std::shared_ptr<const std::vector<size_t>> hashes;
  {
    std::lock_guard<std::mutex> lock(other.cache_mutex_);
    indexes = other.index_cache_;
    hashes = other.hash_cache_;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  index_cache_ = std::move(indexes);
  hash_cache_ = std::move(hashes);
  caches_present_.store(!index_cache_.empty() || hash_cache_ != nullptr,
                        std::memory_order_release);
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : name_(std::move(other.name_)),
      schema_(std::move(other.schema_)),
      columns_(std::move(other.columns_)),
      rows_(other.rows_) {
  other.rows_ = 0;
  std::lock_guard<std::mutex> lock(other.cache_mutex_);
  index_cache_ = std::move(other.index_cache_);
  hash_cache_ = std::move(other.hash_cache_);
  caches_present_.store(!index_cache_.empty() || hash_cache_ != nullptr,
                        std::memory_order_release);
  other.caches_present_.store(false, std::memory_order_release);
  // The source's columns were stolen: restamp it so stale plans notice.
  other.identity_ = NextIdentity();
  other.version_ = 0;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  schema_ = std::move(other.schema_);
  columns_ = std::move(other.columns_);
  rows_ = other.rows_;
  other.rows_ = 0;
  identity_ = NextIdentity();
  version_ = 0;
  std::unordered_map<int, std::shared_ptr<const HashIndex>> indexes;
  std::shared_ptr<const std::vector<size_t>> hashes;
  {
    std::lock_guard<std::mutex> lock(other.cache_mutex_);
    indexes = std::move(other.index_cache_);
    hashes = std::move(other.hash_cache_);
    other.caches_present_.store(false, std::memory_order_release);
    other.identity_ = NextIdentity();
    other.version_ = 0;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  index_cache_ = std::move(indexes);
  hash_cache_ = std::move(hashes);
  caches_present_.store(!index_cache_.empty() || hash_cache_ != nullptr,
                        std::memory_order_release);
  return *this;
}

Relation Relation::FromColumns(std::string name, Schema schema,
                               std::vector<std::vector<Value>> columns) {
  std::vector<ColumnSegment> segments;
  segments.reserve(columns.size());
  for (std::vector<Value>& col : columns) {
    segments.push_back(ColumnSegment::FromValues(std::move(col)));
  }
  return FromSegments(std::move(name), std::move(schema),
                      std::move(segments));
}

Relation Relation::FromSegments(std::string name, Schema schema,
                                std::vector<ColumnSegment> columns) {
  std::vector<std::shared_ptr<ColumnSegment>> shared;
  shared.reserve(columns.size());
  for (ColumnSegment& col : columns) {
    shared.push_back(std::make_shared<ColumnSegment>(std::move(col)));
  }
  return FromSharedSegments(std::move(name), std::move(schema),
                            std::move(shared));
}

Relation Relation::FromSharedSegments(
    std::string name, Schema schema,
    std::vector<std::shared_ptr<ColumnSegment>> columns) {
  EVE_CHECK(static_cast<int>(columns.size()) == schema.size());
  Relation out(std::move(name), std::move(schema));
  const int64_t rows = columns.empty() ? 0 : columns[0]->size();
  for (const std::shared_ptr<ColumnSegment>& col : columns) {
    EVE_CHECK(col != nullptr && col->size() == rows);
  }
  out.columns_ = std::move(columns);
  out.rows_ = rows;
  return out;
}

Tuple Relation::TupleAt(int64_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const auto& col : columns_) values.push_back(col->ValueAt(row));
  return Tuple(std::move(values));
}

std::vector<Tuple> Relation::CopyTuples() const {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(rows_));
  for (int64_t row = 0; row < rows_; ++row) out.push_back(TupleAt(row));
  return out;
}

Tuple Relation::ConcatRow(const Tuple& prefix, int64_t row) const {
  std::vector<Value> values;
  values.reserve(prefix.values().size() + columns_.size());
  values.insert(values.end(), prefix.values().begin(), prefix.values().end());
  for (const auto& col : columns_) values.push_back(col->ValueAt(row));
  return Tuple(std::move(values));
}

void Relation::ReplaceSchema(Schema schema) {
  EVE_CHECK(schema.size() == schema_.size());
  // The caches are keyed by column position and hold row ids, key values
  // and value hashes, none of which a rename touches: keep them, and bump
  // only the version so prepared plans re-resolve the names.
  BumpVersion();
  schema_ = std::move(schema);
}

void Relation::AddNullColumn(const Attribute& attribute) {
  MarkMutated();
  std::vector<Attribute> attrs = schema_.attributes();
  attrs.push_back(attribute);
  schema_ = Schema(std::move(attrs));
  // An all-NULL back-fill is a tagged segment (NULLs break tag uniformity;
  // vacuously uniform only while empty, as before).
  columns_.push_back(std::make_shared<ColumnSegment>(
      ColumnSegment::TaggedFromValues(
          std::vector<Value>(static_cast<size_t>(rows_)))));
}

Status Relation::Insert(Tuple t) {
  if (t.size() != schema_.size()) {
    return Status::InvalidArgument(StrFormat(
        "tuple arity %d does not match schema arity %d of relation %s",
        t.size(), schema_.size(), name_.c_str()));
  }
  for (int i = 0; i < t.size(); ++i) {
    if (!TypeConforms(schema_.attribute(i).type, t.at(i).type())) {
      return Status::InvalidArgument(StrFormat(
          "value %s does not conform to attribute %s of type %s",
          t.at(i).ToString().c_str(), schema_.attribute(i).name.c_str(),
          std::string(DataTypeName(schema_.attribute(i).type)).c_str()));
    }
  }
  AddTuple(std::move(t));
  return Status::OK();
}

void Relation::AddTuple(Tuple t) {
  // A hard check, not an assert: in a Release build a short tuple would
  // otherwise read past its value vector while splitting into columns.
  EVE_CHECK(t.size() == static_cast<int>(columns_.size()));
  MarkMutated();
  for (size_t c = 0; c < columns_.size(); ++c) {
    MutCol(c).Append(t.at(static_cast<int>(c)));
  }
  ++rows_;
}

int64_t Relation::Erase(const Tuple& t, bool all_occurrences) {
  // Pass 1: collect the doomed rows in scan order (first match only unless
  // `all_occurrences`).  When t[0] is neither NULL nor NaN, kEqual on
  // column 0 holds for every row equal to t there (INT 3 vs DOUBLE 3.0 and
  // cross-pool strings included), so one kernel scan narrows the row-wise
  // confirmation to its candidates.  NULL and NaN compare false under
  // kEqual but equal under Value ==, so they keep the row-wise scan.
  std::vector<int64_t> doomed;
  const auto consider = [&](int64_t row) {
    if (!RowEqualsTuple(row, t)) return true;
    doomed.push_back(row);
    return all_occurrences;
  };
  const bool prefilter =
      rows_ > 0 && t.size() == width() && t.size() > 0 && !t.at(0).is_null() &&
      !(t.at(0).type() == DataType::kDouble && std::isnan(t.at(0).AsDouble()));
  if (prefilter) {
    std::vector<uint8_t> candidate(static_cast<size_t>(rows_), 1);
    AndCompareColumnConst(CompOp::kEqual, *columns_[0], t.at(0),
                          candidate.data());
    for (int64_t row = 0; row < rows_; ++row) {
      if (candidate[static_cast<size_t>(row)] != 0 && !consider(row)) break;
    }
  } else {
    for (int64_t row = 0; row < rows_; ++row) {
      if (!consider(row)) break;
    }
  }
  if (doomed.empty()) return 0;
  MarkMutated();
  // Pass 2: one stable compaction per column segment.
  for (size_t c = 0; c < columns_.size(); ++c) MutCol(c).EraseRows(doomed);
  rows_ -= static_cast<int64_t>(doomed.size());
  return static_cast<int64_t>(doomed.size());
}

int64_t Relation::EraseBatch(const std::vector<Tuple>& victims) {
  if (victims.empty() || rows_ == 0) return 0;
  // Bucket the victims by tuple hash.  Equal victims stay separate entries:
  // the scan below consumes the first non-exhausted equal entry per
  // matching row, which removes exactly the first count(v) occurrences of
  // each distinct victim in row order -- the same multiset repeated single
  // Erase calls would remove, in one pass.  Alongside, a bitmap of about
  // eight bits per victim records the victims' column-0 value hashes.
  struct Want {
    const Tuple* tuple;
    bool used;
  };
  std::unordered_map<size_t, std::vector<Want>> wanted;
  wanted.reserve(victims.size());
  size_t bits = 64;
  while (bits < victims.size() * 8) bits <<= 1;
  const size_t bit_mask = bits - 1;
  std::vector<uint64_t> key_bits(bits / 64, 0);
  size_t eligible = 0;
  for (const Tuple& t : victims) {
    if (t.size() != width()) continue;
    wanted[t.Hash()].push_back(Want{&t, false});
    if (t.size() > 0) {
      const size_t b = t.at(0).Hash() & bit_mask;
      key_bits[b / 64] |= uint64_t{1} << (b % 64);
    }
    ++eligible;
  }
  if (eligible == 0) return 0;
  // Candidates: the rows whose column-0 hash hits the bitmap, found in one
  // column scan.  Value::Hash agrees with Value == (NULL, NaN, INT 3 vs
  // DOUBLE 3.0, cross-pool strings), so no matching row is missed; false
  // positives only cost a full-tuple hash below.  A zero-width relation
  // has no column 0, and every row is a candidate.
  std::vector<int64_t> candidates;
  std::vector<size_t> hashes;
  if (width() == 0) {
    candidates.resize(static_cast<size_t>(rows_));
    for (int64_t row = 0; row < rows_; ++row) {
      candidates[static_cast<size_t>(row)] = row;
    }
    hashes.assign(candidates.size(), kTupleHashBasis);
  } else {
    std::vector<size_t> key_hashes(static_cast<size_t>(rows_));
    HashColumn(*columns_[0], key_hashes.data());
    for (int64_t row = 0; row < rows_; ++row) {
      const size_t h = key_hashes[static_cast<size_t>(row)];
      const size_t b = h & bit_mask;
      if (((key_bits[b / 64] >> (b % 64)) & 1) == 0) continue;
      candidates.push_back(row);
      // Column 0's step of the tuple hash (Tuple::Hash's FNV fold).
      hashes.push_back((kTupleHashBasis ^ h) * kTupleHashPrime);
    }
  }
  // Full tuple hashes of the candidates only; computed fresh rather than
  // through TupleHashes() so a no-op batch leaves the caches untouched.
  const int64_t n = static_cast<int64_t>(candidates.size());
  for (size_t c = 1; c < columns_.size(); ++c) {
    MixHashColumnGather(*columns_[c], candidates.data(), n, hashes.data());
  }
  std::vector<int64_t> doomed;
  size_t remaining = eligible;
  for (int64_t i = 0; i < n && remaining > 0; ++i) {
    const auto it = wanted.find(hashes[static_cast<size_t>(i)]);
    if (it == wanted.end()) continue;
    const int64_t row = candidates[static_cast<size_t>(i)];
    for (Want& w : it->second) {
      if (w.used || !RowEqualsTuple(row, *w.tuple)) continue;
      w.used = true;
      --remaining;
      doomed.push_back(row);
      break;
    }
  }
  if (doomed.empty()) return 0;  // No version bump for a no-op batch.
  MarkMutated();
  for (size_t c = 0; c < columns_.size(); ++c) MutCol(c).EraseRows(doomed);
  rows_ -= static_cast<int64_t>(doomed.size());
  return static_cast<int64_t>(doomed.size());
}

void Relation::Clear() {
  MarkMutated();
  for (std::shared_ptr<ColumnSegment>& col : columns_) {
    // A shared segment is dropped, not cloned-then-cleared: Clear resets
    // to the pristine state, which a fresh segment already is.
    if (col.use_count() > 1) {
      col = std::make_shared<ColumnSegment>();
    } else {
      col->Clear();
    }
  }
  rows_ = 0;
}

bool Relation::RowEquals(int64_t row, const Relation& other,
                         int64_t other_row) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (!columns_[c]->RowEqualsRow(row, *other.columns_[c], other_row)) {
      return false;
    }
  }
  return true;
}

bool Relation::RowEqualsTuple(int64_t row, const Tuple& t) const {
  if (t.size() != static_cast<int>(columns_.size())) return false;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (!columns_[c]->RowEqualsValue(row, t.at(static_cast<int>(c)))) {
      return false;
    }
  }
  return true;
}

const HashIndex& Relation::Index(int column) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = index_cache_.find(column);
  if (it == index_cache_.end()) {
    it = index_cache_
             .emplace(column, std::make_shared<const HashIndex>(*this, column))
             .first;
    caches_present_.store(true, std::memory_order_release);
  }
  return *it->second;
}

std::shared_ptr<const HashIndex> Relation::IndexShared(int column) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = index_cache_.find(column);
  if (it == index_cache_.end()) {
    it = index_cache_
             .emplace(column, std::make_shared<const HashIndex>(*this, column))
             .first;
    caches_present_.store(true, std::memory_order_release);
  }
  return it->second;
}

void Relation::WarmIndexes(const std::vector<int>& columns) const {
  for (const int column : columns) {
    if (column < 0 || column >= schema_.size()) continue;
    (void)Index(column);
  }
}

std::vector<size_t> Relation::ComputeTupleHashes() const {
  // Column-wise FNV mixing: seeding with Tuple::Hash's offset basis and
  // folding the columns left to right makes hashes[i] == TupleAt(i).Hash(),
  // with every pass one column scan (packed words hash without
  // materializing Values).
  std::vector<size_t> hashes(static_cast<size_t>(rows_), kTupleHashBasis);
  for (const auto& col : columns_) {
    MixHashColumn(*col, hashes.data());
  }
  return hashes;
}

std::shared_ptr<const std::vector<size_t>> Relation::TupleHashes() const {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (hash_cache_ != nullptr) return hash_cache_;
  }
  // Hash outside the lock; concurrent first calls may both compute, the
  // first to store wins and the results are identical anyway.
  auto hashes = std::make_shared<std::vector<size_t>>(ComputeTupleHashes());
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (hash_cache_ == nullptr) {
    hash_cache_ = std::move(hashes);
    caches_present_.store(true, std::memory_order_release);
  }
  return hash_cache_;
}

bool Relation::ContainsTuple(const Tuple& t) const {
  for (int64_t row = 0; row < rows_; ++row) {
    if (RowEqualsTuple(row, t)) return true;
  }
  return false;
}

void Relation::AppendGathered(const Relation& src,
                              const std::vector<int64_t>& rows) {
  // Self-gather would reallocate the column under the source reference.
  EVE_CHECK(&src != this);
  MarkMutated();
  for (size_t c = 0; c < columns_.size(); ++c) {
    // MutCol clones first when this column is shared -- including shared
    // with `src` itself, so the gather never reallocates under its source.
    MutCol(c).AppendGathered(*src.columns_[c], rows.data(), rows.size());
  }
  rows_ += static_cast<int64_t>(rows.size());
}

Relation Relation::Distinct() const {
  const auto hashes = TupleHashes();
  RowDedupTable table(static_cast<size_t>(rows_));
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < rows_; ++i) {
    if (InsertIfDistinct(table, (*hashes)[i], *this, i)) keep.push_back(i);
  }
  Relation out(name_, schema_);
  out.AppendGathered(*this, keep);
  return out;
}

Result<Relation> Relation::ProjectByName(
    const std::vector<std::string>& names) const {
  std::vector<Attribute> attrs;
  std::vector<std::shared_ptr<ColumnSegment>> cols;
  for (const std::string& n : names) {
    const auto idx = schema_.IndexOf(n);
    if (!idx.has_value()) {
      return Status::NotFound("attribute " + n + " not in relation " + name_);
    }
    attrs.push_back(schema_.attribute(*idx));
    cols.push_back(columns_[*idx]);  // Shared, zero-copy (CoW on mutation).
  }
  return FromSharedSegments(name_, Schema(std::move(attrs)), std::move(cols));
}

int64_t Relation::DistinctCount() const {
  const auto hashes = TupleHashes();
  RowDedupTable table(static_cast<size_t>(rows_));
  int64_t distinct = 0;
  for (int64_t i = 0; i < rows_; ++i) {
    if (InsertIfDistinct(table, (*hashes)[i], *this, i)) ++distinct;
  }
  return distinct;
}

std::string Relation::ToString(int64_t max_rows) const {
  std::string out = name_ + schema_.ToString() + " [" +
                    StrFormat("%lld", static_cast<long long>(cardinality())) +
                    " tuples]\n";
  std::vector<Tuple> sorted = CopyTuples();
  std::sort(sorted.begin(), sorted.end());
  int64_t shown = 0;
  for (const Tuple& t : sorted) {
    if (shown++ >= max_rows) {
      out += "  ...\n";
      break;
    }
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

namespace {

Status CheckUnionCompatible(const Relation& a, const Relation& b) {
  if (a.schema().size() != b.schema().size()) {
    return Status::InvalidArgument(StrFormat(
        "set operation on relations of different arity (%d vs %d)",
        a.schema().size(), b.schema().size()));
  }
  return Status::OK();
}

}  // namespace

Result<Relation> SetUnion(const Relation& a, const Relation& b) {
  EVE_RETURN_IF_ERROR(CheckUnionCompatible(a, b));
  const auto ha = a.TupleHashes();
  const auto hb = b.TupleHashes();
  // Dedup across both inputs in one table: rows of `a` keep their ids, rows
  // of `b` are offset by |a|; the keep lists then gather column-wise.
  const int64_t na = a.cardinality();
  RowDedupTable seen(static_cast<size_t>(na + b.cardinality()));
  std::vector<int64_t> keep_a;
  std::vector<int64_t> keep_b;
  const auto row_of = [&](int64_t id) -> std::pair<const Relation*, int64_t> {
    return id < na ? std::make_pair(&a, id) : std::make_pair(&b, id - na);
  };
  const auto add_distinct = [&](const Relation& r, int64_t id_offset,
                                const std::vector<size_t>& hashes,
                                std::vector<int64_t>& keep) {
    for (int64_t i = 0; i < r.cardinality(); ++i) {
      if (seen.InsertIfAbsent(hashes[i], id_offset + i, [&](int64_t j) {
            const auto [rel, row] = row_of(j);
            return rel->RowEquals(row, r, i);
          }) < 0) {
        keep.push_back(i);
      }
    }
  };
  add_distinct(a, 0, *ha, keep_a);
  add_distinct(b, na, *hb, keep_b);
  Relation out(a.name(), a.schema());
  out.AppendGathered(a, keep_a);
  out.AppendGathered(b, keep_b);
  return out;
}

namespace {

// Shared skeleton of SetIntersect / SetDifference: the distinct rows of `a`
// that are (present=true) or are not (present=false) in `b`.
Relation FilterByMembership(const Relation& a, const Relation& b,
                            bool want_present) {
  const auto ha = a.TupleHashes();
  const auto hb = b.TupleHashes();
  RowDedupTable in_b(static_cast<size_t>(b.cardinality()));
  for (int64_t i = 0; i < b.cardinality(); ++i) {
    InsertIfDistinct(in_b, (*hb)[i], b, i);
  }
  RowDedupTable emitted(static_cast<size_t>(a.cardinality()));
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < a.cardinality(); ++i) {
    const bool present = in_b.Find((*ha)[i], [&](int64_t j) {
                           return b.RowEquals(j, a, i);
                         }) >= 0;
    if (present == want_present && InsertIfDistinct(emitted, (*ha)[i], a, i)) {
      keep.push_back(i);
    }
  }
  Relation out(a.name(), a.schema());
  out.AppendGathered(a, keep);
  return out;
}

}  // namespace

Result<Relation> SetIntersect(const Relation& a, const Relation& b) {
  EVE_RETURN_IF_ERROR(CheckUnionCompatible(a, b));
  return FilterByMembership(a, b, /*want_present=*/true);
}

Result<Relation> SetDifference(const Relation& a, const Relation& b) {
  EVE_RETURN_IF_ERROR(CheckUnionCompatible(a, b));
  return FilterByMembership(a, b, /*want_present=*/false);
}

bool SetEquals(const Relation& a, const Relation& b) {
  if (a.schema().size() != b.schema().size()) return false;
  const auto ha = a.TupleHashes();
  const auto hb = b.TupleHashes();

  // Distinct representatives of `a` in a flat table keyed by cached hash.
  RowDedupTable table_a(static_cast<size_t>(a.cardinality()));
  int64_t distinct_a = 0;
  for (int64_t i = 0; i < a.cardinality(); ++i) {
    if (InsertIfDistinct(table_a, (*ha)[i], a, i)) ++distinct_a;
  }

  // b ⊆ a, counting b's distinct tuples along the way: equal distinct
  // counts plus containment imply set equality.
  RowDedupTable table_b(static_cast<size_t>(b.cardinality()));
  int64_t distinct_b = 0;
  for (int64_t i = 0; i < b.cardinality(); ++i) {
    if (!InsertIfDistinct(table_b, (*hb)[i], b, i)) continue;
    ++distinct_b;
    const int64_t in_a = table_a.Find((*hb)[i], [&](int64_t j) {
      return a.RowEquals(j, b, i);
    });
    if (in_a < 0) return false;
  }
  return distinct_a == distinct_b;
}

}  // namespace eve
