// Columnar compare / hash kernels over typed packed column segments
// (storage/column_segment.h; Relation stores one ColumnSegment per
// attribute).
//
// Every compare kernel is mask-oriented: it ANDs its per-row comparison
// result into a caller-owned byte mask, so a conjunction of clauses is
// evaluated one clause at a time over the whole column -- the operator
// dispatch, the encoding dispatch, and the column pointers are all hoisted
// out of the row loop.
//
// Fast paths by encoding:
//   * kInt64 vs numeric constant / kInt64: a branch-free loop over raw
//     int64 words the compiler can vectorize -- no tags, no EvalCompOp.
//   * kString equality vs a same-pool string: a branch-free word-compare
//     loop (the packed word is (content_hash << 32 | id); equal words iff
//     equal strings within one pool).
//   * kTagged tag-uniform INT64: the legacy branch-free loop over Values.
//
// Segments are chunked (kChunkRows rows per chunk); the kernels walk the
// chunks, and chunk boundaries end packed runs just as exception rows do.
// Exception sidecars are handled by iterating the maximal packed runs
// between the (sorted) exception rows branch-free and evaluating the few
// exception rows through EvalCompOp / Value::Hash.  Gathers resolve a row
// to its chunk through ColumnSegment::Words() / Tagged() (a shift and a
// mask per row).  Exception rows are
// NEVER speculatively compared as words and patched afterwards: the mask
// AND-fold is destructive, so a wrong 0 could not be recovered.
//
// The generic fallback calls EvalCompOp per row and therefore matches
// predicate semantics exactly (NULL and NaN compare false, incomparable
// types compare false).

#ifndef EVE_STORAGE_COLUMN_KERNEL_H_
#define EVE_STORAGE_COLUMN_KERNEL_H_

#include <cstdint>

#include "expr/comp_op.h"
#include "storage/column_segment.h"
#include "storage/tuple.h"
#include "types/value.h"

namespace eve {

/// mask[i] &= EvalCompOp(op, col[i], rhs) for i in [0, col.size()).
void AndCompareColumnConst(CompOp op, const ColumnSegment& col,
                           const Value& rhs, uint8_t* mask);

/// mask[i] &= EvalCompOp(op, lhs[i], rhs[i]); the segments must have equal
/// size.
void AndCompareColumns(CompOp op, const ColumnSegment& lhs,
                       const ColumnSegment& rhs, uint8_t* mask);

/// Gathered variant for the executor's residual filtering over candidate
/// row-id arrays: mask[i] &= EvalCompOp(op, lcol[lrows[i]], RHS(i)) where
/// RHS(i) is (*rcol)[rrows[i]] when rcol != nullptr, else *rhs_const.
void AndCompareGather(CompOp op, const ColumnSegment& lcol,
                      const int64_t* lrows, const ColumnSegment* rcol,
                      const int64_t* rrows, const Value* rhs_const, int64_t n,
                      uint8_t* mask);

/// out[i] = col[i].Hash() for i in [0, col.size()) -- the HashIndex build's
/// first pass, without materializing a Value per row on packed segments.
void HashColumn(const ColumnSegment& col, size_t* out);

/// One FNV-1a step per row with the value's hash: acc[i] = (acc[i] ^
/// col[i].Hash()) * kTupleHashPrime.  Seeding acc with kTupleHashBasis
/// (storage/tuple.h) and running every column left to right reproduces
/// Tuple::Hash exactly, one column scan at a time.
void MixHashColumn(const ColumnSegment& col, size_t* acc);

/// Gathered variant for the executor's fused-distinct projection:
/// acc[i] = (acc[i] ^ col[rows[i]].Hash()) * prime.
void MixHashColumnGather(const ColumnSegment& col, const int64_t* rows,
                         int64_t n, size_t* acc);

}  // namespace eve

#endif  // EVE_STORAGE_COLUMN_KERNEL_H_
