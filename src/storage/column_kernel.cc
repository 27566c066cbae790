#include "storage/column_kernel.h"

#include <cmath>
#include <cstring>

// The packed int64-vs-constant run loop is hand-vectorized where the build
// ISA has 64-bit SIMD compares and mask-to-byte moves (AVX-512 F+BW+VL;
// see EVE_NATIVE_KERNELS in CMakeLists.txt).  Baseline x86-64 has neither,
// so the compiler's scalar loop is what the fallback costs.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#include <immintrin.h>
#define EVE_KERNEL_AVX512 1
#endif

namespace eve {

namespace {

// Instantiates `body` with the comparator for `op`, hoisting the operator
// switch out of the row loop.
template <typename Body>
inline void DispatchOp(CompOp op, Body&& body) {
  switch (op) {
    case CompOp::kLess:
      body([](auto a, auto b) { return a < b; });
      return;
    case CompOp::kLessEqual:
      body([](auto a, auto b) { return a <= b; });
      return;
    case CompOp::kEqual:
      body([](auto a, auto b) { return a == b; });
      return;
    case CompOp::kGreaterEqual:
      body([](auto a, auto b) { return a >= b; });
      return;
    case CompOp::kGreater:
      body([](auto a, auto b) { return a > b; });
      return;
    case CompOp::kNotEqual:
      body([](auto a, auto b) { return a != b; });
      return;
  }
}

// Global row id of local row 0 of chunk k.
inline int64_t Base(int64_t k) { return k << ColumnSegment::kChunkShift; }

// Calls fn(v, base, n) for each chunk of a kTagged segment: v points at
// the chunk's n values, whose global row ids start at base.
template <typename Fn>
inline void ForEachTaggedChunk(const ColumnSegment& col, Fn&& fn) {
  for (int64_t k = 0; k < col.num_chunks(); ++k) {
    fn(col.chunk(k).tagged.data(), Base(k), col.chunk_rows(k));
  }
}

// Calls packed(k, begin, end) for each maximal exception-free run of local
// rows [begin, end) of chunk k of `col` and exc(row, value) for each
// exception row (global row id), ascending; chunk boundaries end runs.  The
// packed calls may read col.chunk(k).words directly; global row = base(k)
// + local row.
template <typename PackedFn, typename ExcFn>
inline void ForEachRun(const ColumnSegment& col, PackedFn&& packed,
                       ExcFn&& exc) {
  for (int64_t k = 0; k < col.num_chunks(); ++k) {
    const ColumnSegment::Chunk& c = col.chunk(k);
    const int64_t base = Base(k);
    int64_t begin = 0;
    for (size_t x = 0; x < c.exc_rows.size(); ++x) {
      const int64_t r = c.exc_rows[x];
      if (r > begin) packed(k, begin, r);
      exc(base + r, c.exc_vals[x]);
      begin = r + 1;
    }
    const int64_t rows = col.chunk_rows(k);
    if (begin < rows) packed(k, begin, rows);
  }
}

// Two-column variant over equal-size segments (hence equal chunking):
// packed(k, begin, end) covers local runs exception-free in BOTH
// segments; exc(row) fires for global rows carried by either sidecar.
template <typename PackedFn, typename ExcFn>
inline void ForEachRun2(const ColumnSegment& a, const ColumnSegment& b,
                        PackedFn&& packed, ExcFn&& exc) {
  for (int64_t k = 0; k < a.num_chunks(); ++k) {
    const std::vector<int64_t>& ra = a.chunk(k).exc_rows;
    const std::vector<int64_t>& rb = b.chunk(k).exc_rows;
    const int64_t base = Base(k);
    size_t ia = 0;
    size_t ib = 0;
    int64_t begin = 0;
    while (ia < ra.size() || ib < rb.size()) {
      int64_t r;
      if (ib >= rb.size() || (ia < ra.size() && ra[ia] <= rb[ib])) {
        r = ra[ia];
      } else {
        r = rb[ib];
      }
      if (r > begin) packed(k, begin, r);
      exc(base + r);
      if (ia < ra.size() && ra[ia] == r) ++ia;
      if (ib < rb.size() && rb[ib] == r) ++ib;
      begin = r + 1;
    }
    const int64_t rows = a.chunk_rows(k);
    if (begin < rows) packed(k, begin, rows);
  }
}

inline void ZeroRun(uint8_t* mask, int64_t begin, int64_t end) {
  std::memset(mask + begin, 0, static_cast<size_t>(end - begin));
}

inline Value UnpackStringWord(int64_t word, uint32_t pool) {
  const uint64_t w = static_cast<uint64_t>(word);
  return Value::FromInterned(static_cast<uint32_t>(w & 0xFFFFFFFFu), pool,
                             static_cast<uint32_t>(w >> 32));
}

inline size_t HashStringWord(int64_t word) {
  return value_hash::HashStringContent(
      static_cast<uint32_t>(static_cast<uint64_t>(word) >> 32));
}

// A STRING rhs of col's pool can word-compare for equality ops; every
// other op needs real string ordering.
inline bool StringEqualityOp(CompOp op) {
  return op == CompOp::kEqual || op == CompOp::kNotEqual;
}

#ifdef EVE_KERNEL_AVX512

// mask[i] &= (w[i] PRED r) over [begin, end), 16 rows per step: two 8-lane
// compares fold into one 16-bit k-mask, which expands to 0/1 bytes and
// ANDs into the mask in one 128-bit op.
template <int kPred>
inline void AndWordsConstAvx512(const int64_t* w, int64_t begin, int64_t end,
                                int64_t rhs, uint8_t* mask) {
  const __m512i r = _mm512_set1_epi64(rhs);
  const __m128i ones = _mm_set1_epi8(1);
  int64_t i = begin;
  for (; i + 16 <= end; i += 16) {
    const __m512i a0 = _mm512_loadu_si512(w + i);
    const __m512i a1 = _mm512_loadu_si512(w + i + 8);
    const __mmask8 k0 = _mm512_cmp_epi64_mask(a0, r, kPred);
    const __mmask8 k1 = _mm512_cmp_epi64_mask(a1, r, kPred);
    const __mmask16 k = _mm512_kunpackb(k1, k0);
    const __m128i bytes = _mm_maskz_mov_epi8(k, ones);
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(mask + i),
                     _mm_and_si128(m, bytes));
  }
  for (; i < end; ++i) {
    bool t;
    if constexpr (kPred == _MM_CMPINT_LT) t = w[i] < rhs;
    if constexpr (kPred == _MM_CMPINT_LE) t = w[i] <= rhs;
    if constexpr (kPred == _MM_CMPINT_EQ) t = w[i] == rhs;
    if constexpr (kPred == _MM_CMPINT_NLT) t = w[i] >= rhs;
    if constexpr (kPred == _MM_CMPINT_NLE) t = w[i] > rhs;
    if constexpr (kPred == _MM_CMPINT_NE) t = w[i] != rhs;
    mask[i] &= static_cast<uint8_t>(t);
  }
}

#endif  // EVE_KERNEL_AVX512

// mask[i] &= (w[i] op r) over [begin, end): the innermost loop of integer
// selection pushdown.  SIMD when compiled in, the scalar fold otherwise.
inline void AndWordsConst(CompOp op, const int64_t* w, int64_t begin,
                          int64_t end, int64_t rhs, uint8_t* mask) {
#ifdef EVE_KERNEL_AVX512
  switch (op) {
    case CompOp::kLess:
      AndWordsConstAvx512<_MM_CMPINT_LT>(w, begin, end, rhs, mask);
      return;
    case CompOp::kLessEqual:
      AndWordsConstAvx512<_MM_CMPINT_LE>(w, begin, end, rhs, mask);
      return;
    case CompOp::kEqual:
      AndWordsConstAvx512<_MM_CMPINT_EQ>(w, begin, end, rhs, mask);
      return;
    case CompOp::kGreaterEqual:
      AndWordsConstAvx512<_MM_CMPINT_NLT>(w, begin, end, rhs, mask);
      return;
    case CompOp::kGreater:
      AndWordsConstAvx512<_MM_CMPINT_NLE>(w, begin, end, rhs, mask);
      return;
    case CompOp::kNotEqual:
      AndWordsConstAvx512<_MM_CMPINT_NE>(w, begin, end, rhs, mask);
      return;
  }
#else
  DispatchOp(op, [&](auto cmp) {
    for (int64_t i = begin; i < end; ++i) {
      mask[i] &= static_cast<uint8_t>(cmp(w[i], rhs));
    }
  });
#endif
}

}  // namespace

void AndCompareColumnConst(CompOp op, const ColumnSegment& col,
                           const Value& rhs, uint8_t* mask) {
  const auto exc = [&](int64_t row, const Value& v) {
    mask[row] &= static_cast<uint8_t>(EvalCompOp(op, v, rhs));
  };
  const auto zero = [&](int64_t k, int64_t b, int64_t e) {
    ZeroRun(mask + Base(k), b, e);
  };
  switch (col.encoding()) {
    case ColumnSegment::Encoding::kInt64: {
      if (rhs.type() == DataType::kInt64) {
        const int64_t r = rhs.AsInt();
        ForEachRun(
            col,
            [&](int64_t k, int64_t b, int64_t e) {
              AndWordsConst(op, col.chunk(k).words.data(), b, e, r,
                            mask + Base(k));
            },
            exc);
        return;
      }
      if (rhs.type() == DataType::kDouble && !std::isnan(rhs.AsDouble())) {
        const double r = rhs.AsDouble();
        DispatchOp(op, [&](auto cmp) {
          ForEachRun(
              col,
              [&](int64_t k, int64_t b, int64_t e) {
                const int64_t* w = col.chunk(k).words.data();
                uint8_t* m = mask + Base(k);
                for (int64_t i = b; i < e; ++i) {
                  m[i] &= static_cast<uint8_t>(cmp(static_cast<double>(w[i]), r));
                }
              },
              exc);
        });
        return;
      }
      // NULL, NaN, or a string rhs: false against every packed int row.
      ForEachRun(col, zero, exc);
      return;
    }
    case ColumnSegment::Encoding::kString: {
      if (rhs.type() == DataType::kString) {
        if (rhs.string_pool_index() == col.pool() && StringEqualityOp(op)) {
          const int64_t r = ColumnSegment::StringWord(rhs);
          DispatchOp(op, [&](auto cmp) {
            ForEachRun(
                col,
                [&](int64_t k, int64_t b, int64_t e) {
                  const int64_t* w = col.chunk(k).words.data();
                  uint8_t* m = mask + Base(k);
                  for (int64_t i = b; i < e; ++i) {
                    m[i] &= static_cast<uint8_t>(cmp(w[i], r));
                  }
                },
                exc);
          });
          return;
        }
        // Ordered / cross-pool string compare: per row, but still skipping
        // the sidecar lookup on packed rows.
        const uint32_t pool = col.pool();
        ForEachRun(
            col,
            [&](int64_t k, int64_t b, int64_t e) {
              const int64_t* w = col.chunk(k).words.data();
              uint8_t* m = mask + Base(k);
              for (int64_t i = b; i < e; ++i) {
                m[i] &= static_cast<uint8_t>(
                    EvalCompOp(op, UnpackStringWord(w[i], pool), rhs));
              }
            },
            exc);
        return;
      }
      // Numeric or NULL rhs: false against every packed string row.
      ForEachRun(col, zero, exc);
      return;
    }
    case ColumnSegment::Encoding::kTagged: {
      if (col.tagged_all_int64() && rhs.type() == DataType::kInt64) {
        const int64_t r = rhs.AsInt();
        DispatchOp(op, [&](auto cmp) {
          ForEachTaggedChunk(col, [&](const Value* v, int64_t base, int64_t n) {
            uint8_t* m = mask + base;
            for (int64_t i = 0; i < n; ++i) {
              m[i] &= static_cast<uint8_t>(cmp(v[i].AsInt(), r));
            }
          });
        });
        return;
      }
      if (col.tagged_all_int64() && rhs.type() == DataType::kDouble &&
          !std::isnan(rhs.AsDouble())) {
        const double r = rhs.AsDouble();
        DispatchOp(op, [&](auto cmp) {
          ForEachTaggedChunk(col, [&](const Value* v, int64_t base, int64_t n) {
            uint8_t* m = mask + base;
            for (int64_t i = 0; i < n; ++i) {
              m[i] &= static_cast<uint8_t>(
                  cmp(static_cast<double>(v[i].AsInt()), r));
            }
          });
        });
        return;
      }
      ForEachTaggedChunk(col, [&](const Value* v, int64_t base, int64_t n) {
        uint8_t* m = mask + base;
        for (int64_t i = 0; i < n; ++i) {
          m[i] &= static_cast<uint8_t>(EvalCompOp(op, v[i], rhs));
        }
      });
      return;
    }
  }
}

void AndCompareColumns(CompOp op, const ColumnSegment& lhs,
                       const ColumnSegment& rhs, uint8_t* mask) {
  const int64_t n = lhs.size();
  const auto generic_row = [&](int64_t row) {
    mask[row] &= static_cast<uint8_t>(
        EvalCompOp(op, lhs.ValueAt(row), rhs.ValueAt(row)));
  };
  const bool both_words =
      (lhs.encoding() == ColumnSegment::Encoding::kInt64 &&
       rhs.encoding() == ColumnSegment::Encoding::kInt64) ||
      (lhs.encoding() == ColumnSegment::Encoding::kString &&
       rhs.encoding() == ColumnSegment::Encoding::kString &&
       lhs.pool() == rhs.pool() && StringEqualityOp(op));
  if (both_words) {
    DispatchOp(op, [&](auto cmp) {
      ForEachRun2(
          lhs, rhs,
          [&](int64_t k, int64_t b, int64_t e) {
            const int64_t* lw = lhs.chunk(k).words.data();
            const int64_t* rw = rhs.chunk(k).words.data();
            uint8_t* m = mask + Base(k);
            for (int64_t i = b; i < e; ++i) {
              m[i] &= static_cast<uint8_t>(cmp(lw[i], rw[i]));
            }
          },
          generic_row);
    });
    return;
  }
  if (lhs.packed() && rhs.packed() && lhs.encoding() != rhs.encoding()) {
    // Packed int vs packed string rows are never comparable; only the
    // sidecar rows can hold cross-type surprises.
    ForEachRun2(
        lhs, rhs,
        [&](int64_t k, int64_t b, int64_t e) { ZeroRun(mask + Base(k), b, e); },
        generic_row);
    return;
  }
  if (lhs.encoding() == ColumnSegment::Encoding::kInt64 &&
      rhs.tagged_all_int64()) {
    DispatchOp(op, [&](auto cmp) {
      ForEachRun(
          lhs,
          [&](int64_t k, int64_t b, int64_t e) {
            const int64_t* lw = lhs.chunk(k).words.data();
            const Value* rv = rhs.chunk(k).tagged.data();
            uint8_t* m = mask + Base(k);
            for (int64_t i = b; i < e; ++i) {
              m[i] &= static_cast<uint8_t>(cmp(lw[i], rv[i].AsInt()));
            }
          },
          [&](int64_t row, const Value&) { generic_row(row); });
    });
    return;
  }
  if (rhs.encoding() == ColumnSegment::Encoding::kInt64 &&
      lhs.tagged_all_int64()) {
    DispatchOp(op, [&](auto cmp) {
      ForEachRun(
          rhs,
          [&](int64_t k, int64_t b, int64_t e) {
            const Value* lv = lhs.chunk(k).tagged.data();
            const int64_t* rw = rhs.chunk(k).words.data();
            uint8_t* m = mask + Base(k);
            for (int64_t i = b; i < e; ++i) {
              m[i] &= static_cast<uint8_t>(cmp(lv[i].AsInt(), rw[i]));
            }
          },
          [&](int64_t row, const Value&) { generic_row(row); });
    });
    return;
  }
  if (lhs.encoding() == ColumnSegment::Encoding::kTagged &&
      rhs.encoding() == ColumnSegment::Encoding::kTagged) {
    const bool all_int = lhs.tagged_all_int64() && rhs.tagged_all_int64();
    ForEachTaggedChunk(lhs, [&](const Value* lv, int64_t base, int64_t len) {
      const Value* rv =
          rhs.chunk(base >> ColumnSegment::kChunkShift).tagged.data();
      uint8_t* m = mask + base;
      if (all_int) {
        DispatchOp(op, [&](auto cmp) {
          for (int64_t i = 0; i < len; ++i) {
            m[i] &= static_cast<uint8_t>(cmp(lv[i].AsInt(), rv[i].AsInt()));
          }
        });
        return;
      }
      for (int64_t i = 0; i < len; ++i) {
        m[i] &= static_cast<uint8_t>(EvalCompOp(op, lv[i], rv[i]));
      }
    });
    return;
  }
  for (int64_t i = 0; i < n; ++i) generic_row(i);
}

void AndCompareGather(CompOp op, const ColumnSegment& lcol,
                      const int64_t* lrows, const ColumnSegment* rcol,
                      const int64_t* rrows, const Value* rhs_const, int64_t n,
                      uint8_t* mask) {
  if (rcol != nullptr) {
    const bool both_words =
        !lcol.has_exceptions() && !rcol->has_exceptions() &&
        ((lcol.encoding() == ColumnSegment::Encoding::kInt64 &&
          rcol->encoding() == ColumnSegment::Encoding::kInt64) ||
         (lcol.encoding() == ColumnSegment::Encoding::kString &&
          rcol->encoding() == ColumnSegment::Encoding::kString &&
          lcol.pool() == rcol->pool() && StringEqualityOp(op)));
    if (both_words) {
      const auto lw = lcol.Words();
      const auto rw = rcol->Words();
      DispatchOp(op, [&](auto cmp) {
        for (int64_t i = 0; i < n; ++i) {
          mask[i] &= static_cast<uint8_t>(cmp(lw[lrows[i]], rw[rrows[i]]));
        }
      });
      return;
    }
    if (lcol.tagged_all_int64() && rcol->tagged_all_int64()) {
      const auto lv = lcol.Tagged();
      const auto rv = rcol->Tagged();
      DispatchOp(op, [&](auto cmp) {
        for (int64_t i = 0; i < n; ++i) {
          mask[i] &= static_cast<uint8_t>(
              cmp(lv[lrows[i]].AsInt(), rv[rrows[i]].AsInt()));
        }
      });
      return;
    }
    for (int64_t i = 0; i < n; ++i) {
      mask[i] &= static_cast<uint8_t>(
          EvalCompOp(op, lcol.ValueAt(lrows[i]), rcol->ValueAt(rrows[i])));
    }
    return;
  }
  const bool word_const =
      !lcol.has_exceptions() &&
      ((lcol.encoding() == ColumnSegment::Encoding::kInt64 &&
        rhs_const->type() == DataType::kInt64) ||
       (lcol.encoding() == ColumnSegment::Encoding::kString &&
        rhs_const->type() == DataType::kString &&
        rhs_const->string_pool_index() == lcol.pool() &&
        StringEqualityOp(op)));
  if (word_const) {
    const auto w = lcol.Words();
    const int64_t r = lcol.encoding() == ColumnSegment::Encoding::kInt64
                          ? rhs_const->AsInt()
                          : ColumnSegment::StringWord(*rhs_const);
    DispatchOp(op, [&](auto cmp) {
      for (int64_t i = 0; i < n; ++i) {
        mask[i] &= static_cast<uint8_t>(cmp(w[lrows[i]], r));
      }
    });
    return;
  }
  if (lcol.tagged_all_int64() && rhs_const->type() == DataType::kInt64) {
    const auto lv = lcol.Tagged();
    const int64_t r = rhs_const->AsInt();
    DispatchOp(op, [&](auto cmp) {
      for (int64_t i = 0; i < n; ++i) {
        mask[i] &= static_cast<uint8_t>(cmp(lv[lrows[i]].AsInt(), r));
      }
    });
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(
        EvalCompOp(op, lcol.ValueAt(lrows[i]), *rhs_const));
  }
}

namespace {

// Shared shape of HashColumn / MixHashColumn: store(i, hash) receives every
// row's value hash in one pass, packed rows without Value materialization.
template <typename StoreFn>
inline void ForEachRowHash(const ColumnSegment& col, StoreFn&& store) {
  const auto exc = [&](int64_t row, const Value& v) { store(row, v.Hash()); };
  switch (col.encoding()) {
    case ColumnSegment::Encoding::kInt64:
      ForEachRun(
          col,
          [&](int64_t k, int64_t b, int64_t e) {
            const int64_t* w = col.chunk(k).words.data();
            const int64_t base = Base(k);
            for (int64_t i = b; i < e; ++i) {
              store(base + i, value_hash::HashInt64(w[i]));
            }
          },
          exc);
      return;
    case ColumnSegment::Encoding::kString:
      ForEachRun(
          col,
          [&](int64_t k, int64_t b, int64_t e) {
            const int64_t* w = col.chunk(k).words.data();
            const int64_t base = Base(k);
            for (int64_t i = b; i < e; ++i) {
              store(base + i, HashStringWord(w[i]));
            }
          },
          exc);
      return;
    case ColumnSegment::Encoding::kTagged:
      ForEachTaggedChunk(col, [&](const Value* v, int64_t base, int64_t n) {
        for (int64_t i = 0; i < n; ++i) store(base + i, v[i].Hash());
      });
      return;
  }
}

}  // namespace

void HashColumn(const ColumnSegment& col, size_t* out) {
  ForEachRowHash(col, [&](int64_t i, size_t h) { out[i] = h; });
}

void MixHashColumn(const ColumnSegment& col, size_t* acc) {
  ForEachRowHash(col, [&](int64_t i, size_t h) {
    acc[i] = (acc[i] ^ h) * kTupleHashPrime;
  });
}

void MixHashColumnGather(const ColumnSegment& col, const int64_t* rows,
                         int64_t n, size_t* acc) {
  switch (col.encoding()) {
    case ColumnSegment::Encoding::kInt64:
      if (!col.has_exceptions()) {
        const auto w = col.Words();
        for (int64_t i = 0; i < n; ++i) {
          acc[i] = (acc[i] ^ value_hash::HashInt64(w[rows[i]])) *
                   kTupleHashPrime;
        }
        return;
      }
      break;
    case ColumnSegment::Encoding::kString:
      if (!col.has_exceptions()) {
        const auto w = col.Words();
        for (int64_t i = 0; i < n; ++i) {
          acc[i] = (acc[i] ^ HashStringWord(w[rows[i]])) * kTupleHashPrime;
        }
        return;
      }
      break;
    case ColumnSegment::Encoding::kTagged: {
      const auto tv = col.Tagged();
      for (int64_t i = 0; i < n; ++i) {
        acc[i] = (acc[i] ^ tv[rows[i]].Hash()) * kTupleHashPrime;
      }
      return;
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    acc[i] = (acc[i] ^ col.ValueAt(rows[i]).Hash()) * kTupleHashPrime;
  }
}

}  // namespace eve
