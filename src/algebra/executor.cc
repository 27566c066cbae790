#include "algebra/executor.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "expr/comp_op.h"
#include "storage/column_kernel.h"
#include "storage/hash_index.h"
#include "storage/row_dedup.h"

namespace eve {

Result<Relation> ExecutePrepared(const PreparedView& plan,
                                 const ExecContext& ctx) {
  ExecGovernor gov(ctx);
  const int n = static_cast<int>(plan.from.size());
  const std::vector<int>& pos_of_item = plan.pos_of_item;

  // Struct-of-arrays working set (see JoinWorkingSet): one row-id column
  // per joined FROM item.  Base tuples are dereferenced only for predicate
  // columns; nothing is materialized until the final projection.
  JoinWorkingSet ws;
  ws.columns.reserve(n);

  // Per-step candidate buffers: candidate i is the pair (parents[i] =
  // combo index in the current working set, rows[i] = row id of the
  // step's relation).  `parents` is thread-local so its capacity (sized
  // from index statistics below) stays warm across executions -- repeated
  // sweep queries neither re-allocate it nor bounce a large buffer off
  // the allocator's mmap threshold.  `rows` stays function-local: it is
  // moved into the working set as the step's column, so a persistent
  // buffer could never keep its capacity anyway.
  static thread_local std::vector<int64_t> parents;
  std::vector<int64_t> rows;

  for (int s = 0; s < n; ++s) {
    const PlannedJoinStep& step = plan.steps[s];
    const int k = step.item;
    const Relation& rel = *plan.from[k].rel;

    if (s == 0) {
      std::vector<int64_t> driving;
      if (plan.filtered[k].empty() && plan.passes[k].empty()) {
        driving.resize(rel.cardinality());
        std::iota(driving.begin(), driving.end(), int64_t{0});
      } else {
        driving = plan.filtered[k];
      }
      ws.combos = driving.size();
      ws.columns.push_back(std::move(driving));
      EVE_RETURN_IF_ERROR(gov.Charge(static_cast<int64_t>(ws.combos)));
      if (ws.combos == 0) break;
      continue;
    }

    EVE_FAULT_POINT("executor.probe");
    parents.clear();
    rows.clear();

    if (step.key_right_local >= 0) {
      std::optional<HashIndex> scoped_index;
      const HashIndex* index;
      if (step.index != nullptr) {
        // Plan-captured index (plan/planner.cc): zero locks per execution.
        index = step.index.get();
      } else if (plan.options.use_index_cache) {
        index = &rel.Index(step.key_right_local);
      } else {
        scoped_index.emplace(rel, step.key_right_local);
        index = &*scoped_index;
      }
      // Size the candidate buffers from index statistics (expected fanout =
      // |R| / V(key)), so high-fanout joins append without growth
      // reallocations.  The estimate assumes every probe key matches, so
      // it is bounded -- relatively (16x the probe count) and absolutely
      // (8 MB per buffer) -- to keep selective joins from speculatively
      // allocating far beyond their real output and pinning it in the
      // thread-local buffer.
      const int64_t keys = index->DistinctKeys();
      if (keys > 0) {
        const size_t expected =
            static_cast<size_t>(static_cast<double>(ws.combos) *
                                static_cast<double>(rel.cardinality()) /
                                static_cast<double>(keys)) +
            ws.combos;
        const size_t bounded = std::min(
            {expected, ws.combos * 16 + 1024, size_t{1} << 20});
        parents.reserve(bounded);
        rows.reserve(bounded);
      }
      // Batch probe: the key source is one column segment of one
      // relation addressed through one row-id column, so everything
      // loop-invariant is hoisted and the scan touches memory sequentially.
      const ColumnSegment& key_vals =
          plan.from[step.key_left_item].rel->Segment(step.key_left_local);
      const std::vector<int64_t>& key_col =
          ws.columns[pos_of_item[step.key_left_item]];
      const std::vector<uint8_t>& passes = plan.passes[k];
      // The governed variant charges each probed combo plus its emitted
      // candidates, so a pathological fan-out trips the budget/deadline
      // mid-probe instead of after materializing the whole cross product.
      const bool governed = gov.active();
      size_t charged = 0;
      for (size_t i = 0; i < ws.combos; ++i) {
        const Value key = key_vals.ValueAt(key_col[i]);
        for (int64_t row : index->Lookup(key)) {
          if (!passes.empty() && !passes[row]) continue;
          parents.push_back(static_cast<int64_t>(i));
          rows.push_back(row);
        }
        if (governed) {
          EVE_RETURN_IF_ERROR(
              gov.Charge(static_cast<int64_t>(rows.size() - charged) + 1));
          charged = rows.size();
        }
      }
    } else {
      // Nested loop over the prefiltered rows (cross product + residuals).
      const bool unfiltered =
          plan.filtered[k].empty() && plan.passes[k].empty();
      const bool governed = gov.active();
      size_t charged = 0;
      for (size_t i = 0; i < ws.combos; ++i) {
        if (unfiltered) {
          for (int64_t row = 0; row < rel.cardinality(); ++row) {
            parents.push_back(static_cast<int64_t>(i));
            rows.push_back(row);
          }
        } else {
          for (int64_t row : plan.filtered[k]) {
            parents.push_back(static_cast<int64_t>(i));
            rows.push_back(row);
          }
        }
        if (governed) {
          EVE_RETURN_IF_ERROR(
              gov.Charge(static_cast<int64_t>(rows.size() - charged) + 1));
          charged = rows.size();
        }
      }
    }

    // Residual predicates filter the candidate pairs clause by clause
    // through a byte mask: each clause is one kernel pass over contiguous
    // row-id arrays against chunked value columns (the operator dispatch
    // and column pointers hoisted out of the candidate loop), then the
    // survivors compact once.
    if (!step.residual.empty() && !parents.empty()) {
      static thread_local std::vector<uint8_t> res_mask;
      static thread_local std::vector<std::vector<int64_t>> side_buffers;
      const size_t m = parents.size();
      // One work unit per (candidate, clause) kernel evaluation.
      EVE_RETURN_IF_ERROR(
          gov.Charge(static_cast<int64_t>(m * step.residual.size())));
      res_mask.assign(m, 1);
      // Row ids of `item` per candidate: the step's own rows directly, or
      // the item's working-set column gathered through the parent ids.
      // Gathers are memoized per item for the duration of this step, so
      // several clauses over one item (or one clause comparing two of its
      // columns) pay a single O(m) pass.
      std::vector<std::pair<int, const int64_t*>> gathered;
      const auto side_rows = [&](int item) -> const int64_t* {
        if (item == k) return rows.data();
        for (const auto& [done, ptr] : gathered) {
          if (done == item) return ptr;
        }
        if (side_buffers.size() <= gathered.size()) side_buffers.emplace_back();
        std::vector<int64_t>& scratch = side_buffers[gathered.size()];
        const std::vector<int64_t>& col = ws.columns[pos_of_item[item]];
        scratch.resize(m);
        for (size_t i = 0; i < m; ++i) scratch[i] = col[parents[i]];
        gathered.emplace_back(item, scratch.data());
        return scratch.data();
      };
      for (const PlannedResidual& c : step.residual) {
        const Relation& lhs_rel = *plan.from[c.lhs_item].rel;
        const int64_t* lrows = side_rows(c.lhs_item);
        if (c.rhs_item >= 0) {
          const Relation& rhs_rel = *plan.from[c.rhs_item].rel;
          AndCompareGather(c.op, lhs_rel.Segment(c.lhs_local), lrows,
                           &rhs_rel.Segment(c.rhs_local),
                           side_rows(c.rhs_item),
                           /*rhs_const=*/nullptr, static_cast<int64_t>(m),
                           res_mask.data());
        } else {
          AndCompareGather(c.op, lhs_rel.Segment(c.lhs_local), lrows,
                           /*rcol=*/nullptr, /*rrows=*/nullptr, &c.rhs_value,
                           static_cast<int64_t>(m), res_mask.data());
        }
      }
      size_t kept = 0;
      for (size_t i = 0; i < m; ++i) {
        if (!res_mask[i]) continue;
        parents[kept] = parents[i];
        rows[kept] = rows[i];
        ++kept;
      }
      parents.resize(kept);
      rows.resize(kept);
    }

    // Gather the surviving parents through every existing column -- one
    // sequential batch copy per column instead of a scratch copy per
    // candidate -- then append the new item's rows as its own column.
    // Double-buffered: the gather target is the recycled scratch buffer,
    // and the swapped-out column becomes the scratch for the next gather.
    EVE_FAULT_POINT("executor.gather");
    EVE_RETURN_IF_ERROR(gov.Charge(
        static_cast<int64_t>(parents.size() * ws.columns.size())));
    if (ctx.limited()) {
      // The step's working set: one int64 per (column, candidate).
      EVE_RETURN_IF_ERROR(ctx.ConsumeMemory(static_cast<int64_t>(
          parents.size() * (ws.columns.size() + 1) * sizeof(int64_t))));
    }
    for (std::vector<int64_t>& column : ws.columns) {
      ws.scratch.clear();
      ws.scratch.reserve(parents.size());
      for (const int64_t p : parents) ws.scratch.push_back(column[p]);
      std::swap(column, ws.scratch);
    }
    ws.columns.push_back(std::move(rows));
    ws.combos = parents.size();
    if (ws.combos == 0) break;  // Later joins cannot resurrect tuples.
  }

  // Materialize column by column.  Each output column is one
  // gather from its base relation's value column through the row-id column;
  // no Tuple is ever constructed.  The distinct pass dedups combo ids
  // first (hashing and equality run against the base columns), so only
  // surviving combos are gathered at all.
  EVE_RETURN_IF_ERROR(gov.Flush());  // Charge the tail before materializing.
  if (ws.combos == 0 || static_cast<int>(ws.columns.size()) != n) {
    return Relation(plan.view_name, plan.out_schema);
  }
  EVE_FAULT_POINT("executor.materialize");
  struct OutSrc {
    const ColumnSegment* col;           ///< Base relation's column segment.
    const std::vector<int64_t>* rows;   ///< Its row-id working-set column.
  };
  std::vector<OutSrc> src;
  src.reserve(plan.out_cols.size());
  for (const PreparedView::OutCol& oc : plan.out_cols) {
    src.push_back(OutSrc{&plan.from[oc.item].rel->Segment(oc.local),
                         &ws.columns[pos_of_item[oc.item]]});
  }
  const auto value_of = [&](const OutSrc& s, int64_t combo) -> Value {
    return s.col->ValueAt((*s.rows)[combo]);
  };

  // Output cells: one gathered Value per (output column, combo).
  EVE_RETURN_IF_ERROR(
      gov.Charge(static_cast<int64_t>(ws.combos * src.size())));
  EVE_RETURN_IF_ERROR(gov.Flush());
  if (ctx.limited()) {
    EVE_RETURN_IF_ERROR(ctx.ConsumeMemory(
        static_cast<int64_t>(ws.combos * src.size() * sizeof(Value))));
  }

  if (!plan.options.distinct) {
    // Every combo survives: each output column is one segment gather, so a
    // packed source column materializes as a packed output column.
    std::vector<ColumnSegment> out_columns(src.size());
    for (size_t c = 0; c < src.size(); ++c) {
      out_columns[c].AppendGathered(*src[c].col, src[c].rows->data(),
                                    ws.combos);
    }
    return Relation::FromSegments(plan.view_name, plan.out_schema,
                                  std::move(out_columns));
  }

  std::vector<int64_t> keep;  // Surviving combo ids, in combo order.
  {
    // Per-combo output hash, one gather-and-mix pass per output column
    // (matches Tuple::Hash of the projected row).
    std::vector<size_t> hashes(ws.combos, kTupleHashBasis);
    for (const OutSrc& s : src) {
      MixHashColumnGather(*s.col, s.rows->data(),
                          static_cast<int64_t>(ws.combos), hashes.data());
    }
    RowDedupTable seen(ws.combos);
    for (size_t i = 0; i < ws.combos; ++i) {
      const int64_t combo = static_cast<int64_t>(i);
      const int64_t dup = seen.InsertIfAbsent(hashes[i], combo, [&](int64_t j) {
        for (const OutSrc& s : src) {
          if (!(value_of(s, j) == value_of(s, combo))) return false;
        }
        return true;
      });
      if (dup < 0) keep.push_back(combo);
    }
  }

  std::vector<ColumnSegment> out_columns(src.size());
  std::vector<int64_t> gather_rows(keep.size());
  for (size_t c = 0; c < src.size(); ++c) {
    const std::vector<int64_t>& combo_rows = *src[c].rows;
    for (size_t i = 0; i < keep.size(); ++i) {
      gather_rows[i] = combo_rows[static_cast<size_t>(keep[i])];
    }
    out_columns[c].AppendGathered(*src[c].col, gather_rows.data(),
                                  keep.size());
  }
  return Relation::FromSegments(plan.view_name, plan.out_schema,
                                std::move(out_columns));
}

Result<Relation> ExecuteView(const ViewDefinition& view,
                             const RelationProvider& provider,
                             const ExecOptions& options,
                             const ExecContext& ctx) {
  EVE_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedView> plan,
                       PrepareView(view, provider, options, ctx));
  return ExecutePrepared(*plan, ctx);
}

namespace {

// The reference executor is the seed's implementation kept frozen as an
// oracle, so it carries its own FROM resolution and binding construction
// instead of sharing the planner's.
struct ResolvedFrom {
  const FromItem* item;
  const Relation* relation;
  int offset;  // First column of this relation in the joined tuple.
};

Result<std::vector<ResolvedFrom>> ResolveAll(const ViewDefinition& view,
                                             const RelationProvider& provider) {
  std::vector<ResolvedFrom> out;
  int offset = 0;
  for (const FromItem& f : view.from_items) {
    EVE_ASSIGN_OR_RETURN(const Relation* rel,
                         provider.Resolve(f.site, f.relation));
    out.push_back(ResolvedFrom{&f, rel, offset});
    offset += rel->schema().size();
  }
  return out;
}

Result<Binding> MakeBinding(const std::vector<ResolvedFrom>& resolved) {
  Binding binding;
  for (const ResolvedFrom& rf : resolved) {
    const Schema& schema = rf.relation->schema();
    for (int i = 0; i < schema.size(); ++i) {
      EVE_RETURN_IF_ERROR(binding.Register(
          RelAttr{rf.item->name(), schema.attribute(i).name}, rf.offset + i));
    }
  }
  return binding;
}

// An equality clause usable as a hash-join key between the accumulated
// prefix and the relation being joined (reference executor).
struct JoinKey {
  int left_column;   // Column in the accumulated tuple.
  int right_column;  // Column within relation k (0-based inside relation).
};

}  // namespace

// The seed's executor, kept verbatim as the equivalence oracle and the
// benchmark baseline: fixed FROM-order left-deep joins, per-call index
// builds, and full materialization of every intermediate tuple.
Result<Relation> ExecuteViewReference(const ViewDefinition& view,
                                      const RelationProvider& provider,
                                      const ExecOptions& options,
                                      const ExecContext& ctx) {
  EVE_FAULT_POINT("executor.reference");
  ExecGovernor gov(ctx);
  EVE_RETURN_IF_ERROR(view.Validate());
  EVE_ASSIGN_OR_RETURN(std::vector<ResolvedFrom> resolved,
                       ResolveAll(view, provider));
  EVE_ASSIGN_OR_RETURN(Binding binding, MakeBinding(resolved));

  // Partition clauses by the join step at which they become evaluable.
  const int n = static_cast<int>(resolved.size());
  std::vector<std::vector<PrimitiveClause>> step_clauses(n);
  for (const ConditionItem& c : view.where) {
    int last = -1;
    for (const RelAttr& a : c.clause.Attributes()) {
      for (size_t i = 0; i < resolved.size(); ++i) {
        if (resolved[i].item->name() == a.relation) {
          last = std::max(last, static_cast<int>(i));
        }
      }
    }
    if (last < 0) {
      return Status::Internal("clause references no FROM item: " +
                              c.clause.ToString());
    }
    step_clauses[last].push_back(c.clause);
  }

  // Working set: joined tuples over FROM items [0..k].
  std::vector<Tuple> current;
  for (int k = 0; k < n; ++k) {
    const Relation& rel = *resolved[k].relation;
    EVE_ASSIGN_OR_RETURN(std::vector<BoundClause> bound,
                         BindAll(Conjunction(step_clauses[k]), binding));

    // Split this step's clauses into a hash-joinable equality (if any,
    // for k > 0) and residual predicates.
    std::optional<JoinKey> key;
    std::vector<BoundClause> residual;
    for (size_t ci = 0; ci < bound.size(); ++ci) {
      const BoundClause& bc = bound[ci];
      const int lo = resolved[k].offset;
      const int hi = lo + rel.schema().size();
      const bool lhs_in_k = bc.lhs_column >= lo && bc.lhs_column < hi;
      const bool rhs_is_col = bc.rhs_column >= 0;
      const bool rhs_in_k =
          rhs_is_col && bc.rhs_column >= lo && bc.rhs_column < hi;
      if (k > 0 && !key.has_value() && bc.op == CompOp::kEqual && rhs_is_col &&
          lhs_in_k != rhs_in_k) {
        key = lhs_in_k ? JoinKey{bc.rhs_column, bc.lhs_column - lo}
                       : JoinKey{bc.lhs_column, bc.rhs_column - lo};
      } else {
        residual.push_back(bc);
      }
    }

    std::vector<Tuple> next;
    if (k == 0) {
      // Base scan with local selection.
      for (int64_t row = 0; row < rel.cardinality(); ++row) {
        EVE_RETURN_IF_ERROR(gov.Charge());
        Tuple t = rel.TupleAt(row);
        if (EvalAll(bound, t)) next.push_back(std::move(t));
      }
    } else if (key.has_value()) {
      HashIndex index(rel, key->right_column);
      for (const Tuple& acc : current) {
        for (int64_t row : index.Lookup(acc.at(key->left_column))) {
          EVE_RETURN_IF_ERROR(gov.Charge());
          Tuple joined = rel.ConcatRow(acc, row);
          if (EvalAll(residual, joined)) next.push_back(std::move(joined));
        }
      }
    } else {
      // Nested-loop join (cross product + residual predicates).
      for (const Tuple& acc : current) {
        for (int64_t row = 0; row < rel.cardinality(); ++row) {
          EVE_RETURN_IF_ERROR(gov.Charge());
          Tuple joined = rel.ConcatRow(acc, row);
          if (EvalAll(residual, joined)) next.push_back(std::move(joined));
        }
      }
    }
    current = std::move(next);
  }
  // Charge the sub-stride tail so a small input still honors its
  // deadline/budget before results materialize.
  EVE_RETURN_IF_ERROR(gov.Flush());

  // Projection onto the SELECT list.
  std::vector<int> out_columns;
  std::vector<Attribute> out_attrs;
  for (const SelectItem& s : view.select_items) {
    EVE_ASSIGN_OR_RETURN(const int col, binding.Resolve(s.source));
    out_columns.push_back(col);
    // Find the source attribute to copy its type/size.
    const FromItem* f = view.FindFrom(s.source.relation);
    EVE_ASSIGN_OR_RETURN(const Relation* rel,
                         provider.Resolve(f->site, f->relation));
    const auto idx = rel->schema().IndexOf(s.source.attribute);
    if (!idx.has_value()) {
      return Status::NotFound("attribute " + s.source.ToString() +
                              " not in relation " + rel->name());
    }
    Attribute a = rel->schema().attribute(*idx);
    a.name = s.name();
    out_attrs.push_back(std::move(a));
  }

  Relation result(view.name, Schema(std::move(out_attrs)));
  for (const Tuple& t : current) {
    result.InsertUnchecked(t.Project(out_columns));
  }
  return options.distinct ? result.Distinct() : result;
}

}  // namespace eve
