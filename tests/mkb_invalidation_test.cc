// Delta-aware MKB memo invalidation (misd/mkb.h): twin MKBs -- one with
// selective invalidation (the default), one in the seed's full-flush mode --
// driven through the same interleaved mutation/query script, with every
// memoized closure answer checked against PcEdgesFromTransitiveUncached
// (the oracle that rebuilds adjacency from the constraint store per query).
// Selective invalidation is an optimization only: both modes must answer
// every query identically at every step; only the recomputation counters
// may differ.
//
// The closure property tests at the end check all three closure entry
// points against a path-by-path enumerator written here, on random PC
// graphs, field by field and in order.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "misd/mkb.h"

namespace eve {
namespace {

Schema IntSchema(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  for (const std::string& n : names) {
    attrs.push_back(Attribute::Make(n, DataType::kInt64, 25));
  }
  return Schema(std::move(attrs));
}

// Order- and provenance-insensitive rendering of an edge set.  The
// constraint text is included so bridge edges (installed by Unregister /
// RemoveAttribute) must match across modes too, not just endpoints.
std::vector<std::string> EdgeKeys(const std::vector<PcEdge>& edges) {
  std::vector<std::string> keys;
  keys.reserve(edges.size());
  for (const PcEdge& e : edges) {
    std::string key = e.source.ToString() + "->" + e.target.ToString() + "|" +
                      std::string(PcRelationTypeToString(e.type)) + "|";
    for (const auto& [from, to] : e.attribute_map) {
      key += from + ":" + to + ",";
    }
    key += "|" + e.constraint_text;
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// A replica chain R0..R4 (sites S0..S4) plus an unrelated island T0-T1
// whose churn must leave the chain's closures warm.
void BuildSpace(MetaKnowledgeBase& mkb) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(mkb.RegisterRelationWithStats(
                       RelationId{"S" + std::to_string(i),
                                  "R" + std::to_string(i)},
                       IntSchema({"K", "V"}), 100)
                    .ok());
  }
  for (int i = 0; i + 1 < 5; ++i) {
    ASSERT_TRUE(mkb.AddPcConstraint(MakeProjectionPc(
                       RelationId{"S" + std::to_string(i),
                                  "R" + std::to_string(i)},
                       RelationId{"S" + std::to_string(i + 1),
                                  "R" + std::to_string(i + 1)},
                       {"K", "V"}, PcRelationType::kEquivalent))
                    .ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(mkb.RegisterRelationWithStats(
                       RelationId{"T", "T" + std::to_string(i)},
                       IntSchema({"K", "V"}), 50)
                    .ok());
  }
  ASSERT_TRUE(mkb.AddPcConstraint(MakeProjectionPc(
                     RelationId{"T", "T0"}, RelationId{"T", "T1"}, {"K", "V"},
                     PcRelationType::kSubset))
                  .ok());
}

class MkbInvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildSpace(selective_);
    BuildSpace(full_);
    full_.set_selective_invalidation(false);
  }

  // Memoized closures of both twins vs the uncached oracle, for every
  // registered relation at 1 and 4 hops (EdgeKeys copies everything, so the
  // memo references' next-non-const-call validity rule is respected).
  void ExpectClosuresAgree(const std::string& step) {
    ASSERT_EQ(selective_.Relations(), full_.Relations()) << step;
    for (const RelationId& id : selective_.Relations()) {
      for (int hops : {1, 4}) {
        const auto oracle = EdgeKeys(
            selective_.PcEdgesFromTransitiveUncached(id, hops));
        EXPECT_EQ(EdgeKeys(selective_.PcEdgesFromTransitive(id, hops)), oracle)
            << step << ": selective vs oracle at " << id.ToString() << "/"
            << hops;
        EXPECT_EQ(EdgeKeys(full_.PcEdgesFromTransitive(id, hops)), oracle)
            << step << ": full-flush vs oracle at " << id.ToString() << "/"
            << hops;
      }
    }
  }

  // Applies one mutation to both twins and re-verifies every closure.
  template <typename Fn>
  void Mutate(const std::string& step, Fn&& fn) {
    fn(selective_);
    fn(full_);
    ExpectClosuresAgree(step);
  }

  MetaKnowledgeBase selective_;
  MetaKnowledgeBase full_;
};

TEST_F(MkbInvalidationTest, InterleavedMutationsMatchOracle) {
  ExpectClosuresAgree("initial");

  Mutate("rename island attribute", [](MetaKnowledgeBase& mkb) {
    ASSERT_TRUE(mkb.RenameAttribute(RelationId{"T", "T0"}, "V", "W").ok());
  });
  Mutate("add attribute", [](MetaKnowledgeBase& mkb) {
    ASSERT_TRUE(mkb.AddAttribute(RelationId{"S0", "R0"},
                                 Attribute::Make("E", DataType::kInt64, 25))
                    .ok());
  });
  Mutate("remove constrained attribute", [](MetaKnowledgeBase& mkb) {
    // Drops both chain constraints at R2 and installs R1<->R3 bridges.
    ASSERT_TRUE(mkb.RemoveAttribute(RelationId{"S2", "R2"}, "V").ok());
  });
  Mutate("unregister mid-chain", [](MetaKnowledgeBase& mkb) {
    ASSERT_TRUE(mkb.UnregisterRelation(RelationId{"S1", "R1"}).ok());
  });
  Mutate("register + link new replica", [](MetaKnowledgeBase& mkb) {
    ASSERT_TRUE(mkb.RegisterRelationWithStats(RelationId{"S5", "R5"},
                                              IntSchema({"K", "V"}), 100)
                    .ok());
    ASSERT_TRUE(mkb.AddPcConstraint(MakeProjectionPc(
                       RelationId{"S4", "R4"}, RelationId{"S5", "R5"},
                       {"K", "V"}, PcRelationType::kEquivalent))
                    .ok());
  });
  Mutate("rename relation", [](MetaKnowledgeBase& mkb) {
    ASSERT_TRUE(mkb.RenameRelation(RelationId{"S3", "R3"}, "R3x").ok());
  });
  Mutate("rename chain attribute", [](MetaKnowledgeBase& mkb) {
    ASSERT_TRUE(mkb.RenameAttribute(RelationId{"S4", "R4"}, "V", "Vr").ok());
  });

  // The twins diverge only in how much they recomputed.
  const MkbMemoStats selective = selective_.memo_stats();
  const MkbMemoStats full = full_.memo_stats();
  EXPECT_GT(selective.memo_survivals, 0);
  EXPECT_GT(selective.selective_drops, 0);
  EXPECT_EQ(selective.full_flushes, 0);
  EXPECT_GT(full.full_flushes, 0);
  EXPECT_EQ(full.memo_survivals, 0);
  EXPECT_EQ(full.selective_drops, 0);
  EXPECT_GT(full.closure_misses, selective.closure_misses);
}

TEST_F(MkbInvalidationTest, UnrelatedMutationKeepsClosureWarm) {
  // Warm the chain-head closure in both twins.
  (void)selective_.PcEdgesFromTransitive(RelationId{"S0", "R0"}, 4);
  (void)full_.PcEdgesFromTransitive(RelationId{"S0", "R0"}, 4);
  const int64_t selective_misses = selective_.memo_stats().closure_misses;
  const int64_t full_misses = full_.memo_stats().closure_misses;

  // Mutate only the island; the chain closure does not reach it.
  ASSERT_TRUE(selective_.RenameAttribute(RelationId{"T", "T1"}, "V", "W").ok());
  ASSERT_TRUE(full_.RenameAttribute(RelationId{"T", "T1"}, "V", "W").ok());

  const auto& warm = selective_.PcEdgesFromTransitive(RelationId{"S0", "R0"}, 4);
  EXPECT_EQ(warm.size(), 4u);  // R0 reaches R1..R4.
  EXPECT_EQ(selective_.memo_stats().closure_misses, selective_misses)
      << "unrelated mutation must not cost a recomputation";
  (void)full_.PcEdgesFromTransitive(RelationId{"S0", "R0"}, 4);
  EXPECT_EQ(full_.memo_stats().closure_misses, full_misses + 1)
      << "full flush recomputes after any mutation";
}

TEST_F(MkbInvalidationTest, IntersectingMutationDropsClosure) {
  (void)selective_.PcEdgesFromTransitive(RelationId{"S0", "R0"}, 4);
  const int64_t misses = selective_.memo_stats().closure_misses;

  // R4 is in the closure's reached set, so the entry must drop.
  ASSERT_TRUE(selective_.RenameAttribute(RelationId{"S4", "R4"}, "V", "W").ok());
  (void)selective_.PcEdgesFromTransitive(RelationId{"S0", "R0"}, 4);
  EXPECT_EQ(selective_.memo_stats().closure_misses, misses + 1);
}

TEST_F(MkbInvalidationTest, JcPairCacheAgreesAcrossModes) {
  JoinConstraint jc;
  jc.left = RelationId{"S0", "R0"};
  jc.right = RelationId{"T", "T0"};
  jc.condition.Add(PrimitiveClause::AttrAttr(RelAttr{"R0", "K"},
                                             CompOp::kEqual,
                                             RelAttr{"T0", "K"}));
  ASSERT_TRUE(selective_.AddJoinConstraint(jc).ok());
  ASSERT_TRUE(full_.AddJoinConstraint(jc).ok());
  for (MetaKnowledgeBase* mkb : {&selective_, &full_}) {
    const auto found =
        mkb->FindJoinConstraints(RelationId{"T", "T0"}, RelationId{"S0", "R0"});
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0]->left, (RelationId{"S0", "R0"}));
  }
  // A mutation at one endpoint invalidates the pair in both modes.
  ASSERT_TRUE(selective_.RenameAttribute(RelationId{"T", "T0"}, "V", "W").ok());
  ASSERT_TRUE(full_.RenameAttribute(RelationId{"T", "T0"}, "V", "W").ok());
  for (MetaKnowledgeBase* mkb : {&selective_, &full_}) {
    EXPECT_EQ(mkb->FindJoinConstraints(RelationId{"S0", "R0"},
                                       RelationId{"T", "T0"})
                  .size(),
              1u);
  }
}

// --- Closure property tests -------------------------------------------------

// Adjacency rebuilt straight from the constraint store, with freshly
// rendered constraint texts (so the MKB's stored renderings are checked
// too).
std::vector<PcEdge> OracleAdjacency(const MetaKnowledgeBase& mkb,
                                    const RelationId& source) {
  std::vector<PcEdge> out;
  for (const PcConstraint& pc : mkb.pc_constraints()) {
    const bool at_left = pc.left.relation == source;
    if (at_left == (pc.right.relation == source)) continue;
    const PcSide& src = at_left ? pc.left : pc.right;
    const PcSide& dst = at_left ? pc.right : pc.left;
    PcEdge e;
    e.constraint_text = pc.ToString();
    e.source = src.relation;
    e.target = dst.relation;
    e.type = at_left ? pc.type : FlipPcRelationType(pc.type);
    for (size_t i = 0; i < src.attributes.size(); ++i) {
      e.attribute_map[src.attributes[i]] = dst.attributes[i];
    }
    e.source_selectivity = src.selectivity;
    e.target_selectivity = dst.selectivity;
    e.source_selection = src.selection;
    e.target_selection = dst.selection;
    out.push_back(std::move(e));
  }
  return out;
}

std::optional<PcRelationType> OracleCompose(PcRelationType a,
                                            PcRelationType b) {
  if (a == PcRelationType::kIncomparable ||
      b == PcRelationType::kIncomparable) {
    return PcRelationType::kIncomparable;
  }
  if (a == PcRelationType::kEquivalent) return b;
  if (b == PcRelationType::kEquivalent) return a;
  if (a == b) return a;
  return std::nullopt;
}

// The path-by-path closure: breadth-first, every path expanded, the first
// derivation per (target, type, attribute map) kept.
std::vector<PcEdge> PathByPathClosure(const MetaKnowledgeBase& mkb,
                                      const RelationId& source, int max_hops) {
  std::vector<PcEdge> result;
  std::set<std::string> seen;
  auto signature = [](const PcEdge& e) {
    std::string key = e.target.ToString() + "|" +
                      std::string(PcRelationTypeToString(e.type));
    for (const auto& [from, to] : e.attribute_map) key += "|" + from + ":" + to;
    return key;
  };
  std::vector<PcEdge> frontier = OracleAdjacency(mkb, source);
  for (int hop = 1; hop <= max_hops && !frontier.empty(); ++hop) {
    std::vector<PcEdge> next;
    for (const PcEdge& edge : frontier) {
      if (seen.insert(signature(edge)).second) result.push_back(edge);
      if (hop == max_hops || !edge.target_selection.IsTrue()) continue;
      for (const PcEdge& ext : OracleAdjacency(mkb, edge.target)) {
        if (ext.target == source || ext.target == edge.target) continue;
        if (!ext.source_selection.IsTrue()) continue;
        const auto type = OracleCompose(edge.type, ext.type);
        if (!type.has_value()) continue;
        PcEdge c;
        c.constraint_text = edge.constraint_text + " o " + ext.constraint_text;
        c.source = source;
        c.target = ext.target;
        c.type = *type;
        for (const auto& [from, mid] : edge.attribute_map) {
          const auto it = ext.attribute_map.find(mid);
          if (it != ext.attribute_map.end()) c.attribute_map[from] = it->second;
        }
        if (c.attribute_map.empty()) continue;
        c.source_selectivity = edge.source_selectivity;
        c.target_selectivity = ext.target_selectivity;
        c.source_selection = edge.source_selection;
        c.target_selection = ext.target_selection;
        c.hops = edge.hops + ext.hops;
        next.push_back(std::move(c));
      }
    }
    frontier = std::move(next);
  }
  return result;
}

void ExpectSameEdges(const std::vector<PcEdge>& actual,
                     const std::vector<PcEdge>& expected,
                     const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (size_t i = 0; i < actual.size(); ++i) {
    const PcEdge& a = actual[i];
    const PcEdge& e = expected[i];
    const std::string at = where + " edge " + std::to_string(i);
    EXPECT_EQ(a.constraint_text, e.constraint_text) << at;
    EXPECT_EQ(a.source, e.source) << at;
    EXPECT_EQ(a.target, e.target) << at;
    EXPECT_EQ(a.type, e.type) << at;
    EXPECT_EQ(a.attribute_map, e.attribute_map) << at;
    EXPECT_EQ(a.source_selectivity, e.source_selectivity) << at;
    EXPECT_EQ(a.target_selectivity, e.target_selectivity) << at;
    EXPECT_EQ(a.source_selection, e.source_selection) << at;
    EXPECT_EQ(a.target_selection, e.target_selection) << at;
    EXPECT_EQ(a.hops, e.hops) << at;
  }
}

const std::vector<std::string> kAttrs = {"K", "A", "B", "C"};

// A random PC graph: 6-9 relations over three sites, cycles, one or two
// mirror-like hubs that many relations fan into, all four relation types,
// partial projections in random order, selections on either side, and
// parallel constraints that differ only in a target selection (so a
// derivation class is first reached through a selected, unexpandable
// fragment and only later through an expandable one).
void BuildRandomGraph(uint32_t seed, MetaKnowledgeBase* mkb) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(std::uniform_int_distribution<int>(0, n - 1)(rng));
  };
  const int n = 6 + pick(4);
  std::vector<RelationId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(RelationId{"IS" + std::to_string(i % 3), "R" + std::to_string(i)});
    ASSERT_TRUE(mkb->RegisterRelationWithStats(ids.back(), IntSchema(kAttrs),
                                               100 + i)
                    .ok());
  }
  const PcRelationType types[] = {
      PcRelationType::kSubset, PcRelationType::kEquivalent,
      PcRelationType::kSuperset, PcRelationType::kIncomparable};
  auto projection = [&](int k) {
    std::vector<std::string> attrs = kAttrs;
    std::shuffle(attrs.begin(), attrs.end(), rng);
    attrs.resize(k);
    return attrs;
  };
  auto maybe_select = [&](PcSide* side) {
    if (pick(4) != 0) return;
    side->selection.Add(PrimitiveClause::AttrConst(
        RelAttr{side->relation.relation, kAttrs[pick(4)]}, CompOp::kGreater,
        Value(static_cast<int64_t>(pick(50)))));
    side->selectivity = 0.5;
  };
  auto add = [&](PcConstraint pc) { (void)mkb->AddPcConstraint(std::move(pc)); };
  auto random_pc = [&](int left, int right) {
    PcConstraint pc;
    pc.type = types[pick(4)];
    const int k = 1 + pick(3);
    pc.left.relation = ids[left];
    pc.left.attributes = projection(k);
    pc.right.relation = ids[right];
    pc.right.attributes = projection(k);
    maybe_select(&pc.left);
    maybe_select(&pc.right);
    return pc;
  };
  const int hubs = 1 + pick(2);
  for (int h = 0; h < hubs; ++h) {
    for (int i = hubs; i < n; ++i) {
      if (pick(3) == 0) continue;
      PcConstraint pc = random_pc(i, h);
      pc.right.selection = Conjunction();
      pc.right.selectivity = 1.0;
      add(std::move(pc));
    }
  }
  const int extra = n + pick(n);
  for (int c = 0; c < extra; ++c) {
    const int left = pick(n);
    int right = pick(n);
    if (right == left) right = (right + 1) % n;
    PcConstraint pc = random_pc(left, right);
    if (pick(5) == 0) {
      PcConstraint selected = pc;
      selected.right.selection = Conjunction();
      selected.right.selection.Add(PrimitiveClause::AttrConst(
          RelAttr{selected.right.relation.relation, "K"}, CompOp::kLess,
          Value(int64_t{7})));
      selected.right.selectivity = 0.25;
      add(std::move(selected));
    }
    add(std::move(pc));
  }
}

void ExpectAllEntryPointsMatch(const MetaKnowledgeBase& mkb,
                               const std::string& where) {
  for (const RelationId& id : mkb.Relations()) {
    for (int hops = 1; hops <= 4; ++hops) {
      const std::string at =
          where + " " + id.ToString() + "/" + std::to_string(hops);
      const std::vector<PcEdge> expected = PathByPathClosure(mkb, id, hops);
      ExpectSameEdges(mkb.PcEdgesFromTransitive(id, hops), expected,
                      at + " memoized");
      const auto governed =
          mkb.PcEdgesFromTransitiveGoverned(id, hops, ExecContext::Unlimited());
      ASSERT_TRUE(governed.ok()) << at;
      ExpectSameEdges(**governed, expected, at + " governed");
      ExpectSameEdges(mkb.PcEdgesFromTransitiveUncached(id, hops), expected,
                      at + " uncached");
    }
  }
}

TEST(ClosureProperty, MatchesPathByPathEnumeration) {
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    MetaKnowledgeBase mkb;
    BuildRandomGraph(seed, &mkb);
    const std::string where = "seed " + std::to_string(seed);
    ExpectAllEntryPointsMatch(mkb, where);
    // Every store mutator rewrites or re-renders constraints: the stored
    // texts and the memos must follow each of them.
    ASSERT_TRUE(mkb.RenameRelation(RelationId{"IS0", "R0"}, "R0x").ok());
    ASSERT_TRUE(mkb.RenameAttribute(RelationId{"IS1", "R1"}, "A", "Ax").ok());
    ExpectAllEntryPointsMatch(mkb, where + " after renames");
    ASSERT_TRUE(mkb.RemoveAttribute(RelationId{"IS2", "R2"}, "B").ok());
    ASSERT_TRUE(mkb.UnregisterRelation(RelationId{"IS0", "R3"}).ok());
    ExpectAllEntryPointsMatch(mkb, where + " after deletions");
    if (HasFailure()) return;
  }
}

TEST(ClosureProperty, ColdMemoConcurrentQueriesMatchSerial) {
  constexpr uint32_t kSeed = 11;
  MetaKnowledgeBase serial_mkb;
  BuildRandomGraph(kSeed, &serial_mkb);
  const std::vector<RelationId> ids = serial_mkb.Relations();
  std::vector<std::vector<PcEdge>> serial;
  for (const RelationId& id : ids) {
    for (int hops = 1; hops <= 4; ++hops) {
      serial.push_back(serial_mkb.PcEdgesFromTransitive(id, hops));
    }
  }

  MetaKnowledgeBase mkb;
  BuildRandomGraph(kSeed, &mkb);
  constexpr int kThreads = 4;
  // Each worker walks every (source, hops) query from its own offset, so
  // the cold misses race on overlapping sources.
  std::vector<std::vector<std::vector<PcEdge>>> got(
      kThreads, std::vector<std::vector<PcEdge>>(serial.size()));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t k = 0; k < serial.size(); ++k) {
        const size_t q = (k + t * serial.size() / kThreads) % serial.size();
        const RelationId& id = ids[q / 4];
        const int hops = static_cast<int>(q % 4) + 1;
        if (t % 2 == 0) {
          got[t][q] = mkb.PcEdgesFromTransitive(id, hops);
        } else {
          got[t][q] = *mkb.PcEdgesFromTransitiveGoverned(
                           id, hops, ExecContext::Unlimited())
                           .value();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t q = 0; q < serial.size(); ++q) {
      ExpectSameEdges(got[t][q], serial[q],
                      "thread " + std::to_string(t) + " query " +
                          std::to_string(q));
    }
  }
}

}  // namespace
}  // namespace eve
