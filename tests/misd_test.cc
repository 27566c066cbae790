// MKB tests: capability registration, JC/PC constraint management, edge
// normalization, transitive derivation, and MKB evolution under schema
// changes (constraint garbage collection, renames).

#include <gtest/gtest.h>

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

class MkbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS1", "R"},
                                               IntSchema({"A", "B"}), 100, 0.5)
                    .ok());
    ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS2", "S"},
                                               IntSchema({"A", "C"}), 200)
                    .ok());
  }
  MetaKnowledgeBase mkb_;
};

TEST_F(MkbTest, RegistrationAndLookup) {
  EXPECT_TRUE(mkb_.HasRelation(RelationId{"IS1", "R"}));
  EXPECT_FALSE(mkb_.HasRelation(RelationId{"IS1", "S"}));
  EXPECT_FALSE(
      mkb_.RegisterRelation(RelationId{"IS1", "R"}, IntSchema({"X"})).ok());
  const auto schema = mkb_.GetSchema(RelationId{"IS2", "S"});
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->Contains("C"));
  EXPECT_EQ(mkb_.Relations().size(), 2u);
  EXPECT_EQ(mkb_.ResolveName("S").value(), (RelationId{"IS2", "S"}));
  EXPECT_FALSE(mkb_.ResolveName("Z").ok());
}

TEST_F(MkbTest, ResolveNameDetectsAmbiguity) {
  ASSERT_TRUE(
      mkb_.RegisterRelation(RelationId{"IS3", "R"}, IntSchema({"A"})).ok());
  EXPECT_EQ(mkb_.ResolveName("R").status().code(),
            StatusCode::kFailedPrecondition);
}

// The bare-name index follows every mutator that changes the id set.
TEST_F(MkbTest, ResolveNameFollowsRenamesAndReRegistration) {
  // Renaming IS2.S onto a name IS1 already uses makes it ambiguous, and the
  // old name disappears.
  ASSERT_TRUE(mkb_.RenameRelation(RelationId{"IS2", "S"}, "R").ok());
  const auto ambiguous = mkb_.ResolveName("R");
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ambiguous.status().message(),
            "relation name R is ambiguous across sites");
  const auto gone = mkb_.ResolveName("S");
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(gone.status().message(), "relation S not in MKB");

  // Renaming one of them away resolves both names again.
  ASSERT_TRUE(mkb_.RenameRelation(RelationId{"IS1", "R"}, "T").ok());
  EXPECT_EQ(mkb_.ResolveName("R").value(), (RelationId{"IS2", "R"}));
  EXPECT_EQ(mkb_.ResolveName("T").value(), (RelationId{"IS1", "T"}));

  // Unregister, then re-register the same name at another site: unique.
  ASSERT_TRUE(mkb_.UnregisterRelation(RelationId{"IS2", "R"}).ok());
  EXPECT_EQ(mkb_.ResolveName("R").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(
      mkb_.RegisterRelation(RelationId{"IS3", "R"}, IntSchema({"A"})).ok());
  EXPECT_EQ(mkb_.ResolveName("R").value(), (RelationId{"IS3", "R"}));
  // Re-registering at the first site makes it ambiguous again.
  ASSERT_TRUE(
      mkb_.RegisterRelation(RelationId{"IS2", "R"}, IntSchema({"A"})).ok());
  EXPECT_EQ(mkb_.ResolveName("R").status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(mkb_.UnregisterRelation(RelationId{"IS3", "R"}).ok());
  EXPECT_EQ(mkb_.ResolveName("R").value(), (RelationId{"IS2", "R"}));
}

TEST_F(MkbTest, StatsStore) {
  const auto stats = mkb_.stats().Get(RelationId{"IS1", "R"});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cardinality, 100);
  EXPECT_EQ(stats->tuple_bytes, 50);
  EXPECT_DOUBLE_EQ(stats->local_selectivity, 0.5);
  EXPECT_FALSE(mkb_.stats().Get(RelationId{"ISx", "Q"}).ok());
}

TEST_F(MkbTest, JoinConstraintValidation) {
  JoinConstraint jc;
  jc.left = RelationId{"IS1", "R"};
  jc.right = RelationId{"IS2", "S"};
  EXPECT_FALSE(mkb_.AddJoinConstraint(jc).ok());  // Empty condition.
  jc.condition.Add(PrimitiveClause::AttrAttr(RelAttr{"R", "A"}, CompOp::kEqual,
                                             RelAttr{"S", "A"}));
  EXPECT_TRUE(mkb_.AddJoinConstraint(jc).ok());
  EXPECT_EQ(mkb_.FindJoinConstraints(RelationId{"IS2", "S"},
                                     RelationId{"IS1", "R"})
                .size(),
            1u);
  // Unregistered endpoint rejected.
  JoinConstraint bad = jc;
  bad.right = RelationId{"IS9", "Q"};
  EXPECT_FALSE(mkb_.AddJoinConstraint(bad).ok());
}

TEST_F(MkbTest, PcConstraintValidationAndEdges) {
  // Arity mismatch rejected.
  PcConstraint bad;
  bad.left = PcSide{RelationId{"IS1", "R"}, {"A", "B"}, {}, 1.0};
  bad.right = PcSide{RelationId{"IS2", "S"}, {"A"}, {}, 1.0};
  EXPECT_FALSE(mkb_.AddPcConstraint(bad).ok());
  // Unknown projected attribute rejected.
  PcConstraint unknown = MakeProjectionPc(RelationId{"IS1", "R"},
                                          RelationId{"IS2", "S"}, {"Z"},
                                          PcRelationType::kSubset);
  EXPECT_FALSE(mkb_.AddPcConstraint(unknown).ok());

  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  const auto from_r = mkb_.PcEdgesFrom(RelationId{"IS1", "R"});
  ASSERT_EQ(from_r.size(), 1u);
  EXPECT_EQ(from_r[0].target, (RelationId{"IS2", "S"}));
  EXPECT_EQ(from_r[0].type, PcRelationType::kSubset);

  // The flipped orientation is derived automatically.
  const auto from_s = mkb_.PcEdgesFrom(RelationId{"IS2", "S"});
  ASSERT_EQ(from_s.size(), 1u);
  EXPECT_EQ(from_s[0].target, (RelationId{"IS1", "R"}));
  EXPECT_EQ(from_s[0].type, PcRelationType::kSuperset);
}

TEST_F(MkbTest, TransitiveEdgesComposeTypesAndMaps) {
  ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS3", "T"},
                                             IntSchema({"X"}), 400)
                  .ok());
  // R.A subset S.A ; S.A equivalent T.X  =>  R.A subset T.X.
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  PcConstraint st;
  st.left = PcSide{RelationId{"IS2", "S"}, {"A"}, {}, 1.0};
  st.right = PcSide{RelationId{"IS3", "T"}, {"X"}, {}, 1.0};
  st.type = PcRelationType::kEquivalent;
  ASSERT_TRUE(mkb_.AddPcConstraint(st).ok());

  const auto edges = mkb_.PcEdgesFromTransitive(RelationId{"IS1", "R"}, 3);
  bool found = false;
  for (const PcEdge& e : edges) {
    if (e.target == (RelationId{"IS3", "T"})) {
      found = true;
      EXPECT_EQ(e.type, PcRelationType::kSubset);
      ASSERT_TRUE(e.attribute_map.count("A"));
      EXPECT_EQ(e.attribute_map.at("A"), "X");
    }
  }
  EXPECT_TRUE(found);
  // Depth 1 excludes the derived edge.
  const auto direct = mkb_.PcEdgesFromTransitive(RelationId{"IS1", "R"}, 1);
  for (const PcEdge& e : direct) {
    EXPECT_NE(e.target, (RelationId{"IS3", "T"}));
  }
}

TEST_F(MkbTest, TransitiveCompositionRejectsMixedDirections) {
  ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS3", "T"},
                                             IntSchema({"A"}), 400)
                  .ok());
  // R subset S, S superset T: no containment conclusion about R vs T.
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS2", "S"},
                                                    RelationId{"IS3", "T"},
                                                    {"A"},
                                                    PcRelationType::kSuperset))
                  .ok());
  for (const PcEdge& e : mkb_.PcEdgesFromTransitive(RelationId{"IS1", "R"}, 4)) {
    EXPECT_NE(e.target, (RelationId{"IS3", "T"}));
  }
}

TEST_F(MkbTest, BridgingInstallsConstraintsAroundDeletedCapability) {
  // R subset S and R subset T; deleting R.A (or R) installs an
  // incomparable bridge between S.A and T.A, so the replacement knowledge
  // survives (the Experiment-1 life-span behavior).
  ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS3", "T"},
                                             IntSchema({"A", "D"}), 400)
                  .ok());
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS3", "T"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  const auto dropped = mkb_.RemoveAttribute(RelationId{"IS1", "R"}, "A");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 2);

  bool bridged = false;
  for (const PcEdge& e : mkb_.PcEdgesFrom(RelationId{"IS2", "S"})) {
    if (e.target == (RelationId{"IS3", "T"})) {
      bridged = true;
      EXPECT_EQ(e.type, PcRelationType::kIncomparable);
      ASSERT_TRUE(e.attribute_map.count("A"));
      EXPECT_EQ(e.attribute_map.at("A"), "A");
    }
  }
  EXPECT_TRUE(bridged);
}

TEST_F(MkbTest, BridgingPreservesSoundDirections) {
  // S superset R (i.e. R registered as subset of S) and R equivalent T:
  // bridging through R yields S superset T -- a sound containment.
  ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS3", "T"},
                                             IntSchema({"A"}), 400)
                  .ok());
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS3", "T"},
                                                    {"A"},
                                                    PcRelationType::kEquivalent))
                  .ok());
  ASSERT_TRUE(mkb_.UnregisterRelation(RelationId{"IS1", "R"}).ok());
  bool found = false;
  for (const PcEdge& e : mkb_.PcEdgesFrom(RelationId{"IS2", "S"})) {
    if (e.target == (RelationId{"IS3", "T"})) {
      found = true;
      EXPECT_EQ(e.type, PcRelationType::kSuperset);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MkbTest, UnregisterDropsTouchingConstraints) {
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  JoinConstraint jc;
  jc.left = RelationId{"IS1", "R"};
  jc.right = RelationId{"IS2", "S"};
  jc.condition.Add(PrimitiveClause::AttrAttr(RelAttr{"R", "A"}, CompOp::kEqual,
                                             RelAttr{"S", "A"}));
  ASSERT_TRUE(mkb_.AddJoinConstraint(jc).ok());

  const auto dropped = mkb_.UnregisterRelation(RelationId{"IS2", "S"});
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 2);
  EXPECT_TRUE(mkb_.pc_constraints().empty());
  EXPECT_TRUE(mkb_.join_constraints().empty());
  EXPECT_FALSE(mkb_.stats().Has(RelationId{"IS2", "S"}));
}

TEST_F(MkbTest, RemoveAttributeDropsReferencingConstraints) {
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  // Removing S.C (not referenced by the PC) keeps the constraint.
  auto dropped = mkb_.RemoveAttribute(RelationId{"IS2", "S"}, "C");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 0);
  EXPECT_EQ(mkb_.pc_constraints().size(), 1u);
  // Removing R.A (projected by the PC) drops it.
  dropped = mkb_.RemoveAttribute(RelationId{"IS1", "R"}, "A");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 1);
  EXPECT_TRUE(mkb_.pc_constraints().empty());
  // The last attribute cannot be removed.
  EXPECT_FALSE(mkb_.RemoveAttribute(RelationId{"IS1", "R"}, "B").ok());
}

TEST_F(MkbTest, RenameRelationRewritesConstraints) {
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  ASSERT_TRUE(mkb_.RenameRelation(RelationId{"IS1", "R"}, "R2").ok());
  EXPECT_FALSE(mkb_.HasRelation(RelationId{"IS1", "R"}));
  EXPECT_TRUE(mkb_.HasRelation(RelationId{"IS1", "R2"}));
  EXPECT_TRUE(mkb_.stats().Has(RelationId{"IS1", "R2"}));
  EXPECT_EQ(mkb_.pc_constraints()[0].left.relation, (RelationId{"IS1", "R2"}));
  // Edges follow the new identity.
  EXPECT_EQ(mkb_.PcEdgesFrom(RelationId{"IS1", "R2"}).size(), 1u);
}

TEST_F(MkbTest, RenameAttributeRewritesConstraints) {
  ASSERT_TRUE(mkb_.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                                    RelationId{"IS2", "S"},
                                                    {"A"},
                                                    PcRelationType::kSubset))
                  .ok());
  ASSERT_TRUE(mkb_.RenameAttribute(RelationId{"IS1", "R"}, "A", "A2").ok());
  EXPECT_EQ(mkb_.pc_constraints()[0].left.attributes[0], "A2");
  EXPECT_EQ(mkb_.pc_constraints()[0].right.attributes[0], "A");  // S side.
  const auto schema = mkb_.GetSchema(RelationId{"IS1", "R"});
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->Contains("A2"));
  EXPECT_FALSE(schema->Contains("A"));
}

TEST_F(MkbTest, TypeConstraintsFromSchemas) {
  const auto tcs = mkb_.TypeConstraints();
  EXPECT_EQ(tcs.size(), 4u);  // R(A,B) + S(A,C).
}

TEST_F(MkbTest, PcSelectivityValidation) {
  PcConstraint pc = MakeProjectionPc(RelationId{"IS1", "R"},
                                     RelationId{"IS2", "S"}, {"A"},
                                     PcRelationType::kSubset);
  pc.left.selectivity = 0.0;  // Out of range.
  EXPECT_FALSE(mkb_.AddPcConstraint(pc).ok());
  pc.left.selectivity = 0.5;  // Selectivity without a selection condition.
  EXPECT_FALSE(mkb_.AddPcConstraint(pc).ok());
}

}  // namespace
}  // namespace eve
