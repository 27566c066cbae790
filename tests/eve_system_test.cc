// End-to-end EVE system tests: the travel-agency scenario of the paper's
// introduction, full capability-change lifecycles (synchronize -> rank ->
// adopt -> rematerialize), view survival across successive changes
// (Experiment 1's life-span tree), and data-update maintenance through the
// facade.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fault_injection.h"
#include "eve/eve_system.h"
#include "maintenance/maintainer.h"

namespace eve {
namespace {

Relation MakeRelation(const std::string& name,
                      const std::vector<std::string>& attrs,
                      const std::vector<std::vector<int>>& rows) {
  std::vector<Attribute> schema;
  for (const std::string& a : attrs) {
    schema.push_back(Attribute::Make(a, DataType::kInt64, 50));
  }
  Relation rel(name, Schema(std::move(schema)));
  for (const auto& row : rows) {
    Tuple t;
    for (int v : row) t.Append(Value(static_cast<int64_t>(v)));
    rel.InsertUnchecked(std::move(t));
  }
  return rel;
}

// Customers (id, phone) at one agency; flight reservations (id, dest) at
// another; a backup customer list at a third.  Numeric stand-ins for the
// paper's strings keep the fixtures compact.
class TravelAgencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(eve_.RegisterRelation(
                        "Agency",
                        MakeRelation("Customer", {"Name", "Phone"},
                                     {{1, 11}, {2, 22}, {3, 33}, {4, 44}}))
                    .ok());
    ASSERT_TRUE(eve_.RegisterRelation(
                        "Airline",
                        MakeRelation("FlightRes", {"PName", "Dest"},
                                     {{1, 7}, {2, 9}, {3, 7}, {5, 7}}))
                    .ok());
    ASSERT_TRUE(eve_.RegisterRelation(
                        "Backup",
                        MakeRelation("CustBackup", {"Name", "Phone"},
                                     {{1, 11}, {2, 22}, {3, 33}, {4, 44},
                                      {6, 66}}))
                    .ok());
    // Customer is contained in the backup list.
    ASSERT_TRUE(eve_.AddPcConstraint(MakeProjectionPc(
                        RelationId{"Agency", "Customer"},
                        RelationId{"Backup", "CustBackup"}, {"Name", "Phone"},
                        PcRelationType::kSubset))
                    .ok());
    ASSERT_TRUE(eve_
                    .DefineView(
                        "CREATE VIEW AsiaCustomer AS "
                        "SELECT C.Name (AR = true), C.Phone (AD=true, AR=true) "
                        "FROM Customer C (RR = true), FlightRes F "
                        "WHERE (C.Name = F.PName) (CR = true) "
                        "AND (F.Dest = 7) (CD = true)")
                    .ok());
  }
  EveSystem eve_;
};

TEST_F(TravelAgencyTest, InitialMaterialization) {
  const auto extent = eve_.GetViewExtent("AsiaCustomer");
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();
  // Customers 1 and 3 have dest-7 reservations.
  EXPECT_EQ(extent->cardinality(), 2);
  EXPECT_TRUE(extent->ContainsTuple(Tuple{Value(1), Value(11)}));
  EXPECT_TRUE(extent->ContainsTuple(Tuple{Value(3), Value(33)}));
}

TEST_F(TravelAgencyTest, CustomerDeletionSurvivesViaBackup) {
  const auto report = eve_.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{"Agency", "Customer"}}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->views.size(), 1u);
  EXPECT_TRUE(report->views[0].affected);
  EXPECT_EQ(report->views[0].resulting_state, ViewState::kAlive);
  EXPECT_FALSE(report->views[0].ranking.empty());

  // The adopted definition references the backup relation.
  const auto def = eve_.GetViewDefinition("AsiaCustomer");
  ASSERT_TRUE(def.ok());
  EXPECT_NE(def->FindFrom("CustBackup"), nullptr);

  // Rematerialized extent: the backup has the same joining customers, so
  // the view still answers (it is a superset-safe replacement).
  const auto extent = eve_.GetViewExtent("AsiaCustomer");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->cardinality(), 2);

  // The view's history records the evolution step.
  const auto entry = eve_.GetViewEntry("AsiaCustomer");
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ((*entry)->history.size(), 1u);
  EXPECT_EQ((*entry)->history[0].trigger, "delete-relation Agency.Customer");
}

TEST_F(TravelAgencyTest, DispensableConditionDroppedWhenDestVanishes) {
  const auto report = eve_.NotifySchemaChange(SchemaChange(
      DeleteAttribute{RelationId{"Airline", "FlightRes"}, "Dest"}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->views[0].resulting_state, ViewState::kAlive);
  const auto def = eve_.GetViewDefinition("AsiaCustomer");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->where.size(), 1u);  // Only the join clause remains.
  // The extent widened to every customer with any reservation.
  const auto extent = eve_.GetViewExtent("AsiaCustomer");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->cardinality(), 3);  // Customers 1, 2, 3.
}

TEST_F(TravelAgencyTest, IndispensableLossKillsView) {
  // Deleting PName (join attribute, CR=true but no replacement exists).
  const auto report = eve_.NotifySchemaChange(SchemaChange(
      DeleteAttribute{RelationId{"Airline", "FlightRes"}, "PName"}));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->views[0].resulting_state, ViewState::kDead);
  EXPECT_EQ(eve_.GetViewState("AsiaCustomer").value(), ViewState::kDead);
  // Dead views are not synchronized again.
  const auto second = eve_.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{"Agency", "Customer"}}));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->views.empty());
}

TEST_F(TravelAgencyTest, DataUpdatesMaintainMaterializedViews) {
  // New reservation for customer 4 to destination 7.
  const auto counters = eve_.NotifyDataUpdate(
      DataUpdate{UpdateKind::kInsert, RelationId{"Airline", "FlightRes"},
                 Tuple{Value(4), Value(7)}});
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters->tuples_added, 1);
  const auto extent = eve_.GetViewExtent("AsiaCustomer");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->cardinality(), 3);
  EXPECT_TRUE(extent->ContainsTuple(Tuple{Value(4), Value(44)}));

  // Cancellation removes it again.
  const auto removal = eve_.NotifyDataUpdate(
      DataUpdate{UpdateKind::kDelete, RelationId{"Airline", "FlightRes"},
                 Tuple{Value(4), Value(7)}});
  ASSERT_TRUE(removal.ok());
  EXPECT_EQ(removal->tuples_removed, 1);
  EXPECT_EQ(eve_.GetViewExtent("AsiaCustomer")->cardinality(), 2);
}

TEST_F(TravelAgencyTest, RenameIsTransparent) {
  const auto report = eve_.NotifySchemaChange(SchemaChange(
      RenameAttribute{RelationId{"Agency", "Customer"}, "Phone", "Tel"}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->views[0].resulting_state, ViewState::kAlive);
  const auto extent = eve_.GetViewExtent("AsiaCustomer");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->cardinality(), 2);
  // Interface unchanged for the view user.
  EXPECT_TRUE(extent->schema().Contains("Phone"));
}

// Experiment 1's life span: with w1 > w2 EVE keeps the replaceable
// attribute A (choosing S or T), so a later deletion of S still leaves T;
// the view survives two capability changes.
class SurvivalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(eve_.RegisterRelation("IS1", MakeRelation("R", {"A", "B"},
                                                          {{1, 2}, {3, 4}}))
                    .ok());
    ASSERT_TRUE(eve_.RegisterRelation("IS2", MakeRelation("S", {"A", "C"},
                                                          {{1, 5}, {3, 6}, {7, 8}}))
                    .ok());
    ASSERT_TRUE(eve_.RegisterRelation("IS3", MakeRelation("T", {"A", "D"},
                                                          {{1, 9}, {3, 0}, {7, 1}}))
                    .ok());
    ASSERT_TRUE(eve_.AddPcConstraint(MakeProjectionPc(
                        RelationId{"IS1", "R"}, RelationId{"IS2", "S"}, {"A"},
                        PcRelationType::kSubset))
                    .ok());
    ASSERT_TRUE(eve_.AddPcConstraint(MakeProjectionPc(
                        RelationId{"IS1", "R"}, RelationId{"IS3", "T"}, {"A"},
                        PcRelationType::kSubset))
                    .ok());
    ASSERT_TRUE(eve_
                    .DefineView("CREATE VIEW V0 AS "
                                "SELECT R.A (AD=true, AR=true), R.B (AD=true) "
                                "FROM R (RR=true)")
                    .ok());
  }
  EveSystem eve_;
};

TEST_F(SurvivalTest, ReplaceableChoiceSurvivesTwoChanges) {
  // Default weights w1 > w2 prefer keeping the replaceable attribute A.
  const auto first = eve_.NotifySchemaChange(
      SchemaChange(DeleteAttribute{RelationId{"IS1", "R"}, "A"}));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->views[0].resulting_state, ViewState::kAlive);
  const auto def = eve_.GetViewDefinition("V0");
  ASSERT_TRUE(def.ok());
  // The adopted rewriting keeps A from S or T (not the B-only variant).
  ASSERT_EQ(def->select_items.size(), 1u);
  EXPECT_EQ(def->select_items[0].name(), "A");
  const std::string first_host = def->from_items[0].relation;
  EXPECT_TRUE(first_host == "S" || first_host == "T");

  // Delete whichever relation was adopted: the view survives via the other.
  const std::string site = first_host == "S" ? "IS2" : "IS3";
  const auto second = eve_.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{site, first_host}}));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->views[0].resulting_state, ViewState::kAlive);
  const auto def2 = eve_.GetViewDefinition("V0");
  ASSERT_TRUE(def2.ok());
  const std::string second_host = def2->from_items[0].relation;
  EXPECT_NE(second_host, first_host);
  EXPECT_TRUE(second_host == "S" || second_host == "T");
  EXPECT_EQ(eve_.GetViewState("V0").value(), ViewState::kAlive);
  EXPECT_EQ(eve_.GetViewEntry("V0").value()->history.size(), 2u);
}

TEST_F(SurvivalTest, NonReplaceablePreferenceDiesOnSecondChange) {
  // Invert the weights (w2 > w1): EVE prefers keeping the non-replaceable
  // B, i.e. adopts V3; any further change to R kills the view (Fig. 12).
  eve_.options().qc.w1 = 0.3;
  eve_.options().qc.w2 = 0.7;
  const auto first = eve_.NotifySchemaChange(
      SchemaChange(DeleteAttribute{RelationId{"IS1", "R"}, "A"}));
  ASSERT_TRUE(first.ok());
  const auto def = eve_.GetViewDefinition("V0");
  ASSERT_TRUE(def.ok());
  ASSERT_EQ(def->select_items.size(), 1u);
  EXPECT_EQ(def->select_items[0].name(), "B");

  const auto second = eve_.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{"IS1", "R"}}));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(eve_.GetViewState("V0").value(), ViewState::kDead);
}

TEST(EveSystemBasics, DuplicateAndInvalidDefinitions) {
  EveSystem eve;
  ASSERT_TRUE(
      eve.RegisterRelation("IS1", MakeRelation("R", {"A"}, {{1}})).ok());
  ASSERT_TRUE(eve.DefineView("CREATE VIEW V AS SELECT R.A FROM R").ok());
  EXPECT_FALSE(eve.DefineView("CREATE VIEW V AS SELECT R.A FROM R").ok());
  // A view over a missing relation fails and leaves no residue.
  EXPECT_FALSE(eve.DefineView("CREATE VIEW W AS SELECT Q.X FROM Q").ok());
  EXPECT_FALSE(eve.vkb().Has("W"));
}

TEST(EveSystemBasics, UnaffectedViewsUntouchedByChanges) {
  EveSystem eve;
  ASSERT_TRUE(
      eve.RegisterRelation("IS1", MakeRelation("R", {"A"}, {{1}})).ok());
  ASSERT_TRUE(
      eve.RegisterRelation("IS2", MakeRelation("S", {"B"}, {{2}})).ok());
  ASSERT_TRUE(eve.DefineView("CREATE VIEW V AS SELECT R.A FROM R").ok());
  const auto report = eve.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{"IS2", "S"}}));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->views.empty());
  EXPECT_EQ(eve.GetViewState("V").value(), ViewState::kAlive);
}

// Renaming a relation that a view references: the rename rewriting names
// the relation by its new name while QC prices it against the pre-change
// MKB, so its FROM items must resolve to the pre-change id.  The view stays
// alive on a definition naming R2, with its extent unchanged.
void ExpectRenameKeepsView(const std::string& view_text) {
  EveSystem eve;
  ASSERT_TRUE(eve.RegisterRelation(
                     "IS1", MakeRelation("R", {"K", "A"},
                                         {{1, 10}, {2, 20}, {3, 30}}))
                  .ok());
  ASSERT_TRUE(eve.RegisterRelation(
                     "IS2", MakeRelation("S", {"K", "B"}, {{1, 100}, {3, 300}}))
                  .ok());
  ASSERT_TRUE(eve.DefineView(view_text).ok()) << view_text;
  const Relation before = eve.GetViewExtent("V").value();

  const auto report = eve.NotifySchemaChange(
      SchemaChange(RenameRelation{RelationId{"IS1", "R"}, "R2"}));
  ASSERT_TRUE(report.ok()) << view_text << ": " << report.status().ToString();
  ASSERT_EQ(report->views.size(), 1u) << view_text;
  EXPECT_EQ(report->views[0].resulting_state, ViewState::kAlive) << view_text;

  const ViewDefinition def = eve.GetViewDefinition("V").value();
  int renamed_items = 0;
  for (const FromItem& f : def.from_items) {
    EXPECT_NE(f.relation, "R") << view_text;
    renamed_items += f.relation == "R2" ? 1 : 0;
  }
  EXPECT_EQ(renamed_items, 1) << view_text;
  const auto after = eve.GetViewExtent("V");
  ASSERT_TRUE(after.ok()) << view_text;
  EXPECT_TRUE(SetEquals(before, *after)) << view_text;
}

TEST(EveSystemRename, ReferencedRelationQualifiedNames) {
  ExpectRenameKeepsView("CREATE VIEW V AS SELECT R.K, R.A FROM IS1.R");
  ExpectRenameKeepsView(
      "CREATE VIEW V AS SELECT R.K, R.A, S.B FROM IS1.R, IS2.S "
      "WHERE R.K = S.K");
}

TEST(EveSystemRename, ReferencedRelationBareNames) {
  ExpectRenameKeepsView("CREATE VIEW V AS SELECT R.K, R.A FROM R");
  ExpectRenameKeepsView(
      "CREATE VIEW V AS SELECT R.K, R.A, S.B FROM R, S WHERE R.K = S.K");
}

TEST(EveSystemRename, ReferencedRelationUnderAlias) {
  ExpectRenameKeepsView("CREATE VIEW V AS SELECT X.K, X.A FROM IS1.R X");
  ExpectRenameKeepsView(
      "CREATE VIEW V AS SELECT X.K, X.A, S.B FROM R X, S WHERE X.K = S.K");
}

// Rename adoptions keep the materialized extent: a pure-rename rewriting
// computes the same bag under the same output names (≡), so step 5 of
// NotifySchemaChange swaps the definition and skips the recompute.  The
// kept extent must equal, as a bag, a fresh recompute of the new
// definition, and must keep maintaining correctly afterwards.

// The stored extent against a fresh recompute of the current definition:
// equal schema names and equal sorted multisets of rows.
void ExpectExtentMatchesRecompute(const EveSystem& eve,
                                  const std::string& view,
                                  const std::string& context) {
  const ViewEntry* entry = eve.GetViewEntry(view).value();
  ASSERT_TRUE(entry->materialized) << context;
  const auto fresh =
      ViewMaintainer(eve.space()).Recompute(entry->definition);
  ASSERT_TRUE(fresh.ok()) << context << ": " << fresh.status().ToString();
  std::vector<std::string> kept_names;
  std::vector<std::string> fresh_names;
  for (const Attribute& a : entry->extent.schema().attributes()) {
    kept_names.push_back(a.name);
  }
  for (const Attribute& a : fresh->schema().attributes()) {
    fresh_names.push_back(a.name);
  }
  EXPECT_EQ(kept_names, fresh_names) << context;
  std::vector<Tuple> kept_rows = entry->extent.CopyTuples();
  std::vector<Tuple> fresh_rows = fresh->CopyTuples();
  std::sort(kept_rows.begin(), kept_rows.end());
  std::sort(fresh_rows.begin(), fresh_rows.end());
  EXPECT_EQ(kept_rows, fresh_rows) << context;
}

// Disarms every fault site when a test ends, pass or fail.
struct FaultReset {
  ~FaultReset() { FaultInjection::Instance().Reset(); }
};

// R carries duplicate rows and S duplicate join partners, so the extents
// hold repeated derivations and bag equality is a real check.  T mirrors S
// (S ⊆ T), so a view whose S is replaceable survives S's deletion.
void RegisterCarryOverSpace(EveSystem* eve) {
  ASSERT_TRUE(eve->RegisterRelation(
                     "IS1", MakeRelation("R", {"K", "A"},
                                         {{1, 10}, {1, 10}, {2, 20}, {3, 30}}))
                  .ok());
  ASSERT_TRUE(eve->RegisterRelation(
                     "IS2", MakeRelation("S", {"K", "B"},
                                         {{1, 100}, {1, 100}, {3, 300}}))
                  .ok());
  ASSERT_TRUE(eve->RegisterRelation(
                     "IS3", MakeRelation("T", {"K", "B"},
                                         {{1, 100}, {3, 300}, {4, 400}}))
                  .ok());
  ASSERT_TRUE(eve->AddPcConstraint(MakeProjectionPc(
                       RelationId{"IS2", "S"}, RelationId{"IS3", "T"},
                       {"K", "B"}, PcRelationType::kSubset))
                  .ok());
}

// Adopts `change` with maintainer.recompute armed to fail every hit, so a
// recompute would fail the change; the view must stay alive on its kept
// extent (same object identity), then maintain an insert and a delete of
// the row (1, 10) of `relation` correctly.
void ExpectRenameKeepsExtent(const std::string& view_text,
                             const SchemaChange& change,
                             const RelationId& relation) {
  FaultReset reset;
  EveSystem eve;
  RegisterCarryOverSpace(&eve);
  ASSERT_TRUE(eve.DefineView(view_text).ok()) << view_text;
  const uint64_t identity_before =
      eve.GetViewEntry("V").value()->extent.identity();
  const int64_t rows_before =
      eve.GetViewEntry("V").value()->extent.cardinality();

  FaultInjection& fi = FaultInjection::Instance();
  ASSERT_TRUE(fi.ArmFromString("maintainer.recompute=0+*").ok());
  const auto report = eve.NotifySchemaChange(change);
  ASSERT_TRUE(report.ok()) << view_text << ": " << report.status().ToString();
  EXPECT_EQ(fi.HitCount("maintainer.recompute"), 0) << view_text;
  EXPECT_EQ(fi.FiredCount("maintainer.recompute"), 0) << view_text;
  fi.Reset();
  ASSERT_EQ(report->views.size(), 1u) << view_text;
  EXPECT_EQ(report->views[0].resulting_state, ViewState::kAlive) << view_text;

  const ViewEntry* entry = eve.GetViewEntry("V").value();
  EXPECT_EQ(entry->extent.identity(), identity_before) << view_text;
  EXPECT_EQ(entry->extent.cardinality(), rows_before) << view_text;
  ExpectExtentMatchesRecompute(eve, "V", view_text + " after the rename");

  // Maintenance runs on the new definition against the renamed space.
  const Tuple row{Value(1), Value(10)};
  ASSERT_TRUE(
      eve.NotifyDataUpdate(DataUpdate{UpdateKind::kInsert, relation, row})
          .ok())
      << view_text;
  ExpectExtentMatchesRecompute(eve, "V", view_text + " after an insert");
  ASSERT_TRUE(
      eve.NotifyDataUpdate(DataUpdate{UpdateKind::kDelete, relation, row})
          .ok())
      << view_text;
  ExpectExtentMatchesRecompute(eve, "V", view_text + " after a delete");
}

const char* const kCarryOverViews[] = {
    "CREATE VIEW V AS SELECT R.K, R.A FROM R",
    "CREATE VIEW V AS SELECT X.K, X.A FROM IS1.R X",
    "CREATE VIEW V AS SELECT R.K, R.A, S.B FROM R, S WHERE R.K = S.K",
    "CREATE VIEW V AS SELECT X.K, X.A, S.B FROM R X, S WHERE X.K = S.K",
};

TEST(EveSystemCarryOver, RenameAttributeKeepsExtent) {
  for (const char* view : kCarryOverViews) {
    // A plain attribute, and the join key that WHERE references.
    ExpectRenameKeepsExtent(
        view, SchemaChange(RenameAttribute{RelationId{"IS1", "R"}, "A", "A2"}),
        RelationId{"IS1", "R"});
    ExpectRenameKeepsExtent(
        view, SchemaChange(RenameAttribute{RelationId{"IS1", "R"}, "K", "K2"}),
        RelationId{"IS1", "R"});
  }
}

TEST(EveSystemCarryOver, RenameRelationKeepsExtent) {
  for (const char* view : kCarryOverViews) {
    ExpectRenameKeepsExtent(
        view, SchemaChange(RenameRelation{RelationId{"IS1", "R"}, "R2"}),
        RelationId{"IS1", "R2"});
  }
}

TEST(EveSystemCarryOver, OtherAdoptionsAndUnmaterializedViewsRecompute) {
  EveSystem eve;
  RegisterCarryOverSpace(&eve);
  ASSERT_TRUE(eve.DefineView("CREATE VIEW V AS "
                             "SELECT R.K, R.A, S.B (AR=true) "
                             "FROM R, S (RR=true) "
                             "WHERE (R.K = S.K) (CR=true)")
                  .ok());
  // W is registered without an extent.
  eve.options().materialize = false;
  ASSERT_TRUE(eve.DefineView("CREATE VIEW W AS SELECT R.K, R.A FROM R").ok());
  eve.options().materialize = true;
  ASSERT_FALSE(eve.GetViewEntry("W").value()->materialized);

  // A rename in the stream: V keeps its extent, W gets its first one.
  const uint64_t v_identity = eve.GetViewEntry("V").value()->extent.identity();
  ASSERT_TRUE(eve.NotifySchemaChange(SchemaChange(RenameAttribute{
                                         RelationId{"IS1", "R"}, "A", "A2"}))
                  .ok());
  EXPECT_EQ(eve.GetViewEntry("V").value()->extent.identity(), v_identity);
  ExpectExtentMatchesRecompute(eve, "V", "V after the rename");
  ExpectExtentMatchesRecompute(eve, "W", "W after the rename");

  // Deleting S adopts a substitution by T, which changes the extent.
  const auto report = eve.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{"IS2", "S"}}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->views.size(), 1u);
  EXPECT_EQ(report->views[0].resulting_state, ViewState::kAlive);
  EXPECT_NE(eve.GetViewEntry("V").value()->extent.identity(), v_identity);
  const ViewDefinition def = eve.GetViewDefinition("V").value();
  ASSERT_EQ(def.from_items.size(), 2u);
  EXPECT_EQ(def.from_items[1].relation, "T");
  ExpectExtentMatchesRecompute(eve, "V", "V after deleting S");
}

}  // namespace
}  // namespace eve
