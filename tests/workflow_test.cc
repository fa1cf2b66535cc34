#include <cstdio>

#include <gtest/gtest.h>

#include "datagen/flights_seed.h"
#include "workflow/generator.h"
#include "workflow/viz_graph.h"
#include "workflow/workflow.h"

namespace idebench::workflow {
namespace {

query::VizSpec MakeViz(const std::string& name) {
  query::VizSpec v;
  v.name = name;
  v.source = "flights";
  query::BinDimension d;
  d.column = "dep_delay";
  d.mode = query::BinningMode::kFixedCount;
  d.requested_bins = 10;
  v.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kCount;
  v.aggregates.push_back(a);
  return v;
}

expr::FilterExpr MakeFilter(const std::string& column, double lo, double hi) {
  expr::FilterExpr f;
  expr::Predicate p;
  p.column = column;
  p.op = expr::CompareOp::kRange;
  p.lo = lo;
  p.hi = hi;
  f.And(p);
  return f;
}

TEST(InteractionTest, JsonRoundTripAllTypes) {
  std::vector<Interaction> interactions = {
      Interaction::CreateViz(MakeViz("viz_0")),
      Interaction::SetFilter("viz_0", MakeFilter("dep_delay", 0, 10)),
      Interaction::SetSelection("viz_0", MakeFilter("dep_delay", 2, 4)),
      Interaction::Link("viz_0", "viz_1"),
      Interaction::Discard("viz_0"),
  };
  for (const Interaction& i : interactions) {
    auto parsed = Interaction::FromJson(i.ToJson());
    ASSERT_TRUE(parsed.ok()) << i.ToJson().Dump();
    EXPECT_EQ(parsed->ToJson(), i.ToJson());
  }
}

TEST(InteractionTest, FromJsonErrors) {
  EXPECT_FALSE(Interaction::FromJson(JsonValue(1)).ok());
  JsonValue unknown = JsonValue::Object();
  unknown.Set("type", "explode");
  EXPECT_FALSE(Interaction::FromJson(unknown).ok());
  JsonValue link_missing = JsonValue::Object();
  link_missing.Set("type", "link");
  link_missing.Set("from", "a");
  EXPECT_FALSE(Interaction::FromJson(link_missing).ok());
}

TEST(WorkflowTest, TypeNameRoundTrip) {
  for (WorkflowType t : AllWorkflowTypes()) {
    auto parsed = WorkflowTypeFromName(WorkflowTypeName(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(WorkflowTypeFromName("nope").ok());
}

TEST(WorkflowTest, JsonAndFileRoundTrip) {
  Workflow w;
  w.name = "test_wf";
  w.type = WorkflowType::kSequential;
  w.interactions.push_back(Interaction::CreateViz(MakeViz("viz_0")));
  w.interactions.push_back(
      Interaction::SetFilter("viz_0", MakeFilter("dep_delay", -5, 60)));

  auto parsed = Workflow::FromJson(w.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "test_wf");
  EXPECT_EQ(parsed->type, WorkflowType::kSequential);
  EXPECT_EQ(parsed->size(), 2u);

  const std::string path =
      std::string(::testing::TempDir()) + "/wf_roundtrip.json";
  ASSERT_TRUE(w.SaveToFile(path).ok());
  auto loaded = Workflow::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ToJson(), w.ToJson());
  std::remove(path.c_str());
}

TEST(VizGraphTest, CreateAffectsOnlyItself) {
  VizGraph g;
  std::vector<std::string> affected;
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("viz_0")), &affected).ok());
  EXPECT_EQ(affected, (std::vector<std::string>{"viz_0"}));
  EXPECT_TRUE(g.HasViz("viz_0"));
}

TEST(VizGraphTest, DuplicateCreateRejected) {
  VizGraph g;
  std::vector<std::string> affected;
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("v")), &affected).ok());
  EXPECT_FALSE(g.Apply(Interaction::CreateViz(MakeViz("v")), &affected).ok());
}

TEST(VizGraphTest, FilterPropagatesToDescendants) {
  VizGraph g;
  std::vector<std::string> affected;
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz(name)), &affected).ok());
  }
  affected.clear();
  ASSERT_TRUE(g.Apply(Interaction::Link("a", "b"), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::Link("b", "c"), &affected).ok());

  affected.clear();
  ASSERT_TRUE(g.Apply(Interaction::SetFilter("a", MakeFilter("dep_delay", 0, 5)),
                      &affected)
                  .ok());
  EXPECT_EQ(affected, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(VizGraphTest, SelectionAffectsOnlyDescendants) {
  VizGraph g;
  std::vector<std::string> affected;
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("src")), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("dst")), &affected).ok());
  affected.clear();
  ASSERT_TRUE(g.Apply(Interaction::Link("src", "dst"), &affected).ok());
  affected.clear();
  ASSERT_TRUE(
      g.Apply(Interaction::SetSelection("src", MakeFilter("dep_delay", 1, 2)),
              &affected)
          .ok());
  EXPECT_EQ(affected, (std::vector<std::string>{"dst"}));
}

TEST(VizGraphTest, LinkCycleRejected) {
  VizGraph g;
  std::vector<std::string> affected;
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz(name)), &affected).ok());
  }
  ASSERT_TRUE(g.Apply(Interaction::Link("a", "b"), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::Link("b", "c"), &affected).ok());
  EXPECT_FALSE(g.Apply(Interaction::Link("c", "a"), &affected).ok());
  EXPECT_FALSE(g.Apply(Interaction::Link("a", "a"), &affected).ok());
}

TEST(VizGraphTest, LinkUnknownVizRejected) {
  VizGraph g;
  std::vector<std::string> affected;
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("a")), &affected).ok());
  EXPECT_FALSE(g.Apply(Interaction::Link("a", "ghost"), &affected).ok());
  EXPECT_FALSE(g.Apply(Interaction::Link("ghost", "a"), &affected).ok());
}

TEST(VizGraphTest, DiscardRemovesVizAndLinks) {
  VizGraph g;
  std::vector<std::string> affected;
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("a")), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("b")), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::Link("a", "b"), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::Discard("a"), &affected).ok());
  EXPECT_FALSE(g.HasViz("a"));
  EXPECT_TRUE(g.links().empty());
  EXPECT_FALSE(g.Apply(Interaction::Discard("a"), &affected).ok());
}

TEST(VizGraphTest, BuildQueryConjoinsAncestorFiltersAndSelections) {
  VizGraph g;
  std::vector<std::string> affected;
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("src")), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz("dst")), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::Link("src", "dst"), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::SetFilter("src", MakeFilter("distance", 0, 500)),
                      &affected)
                  .ok());
  ASSERT_TRUE(
      g.Apply(Interaction::SetSelection("src", MakeFilter("dep_delay", 1, 2)),
              &affected)
          .ok());
  ASSERT_TRUE(g.Apply(Interaction::SetFilter("dst", MakeFilter("air_time", 10, 99)),
                      &affected)
                  .ok());

  auto q = g.BuildQuery("dst");
  ASSERT_TRUE(q.ok());
  // dst's own filter + src's filter + src's selection = 3 predicates.
  EXPECT_EQ(q->filter.size(), 3u);
  // The source viz itself sees only its own filter.
  auto src_q = g.BuildQuery("src");
  ASSERT_TRUE(src_q.ok());
  EXPECT_EQ(src_q->filter.size(), 1u);
  EXPECT_FALSE(g.BuildQuery("ghost").ok());
}

TEST(VizGraphTest, DiamondTopologyVisitsAncestorsOnce) {
  // a -> b, a -> c, b -> d, c -> d: a's filter must appear once in d's
  // query, not twice.
  VizGraph g;
  std::vector<std::string> affected;
  for (const char* name : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(g.Apply(Interaction::CreateViz(MakeViz(name)), &affected).ok());
  }
  ASSERT_TRUE(g.Apply(Interaction::Link("a", "b"), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::Link("a", "c"), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::Link("b", "d"), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::Link("c", "d"), &affected).ok());
  ASSERT_TRUE(g.Apply(Interaction::SetFilter("a", MakeFilter("distance", 0, 1)),
                      &affected)
                  .ok());
  auto q = g.BuildQuery("d");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->filter.size(), 1u);
}

class GeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::FlightsSeedConfig config;
    config.rows = 10'000;
    config.seed = 11;
    auto table = datagen::GenerateFlightsSeed(config);
    ASSERT_TRUE(table.ok());
    table_ = std::make_unique<storage::Table>(std::move(table).MoveValueUnsafe());
  }

  std::unique_ptr<storage::Table> table_;
};

TEST_F(GeneratorTest, GeneratesValidWorkflowsOfEveryType) {
  GeneratorConfig config;
  WorkflowGenerator generator(table_.get(), config, 99);
  for (WorkflowType type : AllWorkflowTypes()) {
    auto wf = generator.Generate(type, "wf");
    ASSERT_TRUE(wf.ok()) << WorkflowTypeName(type);
    EXPECT_GE(static_cast<int>(wf->size()), config.min_interactions);
    // Replaying through a fresh graph must succeed (structural validity).
    VizGraph graph;
    for (const Interaction& i : wf->interactions) {
      std::vector<std::string> affected;
      ASSERT_TRUE(graph.Apply(i, &affected).ok())
          << WorkflowTypeName(type) << ": " << i.ToJson().Dump();
    }
  }
}

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  GeneratorConfig config;
  WorkflowGenerator g1(table_.get(), config, 5);
  WorkflowGenerator g2(table_.get(), config, 5);
  auto w1 = g1.Generate(WorkflowType::kMixed, "w");
  auto w2 = g2.Generate(WorkflowType::kMixed, "w");
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w1->ToJson(), w2->ToJson());
}

TEST_F(GeneratorTest, IndependentWorkflowsHaveNoLinks) {
  GeneratorConfig config;
  WorkflowGenerator generator(table_.get(), config, 3);
  auto wf = generator.Generate(WorkflowType::kIndependent, "w");
  ASSERT_TRUE(wf.ok());
  for (const Interaction& i : wf->interactions) {
    EXPECT_NE(i.type, InteractionType::kLink);
  }
}

TEST_F(GeneratorTest, LinkedTypesContainLinks) {
  GeneratorConfig config;
  WorkflowGenerator generator(table_.get(), config, 4);
  for (WorkflowType type : {WorkflowType::kSequential, WorkflowType::kOneToN,
                            WorkflowType::kNToOne}) {
    auto wf = generator.Generate(type, "w");
    ASSERT_TRUE(wf.ok());
    int links = 0;
    for (const Interaction& i : wf->interactions) {
      if (i.type == InteractionType::kLink) ++links;
    }
    EXPECT_GE(links, 1) << WorkflowTypeName(type);
  }
}

TEST_F(GeneratorTest, DefaultSuiteShape) {
  GeneratorConfig config;
  config.min_interactions = 6;
  config.max_interactions = 8;
  WorkflowGenerator generator(table_.get(), config, 8);
  auto suite = generator.GenerateSuite(AllWorkflowTypes(), 2);
  ASSERT_TRUE(suite.ok());
  ASSERT_EQ(suite->size(), 10u);  // 5 types x 2
  // Types in the order given, each named <type>_<i>.
  for (size_t t = 0; t < AllWorkflowTypes().size(); ++t) {
    const WorkflowType type = AllWorkflowTypes()[t];
    for (int i = 0; i < 2; ++i) {
      const Workflow& wf = (*suite)[2 * t + static_cast<size_t>(i)];
      EXPECT_EQ(wf.type, type);
      EXPECT_EQ(wf.name,
                std::string(WorkflowTypeName(type)) + "_" + std::to_string(i));
    }
  }
  // Order follows `types`, not the canonical type order.
  auto reversed = generator.GenerateSuite(
      {WorkflowType::kMixed, WorkflowType::kIndependent}, 1);
  ASSERT_TRUE(reversed.ok());
  ASSERT_EQ(reversed->size(), 2u);
  EXPECT_EQ((*reversed)[0].name, "mixed_0");
  EXPECT_EQ((*reversed)[1].name, "independent_0");
}

TEST_F(GeneratorTest, JsonRoundTripOfGeneratedWorkflow) {
  GeneratorConfig config;
  WorkflowGenerator generator(table_.get(), config, 21);
  auto wf = generator.Generate(WorkflowType::kOneToN, "w");
  ASSERT_TRUE(wf.ok());
  auto parsed = Workflow::FromJson(wf->ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ToJson(), wf->ToJson());
}

/// Property sweep: all workflow types generate structurally valid
/// workflows across many seeds.
class GeneratorSeedSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeneratorSeedSweep, AlwaysStructurallyValid) {
  const auto [seed, type_index] = GetParam();
  datagen::FlightsSeedConfig data_config;
  data_config.rows = 3'000;
  data_config.seed = 1;
  auto table = datagen::GenerateFlightsSeed(data_config);
  ASSERT_TRUE(table.ok());
  GeneratorConfig config;
  config.min_interactions = 8;
  config.max_interactions = 14;
  WorkflowGenerator generator(&*table, config,
                              static_cast<uint64_t>(seed));
  const WorkflowType type = AllWorkflowTypes()[static_cast<size_t>(type_index)];
  auto wf = generator.Generate(type, "sweep");
  ASSERT_TRUE(wf.ok());
  VizGraph graph;
  for (const Interaction& i : wf->interactions) {
    std::vector<std::string> affected;
    ASSERT_TRUE(graph.Apply(i, &affected).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndTypes, GeneratorSeedSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Values(0, 1, 2, 3, 4)));

}  // namespace
}  // namespace idebench::workflow
