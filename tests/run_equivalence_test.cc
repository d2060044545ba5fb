// Randomized lane-count equivalence: seeded DAGs from workload/dag_gen,
// each under a random Memory Catalog budget, run at one lane, at four
// lanes, and through the plan-order reference run (reference_run.h).
// Every run must leave the same MV bytes and the same catalog peak.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "common/rng.h"
#include "opt/optimizer.h"
#include "reference_run.h"
#include "runtime/controller.h"
#include "workload/dag_gen.h"
#include "workload/datagen.h"

namespace sc::runtime {
namespace {

constexpr int kSeeds = 20;

/// Engine plans for a generated DAG over the string-heavy `events` table.
/// Every MV has the schema (category:str, bucket:i64, qty:i64, cnt:i64):
/// roots roll up a seeded slice of `events`; inner nodes union their
/// parents, coarsen `bucket` by a seeded modulus and roll up again, so
/// output sizes vary from node to node and string columns exercise
/// compressed residency.
workload::MvWorkload RandomWorkload(std::uint64_t seed) {
  using engine::Col;
  using engine::Lit;
  using engine::NamedExpr;
  Rng rng(seed);
  workload::DagGenOptions options;
  options.num_nodes = static_cast<std::int32_t>(rng.UniformInt(6, 16));
  options.height_width_ratio = rng.UniformDouble(0.3, 3.0);
  options.max_outdegree = 3;
  options.seed = seed;
  workload::MvWorkload wl;
  wl.name = "random_" + std::to_string(seed);
  wl.graph = workload::GenerateDag(options);
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::vector<graph::NodeId>& parents = wl.graph.parents(v);
    engine::PlanPtr input;
    std::vector<engine::AggSpec> aggs;
    if (parents.empty()) {
      input = engine::Filter(
          engine::Scan("events"),
          engine::Gt(Col("qty"), Lit(rng.UniformInt(0, 60))));
      aggs = {engine::SumOf(Col("qty"), "qty"), engine::CountAll("cnt")};
    } else {
      for (const graph::NodeId p : parents) {
        engine::PlanPtr scan = engine::Scan(wl.graph.node(p).name);
        input = input == nullptr ? scan : engine::UnionAll(input, scan);
      }
      aggs = {engine::SumOf(Col("qty"), "qty"),
              engine::SumOf(Col("cnt"), "cnt")};
    }
    input = engine::Project(
        input, {NamedExpr{"category", Col("category")},
                NamedExpr{"bucket", engine::Mod(Col("bucket"),
                                                Lit(rng.UniformInt(1, 64)))},
                NamedExpr{"qty", Col("qty")},
                NamedExpr{"cnt", parents.empty() ? Lit(std::int64_t{1})
                                                 : Col("cnt")}});
    wl.plans.push_back(
        engine::Aggregate(input, {"category", "bucket"}, std::move(aggs)));
  }
  return wl;
}

TEST(RunEquivalenceTest, RandomDagsMatchReferenceAtOneAndFourLanes) {
  workload::StringHeavyOptions data_options;
  data_options.scale = 0.2;
  data_options.cardinality = workload::StringCardinality::kLow;
  const auto data = workload::GenerateStringHeavyData(data_options);
  int seeds_with_flags = 0;
  int seeds_with_evictions = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir =
        testing::TempDir() + "/sc_equiv_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    storage::DiskProfile profile;
    profile.throttle = false;
    storage::ThrottledDisk disk(dir, profile);
    workload::MvWorkload wl = RandomWorkload(seed);
    Controller profiler(&disk, ControllerOptions{});
    profiler.LoadBaseTables(data);
    ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

    // From "nothing fits" (0) to "everything fits" (sum of all outputs).
    std::int64_t all_fit = 0;
    for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
      all_fit += wl.graph.node(v).size_bytes;
    }
    Rng rng(seed * 7919);
    const std::int64_t budget = rng.UniformInt(0, all_fit);
    const opt::Plan plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;

    const test::ReferenceReport reference =
        test::RunReference(wl, plan, budget, &disk);
    ASSERT_TRUE(reference.ok) << reference.error;
    std::map<std::string, engine::Table> mvs;
    std::int64_t flagged_bytes = 0;
    for (const runtime::NodeRunStats& node : reference.nodes) {
      mvs.emplace(node.name, disk.ReadTable(node.name));
      if (node.output_in_memory) flagged_bytes += node.output_bytes;
    }
    if (flagged_bytes > 0) ++seeds_with_flags;
    if (reference.peak_memory < flagged_bytes) ++seeds_with_evictions;

    for (const int lanes : {1, 4}) {
      const std::string label = std::to_string(lanes) + " lanes";
      // Stale files would let a run that skipped a write pass.
      for (const auto& [name, table] : mvs) disk.Remove(name);
      ControllerOptions options;
      options.budget = budget;
      options.max_parallel_nodes = lanes;
      const RunReport report = Controller(&disk, options).Run(wl, plan);
      test::ExpectMatchesReference(reference, report, label);
      for (const auto& [name, table] : mvs) {
        EXPECT_TRUE(disk.ReadTable(name) == table) << label << " " << name;
      }
    }
  }
  // The draw must exercise the catalog, lazy release included.
  EXPECT_GE(seeds_with_flags, kSeeds / 2);
  EXPECT_GE(seeds_with_evictions, 1);
}

}  // namespace
}  // namespace sc::runtime
