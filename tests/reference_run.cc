#include "reference_run.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "engine/executor.h"
#include "opt/stages.h"

namespace sc::test {

namespace {

/// Dictionary-encodes each plain string column whose encoding is smaller
/// (the documented ControllerOptions::compress_residency behaviour).
engine::TablePtr Compress(engine::TablePtr table) {
  auto out = std::make_shared<engine::Table>(*table);
  for (std::size_t i = 0; i < out->num_columns(); ++i) {
    engine::Column& col = out->mutable_column(i);
    if (col.type() != engine::DataType::kString || col.dictionary_encoded()) {
      continue;
    }
    engine::Column encoded = col.DictionaryEncode();
    if (encoded.ByteSize() < col.ByteSize()) col = std::move(encoded);
  }
  return out;
}

}  // namespace

ReferenceReport RunReference(const workload::MvWorkload& wl,
                             const opt::Plan& plan, std::int64_t budget,
                             storage::ThrottledDisk* disk,
                             bool compress_residency) {
  const graph::Graph& g = wl.graph;
  const opt::StageDecomposition stages =
      opt::DecomposeStages(g, plan.order);
  ReferenceReport report;

  struct Resident {
    engine::TablePtr table;
    std::int64_t bytes = 0;
  };
  std::map<std::string, Resident> resident;
  std::int64_t used = 0;
  std::vector<graph::NodeId> releasable;
  std::vector<std::size_t> pending(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    pending[static_cast<std::size_t>(v)] = g.children(v).size();
  }
  auto mark_done = [&](graph::NodeId v) {
    if (plan.flags[v]) releasable.push_back(v);
  };

  for (const graph::NodeId v : plan.order.sequence) {
    const std::string& name = g.node(v).name;
    engine::FnResolver resolver([&](const std::string& input) {
      auto it = resident.find(input);
      if (it != resident.end()) {
        ++report.catalog_hits;
        return it->second.table;
      }
      ++report.catalog_misses;
      return engine::TablePtr(
          std::make_shared<engine::Table>(disk->ReadTable(input)));
    });
    engine::TablePtr output = std::make_shared<engine::Table>(
        engine::ExecutePlan(*wl.plans[v], resolver));
    if (compress_residency) output = Compress(std::move(output));
    disk->WriteTable(name, *output);

    runtime::NodeRunStats stats;
    stats.name = name;
    stats.output_bytes = output->ByteSize();
    stats.output_rows = output->num_rows();
    stats.stage = stages.stage_of[v];
    if (plan.flags[v]) {
      while (used + stats.output_bytes > budget) {
        if (releasable.empty()) {
          report.error = "Memory Catalog budget violated at node " + name;
          return report;
        }
        const std::string& victim = g.node(releasable.back()).name;
        releasable.pop_back();
        used -= resident[victim].bytes;
        resident.erase(victim);
      }
      resident[name] = Resident{output, stats.output_bytes};
      used += stats.output_bytes;
      report.peak_memory = std::max(report.peak_memory, used);
      stats.output_in_memory = true;
    }
    if (pending[static_cast<std::size_t>(v)] == 0) mark_done(v);
    for (const graph::NodeId p : g.parents(v)) {
      if (--pending[static_cast<std::size_t>(p)] == 0) mark_done(p);
    }
    report.nodes.push_back(std::move(stats));
  }
  report.ok = true;
  return report;
}

void ExpectMatchesReference(const ReferenceReport& reference,
                            const runtime::RunReport& report,
                            const std::string& label) {
  ASSERT_TRUE(reference.ok) << label << ": " << reference.error;
  ASSERT_TRUE(report.ok) << label << ": " << report.error;
  EXPECT_EQ(report.peak_memory, reference.peak_memory) << label;
  EXPECT_EQ(report.catalog_hits, reference.catalog_hits) << label;
  EXPECT_EQ(report.catalog_misses, reference.catalog_misses) << label;
  ASSERT_EQ(report.nodes.size(), reference.nodes.size()) << label;
  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    const runtime::NodeRunStats& want = reference.nodes[i];
    const runtime::NodeRunStats& got = report.nodes[i];
    EXPECT_EQ(got.name, want.name) << label << " publish slot " << i;
    EXPECT_EQ(got.output_bytes, want.output_bytes) << label << " " << want.name;
    EXPECT_EQ(got.output_rows, want.output_rows) << label << " " << want.name;
    EXPECT_EQ(got.output_in_memory, want.output_in_memory)
        << label << " " << want.name;
    EXPECT_EQ(got.stage, want.stage) << label << " " << want.name;
  }
}

}  // namespace sc::test
