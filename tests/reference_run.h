#ifndef SC_TESTS_REFERENCE_RUN_H_
#define SC_TESTS_REFERENCE_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "opt/types.h"
#include "runtime/controller.h"
#include "storage/throttled_disk.h"
#include "workload/workloads.h"

namespace sc::test {

/// What the reference run observed: the fields a Controller run must
/// reproduce exactly, whatever its lane count.
struct ReferenceReport {
  bool ok = false;
  std::string error;
  /// Deterministic NodeRunStats fields only (name, output_bytes,
  /// output_rows, output_in_memory, stage), in plan order; timings stay 0.
  std::vector<runtime::NodeRunStats> nodes;
  std::int64_t catalog_hits = 0;
  std::int64_t catalog_misses = 0;
  std::int64_t peak_memory = 0;
};

/// Test-only oracle for runtime::Controller without a shared catalog.
/// Executes every node in plan order on the calling thread with
/// engine::ExecutePlan, resolving inputs from a resident set first and
/// `disk` second, and writes every output to `disk`. Flagged outputs enter
/// the resident set under `budget` with the paper's lazy release: a node
/// becomes releasable once its last consumer finished, and releasable
/// entries are dropped (most recent first) only when a Put does not fit.
/// It shares no run-loop code with the Controller; the budget accounting
/// is its own too.
ReferenceReport RunReference(const workload::MvWorkload& wl,
                             const opt::Plan& plan, std::int64_t budget,
                             storage::ThrottledDisk* disk,
                             bool compress_residency = true);

/// Asserts (gtest) that a Controller report matches the reference on
/// node order and deterministic stats, catalog hits/misses and peak
/// memory. `label` tags failures.
void ExpectMatchesReference(const ReferenceReport& reference,
                            const runtime::RunReport& report,
                            const std::string& label);

}  // namespace sc::test

#endif  // SC_TESTS_REFERENCE_RUN_H_
