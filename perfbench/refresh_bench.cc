// Real-engine MV refresh benchmark.
//
// Runs refresh jobs through runtime::Controller and service::
// RefreshService on the five Table III DAGs over generated TPC-DS-like
// data, checks every refreshed MV against the No-opt reference, and
// prints end-to-end (--trace 0) or per-layer (--trace 1) metrics as the
// last line of stdout. Everything is measured from outside the library:
// the benchmark times its own calls into public functions and reads what
// they already return (RunReport, JobResult, ThrottledDisk totals,
// LanePool / SharedCatalog counters, obs::TraceRecorder + AnalyzeTrace).
//
//   refresh_bench --workload paper_seq|paper_par4|tenant_days
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//                 [--git-sha SHA] [--source-sha256 HEX]
//
// Workloads, metrics and their definitions: README.md in this directory.

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/sc.h"
#include "common/clock.h"

namespace {

using namespace sc;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::int64_t kMiB = 1024 * 1024;
constexpr int kNumDags = 5;
constexpr std::uint64_t kControllerOrderSeed = 1;
/// Seed kept out of every tuning run (which used seeds 1-20), for
/// re-checking a claim on data the change was not tuned on.
constexpr std::uint64_t kHeldOutSeed = 7919;
/// Tenant -> DAG of one tenant_days burst: the five paper DAGs plus
/// three tenants refreshing a DAG another tenant also refreshes.
constexpr std::array<int, 8> kTenantDag = {0, 1, 2, 3, 4, 0, 2, 4};

// ---------------------------------------------------------------------------
// Workload configuration.
// ---------------------------------------------------------------------------

struct WorkloadConfig {
  std::string name;
  double scale = 3.0;
  storage::DiskProfile disk;
  /// Controller Memory-Catalog budget, or the service's global budget.
  std::int64_t budget = 0;
  /// Controller max_parallel_nodes (intra-job lanes).
  int lanes = 1;
  bool service = false;
  /// Tail percentile: the highest one with at least 10 jobs beyond it at
  /// the shortest run this workload makes in the benchmark's run length
  /// (24 s: eight rounds of five S/C jobs, or sixteen days of eight).
  double tail_percentile = 75.0;
};

WorkloadConfig ConfigFor(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == "paper_seq") {
    // Paper disk profile (519.8/358.9 MB/s, 175 us, one channel).
    c.scale = 3.0;
    c.budget = 8 * kMiB;
  } else if (name == "paper_par4") {
    c.scale = 10.0;
    c.disk.throttle = false;
    c.disk.channels = 4;
    c.budget = 512 * kMiB;
    c.lanes = 4;
  } else if (name == "tenant_days") {
    c.scale = 3.0;
    c.disk.channels = 4;
    c.budget = 24 * kMiB;
    c.service = true;
    c.tail_percentile = 90.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return c;
}

/// The analytic device matching a ThrottledDisk profile: same bandwidths
/// and per-access latency, no per-table overheads (the emulated disk pads
/// only bandwidth and latency).
cost::DeviceProfile DeviceFor(const storage::DiskProfile& disk) {
  cost::DeviceProfile device;
  device.disk_read_bw = disk.read_bw;
  device.disk_write_bw = disk.write_bw;
  device.disk_latency = disk.latency;
  device.table_read_overhead = 0.0;
  device.table_write_overhead = 0.0;
  return device;
}

sim::SimOptions SimOptionsFor(const WorkloadConfig& c, std::int64_t budget) {
  sim::SimOptions options;
  options.device = DeviceFor(c.disk);
  options.budget = budget;
  return options;
}

// ---------------------------------------------------------------------------
// Set-up: data, base tables, profiling, No-opt reference MVs.
// ---------------------------------------------------------------------------

/// Where `disk` stores table `name` (storage/throttled_disk.h).
std::string TablePath(const storage::ThrottledDisk& disk,
                      const std::string& name) {
  return disk.root_dir() + "/" + name + ".sct";
}

struct Setup {
  std::unique_ptr<storage::ThrottledDisk> disk;
  /// Unthrottled view of the same files, for the output oracle (keeps
  /// verification reads out of the workload disk's totals).
  std::unique_ptr<storage::ThrottledDisk> verify_disk;
  /// Unthrottled store of the No-opt reference MVs, read back one at a
  /// time by the oracle so that they stay out of the process's memory.
  std::unique_ptr<storage::ThrottledDisk> reference_disk;
  /// Row count of every reference MV (from the profiling run's report).
  std::map<std::string, std::uint64_t> reference_rows;
  /// Modification time MarkStale gives stored MVs (a year before set-up).
  std::filesystem::file_time_type stale_time;
  std::vector<workload::MvWorkload> dags;
  double seconds = 0.0;
};

std::unique_ptr<Setup> RunSetup(const WorkloadConfig& c, std::uint64_t seed,
                                const std::string& dir,
                                const std::string& reference_dir) {
  for (const std::string& d : {dir, reference_dir}) {
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
  }
  auto s = std::make_unique<Setup>();
  storage::DiskProfile plain = c.disk;
  plain.throttle = false;
  s->reference_disk =
      std::make_unique<storage::ThrottledDisk>(reference_dir, plain);
  const double t0 = MonotonicSeconds();
  s->disk = std::make_unique<storage::ThrottledDisk>(dir, c.disk);
  // Sequential profiler: the paper's "observed metrics from past runs".
  runtime::Controller profiler(s->disk.get(), runtime::ControllerOptions{});
  {
    workload::DataGenOptions gen;
    gen.scale = c.scale;
    gen.seed = seed;
    profiler.LoadBaseTables(workload::GenerateTpcdsData(gen));
  }
  s->dags = workload::StandardWorkloads();
  for (workload::MvWorkload& wl : s->dags) {
    const runtime::RunReport r = profiler.ProfileAndAnnotate(&wl);
    if (!r.ok) {
      throw std::runtime_error("profiling run of " + wl.name +
                               " failed: " + r.error);
    }
    for (const runtime::NodeRunStats& n : r.nodes) {
      std::filesystem::copy_file(TablePath(*s->disk, n.name),
                                 TablePath(*s->reference_disk, n.name));
      s->reference_rows[n.name] = n.output_rows;
    }
  }
  s->seconds = MonotonicSeconds() - t0;
  s->stale_time = std::filesystem::file_time_type::clock::now() -
                  std::chrono::hours(24 * 365);
  s->verify_disk = std::make_unique<storage::ThrottledDisk>(dir, plain);
  return s;
}

// ---------------------------------------------------------------------------
// Output oracle.
// ---------------------------------------------------------------------------

/// Byte identity of one stored MV with `expected` (engine::Table::
/// operator== compares doubles by bit pattern). On mismatch fills `why`.
bool MatchesReference(storage::ThrottledDisk& disk, const std::string& name,
                      const engine::Table& expected, std::string* why) {
  try {
    if (disk.ReadTable(name) == expected) return true;
    *why = "differs from the No-opt reference";
  } catch (const std::exception& e) {
    *why = e.what();
  }
  return false;
}

/// True when both files exist and hold the same bytes. Identical bytes
/// decode to identical tables, so the oracle decodes only files that
/// differ (operator== also accepts other encodings of the same values).
bool SameFileBytes(const std::string& a, const std::string& b) {
  std::error_code error_a, error_b;
  const auto size_a = std::filesystem::file_size(a, error_a);
  const auto size_b = std::filesystem::file_size(b, error_b);
  if (error_a || error_b || size_a != size_b) return false;
  std::ifstream file_a(a, std::ios::binary), file_b(b, std::ios::binary);
  std::vector<char> chunk_a(1 << 20), chunk_b(1 << 20);
  while (file_a && file_b) {
    file_a.read(chunk_a.data(), static_cast<std::streamsize>(chunk_a.size()));
    file_b.read(chunk_b.data(), static_cast<std::streamsize>(chunk_b.size()));
    const std::streamsize n = file_a.gcount();
    if (n != file_b.gcount() ||
        !std::equal(chunk_a.begin(), chunk_a.begin() + n, chunk_b.begin())) {
      return false;
    }
  }
  return file_a.eof() && file_b.eof();
}

/// "" when every MV of `wl` on disk matches its reference, else
/// "<mv>: <why>" for the first one that does not.
std::string CheckDag(Setup& s, const workload::MvWorkload& wl) {
  for (graph::NodeId v = 0; v < wl.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    std::error_code missing;
    const auto written = std::filesystem::last_write_time(
        TablePath(*s.verify_disk, name), missing);
    if (missing) return name + ": missing";
    if (written <= s.stale_time + std::chrono::seconds(1)) {
      return name + ": not rewritten by the job";
    }
    if (SameFileBytes(TablePath(*s.verify_disk, name),
                      TablePath(*s.reference_disk, name))) {
      continue;
    }
    std::string why;
    if (!MatchesReference(*s.verify_disk, name,
                          s.reference_disk->ReadTable(name), &why)) {
      return name + ": " + why;
    }
  }
  return "";
}

/// "" when every node of `report` output as many rows as its reference,
/// else "<mv>: ..." for the first one that did not. A per-job check: on
/// tenant_days two tenants write the same MV files, and CheckDag sees
/// only the last writer.
std::string CheckRowCounts(const Setup& s, const runtime::RunReport& report) {
  for (const runtime::NodeRunStats& n : report.nodes) {
    const std::uint64_t expected = s.reference_rows.at(n.name);
    if (n.output_rows != expected) {
      return StrFormat("%s: %llu rows, reference has %llu", n.name.c_str(),
                       static_cast<unsigned long long>(n.output_rows),
                       static_cast<unsigned long long>(expected));
    }
  }
  return "";
}

/// Gives every stored MV of `wl` Setup::stale_time as its modification
/// time (outside the timed region). A refresh replaces every file, so one
/// that still has that time afterwards was not written by the job, and
/// CheckDag fails it instead of accepting an earlier run's file. The
/// files are kept, not deleted, so that the job pays for replacing them
/// as a refresh of an existing warehouse does (deleting them first would
/// move that cost out of the timed region).
void MarkStale(Setup& s, const workload::MvWorkload& wl) {
  for (graph::NodeId v = 0; v < wl.num_nodes(); ++v) {
    std::error_code missing;  // nothing to mark; CheckDag reports it
    std::filesystem::last_write_time(TablePath(*s.disk, wl.graph.node(v).name),
                                     s.stale_time, missing);
  }
}

/// Copy of `t` with one numeric value changed (middle row of the first
/// int64 or float64 column); `t` itself if it has none.
engine::Table AlterOneValue(const engine::Table& t) {
  std::vector<engine::Column> columns;
  for (std::size_t i = 0; i < t.num_columns(); ++i) {
    columns.push_back(t.column(i));
  }
  for (engine::Column& column : columns) {
    const std::size_t mid = column.size() / 2;
    if (column.empty()) continue;
    if (column.type() == engine::DataType::kInt64) {
      std::vector<std::int64_t> values = column.ints();
      values[mid] += 1;
      column = engine::Column::FromInts(std::move(values));
      break;
    }
    if (column.type() == engine::DataType::kFloat64) {
      std::vector<double> values = column.doubles();
      values[mid] = std::nextafter(values[mid], kInf);
      column = engine::Column::FromDoubles(std::move(values));
      break;
    }
  }
  return engine::Table(t.schema(), std::move(columns));
}

/// Feeds the oracle a deliberately altered reference: it must reject the
/// altered table and accept the true one (both against the stored
/// reference file).
bool AlteredReferenceTrips(Setup& s, std::string* detail) {
  for (const workload::MvWorkload& wl : s.dags) {
    for (graph::NodeId v = 0; v < wl.num_nodes(); ++v) {
      const std::string& name = wl.graph.node(v).name;
      const engine::Table ref = s.reference_disk->ReadTable(name);
      const engine::Table altered = AlterOneValue(ref);
      if (altered == ref) continue;  // no numeric cell to alter
      std::string why;
      const bool accepts =
          MatchesReference(*s.reference_disk, name, ref, &why);
      const bool rejects =
          !MatchesReference(*s.reference_disk, name, altered, &why);
      *detail = StrFormat("altered one value of %s: oracle %s, true "
                          "reference %s",
                          name.c_str(), rejects ? "tripped" : "MISSED it",
                          accepts ? "accepted" : "REJECTED");
      return accepts && rejects;
    }
  }
  *detail = "no MV with a numeric column to alter";
  return false;
}

/// The altered-reference check, then CheckDag on the first DAG's stored
/// MVs, which set-up left correct: it must accept them as written, and
/// reject them once marked stale (the job that should have rewritten
/// them skipped its writes). Run right after set-up.
bool OracleSelfTest(Setup& s, std::string* detail) {
  std::string altered_detail;
  const bool altered_ok = AlteredReferenceTrips(s, &altered_detail);
  const workload::MvWorkload& wl = s.dags.front();
  const bool accepts_written = CheckDag(s, wl).empty();
  MarkStale(s, wl);
  const bool rejects_stale = !CheckDag(s, wl).empty();
  *detail = StrFormat(
      "oracle self-test: %s; %s MVs as written: %s, marked stale: oracle %s",
      altered_detail.c_str(), wl.name.c_str(),
      accepts_written ? "accepted" : "REJECTED",
      rejects_stale ? "tripped" : "MISSED it");
  return altered_ok && accepts_written && rejects_stale;
}

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

struct JobRecord {
  int dag = 0;
  bool failed = false;
  std::string failure;
  /// Seconds; +inf for failed jobs (they miss any latency limit).
  double latency = kInf;
  /// Controller workloads: the Optimizer::Optimize call.
  double optimize = 0.0;
  runtime::RunReport report;
  /// Service workloads: JobResult fields.
  double exec = 0.0;
  double queue_wait = 0.0;
  double grant_frac = 1.0;
  double returned_frac = 0.0;
  bool reoptimized = false;
  bool plan_cache_hit = false;
  /// |simulated makespan - real run wall| / real run wall.
  double model_error = kNaN;

  void Fail(const std::string& why) {
    if (!failed) failure = why;
    failed = true;
    latency = kInf;
  }
};

struct NoOptRecord {
  int dag = 0;
  double latency = kInf;
  double model_error = kNaN;
};

/// Sums over a traced phase, from obs::AnalyzeTrace and the raw events.
struct TraceTotals {
  std::int64_t events = 0;
  std::int64_t dropped = 0;
  double materialize_busy = 0.0;
  double publish = 0.0;
  double queued = 0.0;
  double budget_wait = 0.0;
  double execute = 0.0;
  double plan = 0.0;
  double node_spans = 0.0;
  /// Busy seconds per track class ("lane", "worker", "materializer", ...).
  std::map<std::string, double> track_busy;

  void Add(const obs::TraceRecorder& recorder) {
    const std::vector<obs::TraceEvent> trace = recorder.Events();
    events += static_cast<std::int64_t>(trace.size());
    dropped += recorder.dropped();
    const obs::TraceAnalysis analysis = obs::AnalyzeTrace(trace);
    for (const auto& [track, busy] : analysis.track_busy_seconds) {
      const std::string cls = track.substr(0, track.find('-'));
      track_busy[cls] += busy;
      if (cls == "materializer") materialize_busy += busy;
    }
    for (const auto& [job, phases] : analysis.jobs) {
      queued += phases.queued_seconds;
      budget_wait += phases.budget_wait_seconds;
      execute += phases.executing_seconds;
      publish += phases.publishing_seconds;
    }
    for (const obs::TraceEvent& e : trace) {
      if (e.category == "plan" && !e.instant) plan += e.dur_seconds;
      if (e.category == "node" && !e.instant) node_spans += e.dur_seconds;
    }
  }
};

struct PhaseResult {
  std::vector<JobRecord> jobs;
  std::vector<NoOptRecord> noopt;
  /// Controller workloads: sum of S/C job latencies; service: sum of
  /// day walls (first submit to last resolution).
  double timed_seconds = 0.0;
  /// Sum of Controller run walls (lane capacity denominator).
  double run_seconds = 0.0;
  double disk_read_s = 0.0;
  double disk_write_s = 0.0;
  double lane_busy_s = 0.0;
  double lane_capacity_s = 0.0;
  std::int64_t lane_threads = 0;
  int days = 0;
  std::int64_t shared_hits = 0;
  std::int64_t shared_misses = 0;
  std::int64_t evictions = 0;
  std::int64_t spills = 0;
  std::int64_t refills = 0;
  std::int64_t rejects = 0;
  /// Sum over days of each day's high-water spill bytes, and the max.
  double spill_peak_sum = 0.0;
  std::int64_t spill_peak_max = 0;
  std::vector<std::string> problems;
  TraceTotals trace;

  double Throughput() const {
    std::int64_t ok = 0;
    for (const JobRecord& j : jobs) ok += j.failed ? 0 : 1;
    return timed_seconds > 0 ? static_cast<double>(ok) / timed_seconds : 0;
  }
};

/// Seeded Fisher-Yates permutation of 0..n-1 (library-independent).
std::vector<int> Shuffled(int n, std::mt19937_64& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng() % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

double ModelError(double simulated, double real) {
  return real > 0 ? std::fabs(simulated - real) / real : kNaN;
}

/// Controller workloads (paper_seq, paper_par4): rounds of the five DAGs
/// in a shuffled order, one S/C job (Optimize + RunWithBudget) each. Two
/// RunUnoptimized per round, of the next two DAGs of a shuffled round-robin
/// over each block of five rounds, run next to those DAGs' S/C jobs
/// (after them in even rounds, before them in odd ones). Stops at the
/// first round boundary after `seconds`, then tops up the No-opt runs so
/// every DAG has the same S/C and No-opt counts.
PhaseResult RunControllerPhase(Setup& s, const WorkloadConfig& c,
                               double seconds, std::mt19937_64& rng,
                               bool traced) {
  PhaseResult out;
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (traced) recorder = std::make_unique<obs::TraceRecorder>();
  std::unique_ptr<runtime::LanePool> pool;
  if (c.lanes > 1) pool = std::make_unique<runtime::LanePool>(c.lanes);
  runtime::ControllerOptions options;
  options.budget = c.budget;
  options.max_parallel_nodes = c.lanes;
  options.lane_pool = pool.get();
  options.widen_stages = c.lanes > 1;
  runtime::Controller noopt_controller(s.disk.get(), options);
  options.trace = recorder.get();
  const opt::Optimizer optimizer;
  const sim::SimOptions sim_options = SimOptionsFor(c, c.budget);
  std::uint64_t job_id = 0;

  auto run_sc = [&](int dag) {
    const workload::MvWorkload& wl = s.dags[static_cast<std::size_t>(dag)];
    JobRecord job;
    job.dag = dag;
    runtime::ControllerOptions job_options = options;
    job_options.trace_job_id = ++job_id;
    runtime::Controller controller(s.disk.get(), job_options);
    MarkStale(s, wl);
    const double read0 = s.disk->total_read_seconds();
    const double write0 = s.disk->total_write_seconds();
    const double busy0 = pool ? pool->busy_seconds() : 0.0;
    const std::int64_t threads0 = pool ? pool->threads_started() : 0;

    const double t0 = MonotonicSeconds();
    const opt::AlternatingResult planned =
        optimizer.Optimize(wl.graph, c.budget);
    const double t1 = MonotonicSeconds();
    job.report = controller.RunWithBudget(wl, planned.plan, c.budget);
    const double t2 = MonotonicSeconds();

    job.optimize = t1 - t0;
    job.latency = t2 - t0;
    job.exec = job.latency;
    out.timed_seconds += job.latency;
    out.run_seconds += t2 - t1;
    out.disk_read_s += s.disk->total_read_seconds() - read0;
    out.disk_write_s += s.disk->total_write_seconds() - write0;
    if (pool) {
      out.lane_busy_s += pool->busy_seconds() - busy0;
      out.lane_capacity_s += (t2 - t1) * pool->capacity();
      out.lane_threads += pool->threads_started() - threads0;
    }
    // Outside the timed region: oracle, budget check, model error.
    if (!job.report.ok) {
      job.Fail("run failed: " + job.report.error);
    } else {
      if (job.report.peak_memory > job.report.budget) {
        job.Fail(StrFormat("peak memory %lld > budget %lld",
                           static_cast<long long>(job.report.peak_memory),
                           static_cast<long long>(job.report.budget)));
      }
      const std::string mismatch = CheckDag(s, wl);
      if (!mismatch.empty()) job.Fail("output mismatch in MV " + mismatch);
      job.model_error = ModelError(
          sim::SimulateRun(wl.graph, planned.plan, sim_options).makespan,
          job.report.wall_seconds);
    }
    out.jobs.push_back(std::move(job));
  };

  auto run_noopt = [&](int dag) {
    const workload::MvWorkload& wl = s.dags[static_cast<std::size_t>(dag)];
    NoOptRecord rec;
    rec.dag = dag;
    const double t0 = MonotonicSeconds();
    const runtime::RunReport r = noopt_controller.RunUnoptimized(wl);
    const double t1 = MonotonicSeconds();
    if (r.ok) {
      rec.latency = t1 - t0;
      rec.model_error = ModelError(
          sim::SimulateNoOpt(wl.graph, sim_options).makespan, r.wall_seconds);
    } else {
      out.problems.push_back("No-opt run of " + wl.name +
                             " failed: " + r.error);
    }
    out.noopt.push_back(rec);
  };

  // Re-drawn every five rounds: a No-opt schedule fixed for the whole run
  // pins each DAG's baseline next to the same neighbours, which moved the
  // No-opt medians by about 10% from seed to seed.
  std::vector<int> noopt_order;
  const double start = MonotonicSeconds();
  for (int round = 0; MonotonicSeconds() - start < seconds; ++round) {
    if (round % kNumDags == 0) noopt_order = Shuffled(kNumDags, rng);
    auto baseline = [&](int dag) {
      for (const int k : {2 * round, 2 * round + 1}) {
        if (noopt_order[static_cast<std::size_t>(k % kNumDags)] == dag) {
          return true;
        }
      }
      return false;
    };
    for (const int dag : Shuffled(kNumDags, rng)) {
      if (baseline(dag) && round % 2 == 1) run_noopt(dag);
      run_sc(dag);
      if (baseline(dag) && round % 2 == 0) run_noopt(dag);
    }
  }
  std::array<int, kNumDags> noopt_runs{};
  for (const NoOptRecord& r : out.noopt) {
    ++noopt_runs[static_cast<std::size_t>(r.dag)];
  }
  const int most = *std::max_element(noopt_runs.begin(), noopt_runs.end());
  for (const int dag : noopt_order) {
    for (int i = noopt_runs[static_cast<std::size_t>(dag)]; i < most; ++i) {
      run_noopt(dag);
    }
  }
  if (recorder) out.trace.Add(*recorder);
  return out;
}

/// tenant_days: each day is a fresh RefreshService (shared_epoch = day,
/// empty plan cache) receiving one burst of the eight tenant jobs; the
/// day ends when every job resolved. Submission orders form a Latin
/// square over each block of eight days (a seeded permutation, rotated
/// by one per day), so every tenant is submitted at every queue position
/// once per block. After the first five days of a block, one sequential
/// No-opt run of each DAG (seeded order) measures the baseline on the
/// same storage. Stops at the first block boundary after `seconds`.
PhaseResult RunServicePhase(Setup& s, const WorkloadConfig& c,
                            double seconds, std::mt19937_64& rng,
                            bool traced, const std::string& spill_dir) {
  PhaseResult out;
  std::vector<std::shared_ptr<const workload::MvWorkload>> dags;
  for (const workload::MvWorkload& wl : s.dags) {
    dags.push_back(std::make_shared<const workload::MvWorkload>(wl));
  }
  runtime::ControllerOptions noopt_options;
  noopt_options.budget = c.budget;
  runtime::Controller noopt_controller(s.disk.get(), noopt_options);
  const std::vector<int> noopt_order = Shuffled(kNumDags, rng);
  const auto tenants = static_cast<int>(kTenantDag.size());
  const std::vector<int> base_order = Shuffled(tenants, rng);

  const double start = MonotonicSeconds();
  for (int day = 0; day % tenants != 0 || MonotonicSeconds() - start < seconds;
       ++day) {
    std::unique_ptr<obs::TraceRecorder> recorder;
    if (traced) recorder = std::make_unique<obs::TraceRecorder>();
    service::ServiceOptions options;
    options.num_workers = 4;
    options.max_intra_job_lanes = 1;
    options.share_catalog = true;
    options.spill_directory = spill_dir;
    options.global_budget = c.budget;
    options.shared_epoch = static_cast<std::uint64_t>(day);
    options.trace = recorder.get();

    std::vector<int> order = base_order;
    std::rotate(order.begin(), order.begin() + day % tenants, order.end());
    std::vector<JobRecord> jobs(kTenantDag.size());
    std::vector<std::future<service::JobResult>> futures(kTenantDag.size());
    std::vector<double> submitted(kTenantDag.size(), 0.0);
    const double read0 = s.disk->total_read_seconds();
    const double write0 = s.disk->total_write_seconds();
    double day_start = 0.0;
    double day_end = 0.0;
    std::int64_t spill_peak = 0;
    for (const workload::MvWorkload& wl : s.dags) MarkStale(s, wl);
    {
      service::RefreshService svc(s.disk.get(), options);
      day_start = MonotonicSeconds();
      for (const int tenant : order) {
        const auto t = static_cast<std::size_t>(tenant);
        service::RefreshJobSpec spec;
        spec.workload = dags[static_cast<std::size_t>(kTenantDag[t])];
        spec.tenant = "tenant-" + std::to_string(tenant);
        jobs[t].dag = kTenantDag[t];
        submitted[t] = MonotonicSeconds();
        futures[t] = svc.Submit(std::move(spec));
      }
      // Closed loop: the submitting thread polls for resolutions (and
      // samples the spill tier's high-water mark) until the burst is done.
      std::size_t pending = futures.size();
      std::vector<bool> done(futures.size(), false);
      while (pending > 0) {
        for (std::size_t t = 0; t < futures.size(); ++t) {
          if (done[t] || futures[t].wait_for(std::chrono::seconds(0)) !=
                             std::future_status::ready) {
            continue;
          }
          const double resolved = MonotonicSeconds();
          const service::JobResult r = futures[t].get();
          done[t] = true;
          --pending;
          JobRecord& job = jobs[t];
          job.report = r.report;
          job.exec = r.exec_seconds;
          job.queue_wait = r.queue_wait_seconds;
          job.grant_frac = r.requested_budget > 0
                               ? static_cast<double>(r.granted_budget) /
                                     static_cast<double>(r.requested_budget)
                               : 0.0;
          job.returned_frac = r.granted_budget > 0
                                  ? static_cast<double>(r.returned_budget) /
                                        static_cast<double>(r.granted_budget)
                                  : 0.0;
          job.reoptimized = r.reoptimized;
          job.plan_cache_hit = r.plan_cache_hit;
          job.latency = resolved - submitted[t];
          day_end = resolved;
          if (r.status != service::JobStatus::kOk) {
            job.Fail(std::string("job ") + service::JobStatusName(r.status) +
                     ": " + r.report.error);
          } else if (r.report.peak_memory > r.report.budget ||
                     r.report.budget > r.granted_budget) {
            job.Fail(StrFormat(
                "peak memory %lld / run budget %lld / granted %lld",
                static_cast<long long>(r.report.peak_memory),
                static_cast<long long>(r.report.budget),
                static_cast<long long>(r.granted_budget)));
          }
        }
        spill_peak = std::max(spill_peak, svc.shared_catalog().spill_bytes());
        if (pending > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(250));
        }
      }
      const storage::SharedCatalog& shared = svc.shared_catalog();
      out.shared_hits += shared.hits();
      out.shared_misses += shared.misses();
      out.evictions += shared.evictions();
      out.spills += shared.spills();
      out.refills += shared.spill_refills();
      out.rejects += shared.rejects();
      out.lane_threads += svc.lane_pool().threads_started();
      out.lane_busy_s += svc.lane_pool().busy_seconds();
      out.lane_capacity_s +=
          (day_end - day_start) * svc.lane_pool().capacity();
      svc.Shutdown();
    }
    if (recorder) out.trace.Add(*recorder);
    out.timed_seconds += day_end - day_start;
    out.disk_read_s += s.disk->total_read_seconds() - read0;
    out.disk_write_s += s.disk->total_write_seconds() - write0;
    out.spill_peak_sum += static_cast<double>(spill_peak);
    out.spill_peak_max = std::max(out.spill_peak_max, spill_peak);
    ++out.days;

    // Outside the timed region: oracle over every MV, attributed to each
    // job refreshing the mismatching DAG, and every job's row counts; then
    // model error per job.
    std::array<std::string, kNumDags> mismatch;
    for (int d = 0; d < kNumDags; ++d) {
      mismatch[static_cast<std::size_t>(d)] =
          CheckDag(s, s.dags[static_cast<std::size_t>(d)]);
    }
    for (JobRecord& job : jobs) {
      const std::string& m = mismatch[static_cast<std::size_t>(job.dag)];
      if (!m.empty()) job.Fail("output mismatch in MV " + m);
      if (job.failed || !job.report.ok) continue;
      const std::string rows = CheckRowCounts(s, job.report);
      if (!rows.empty()) {
        job.Fail("row count mismatch in MV " + rows);
        continue;
      }
      // The service's plan, recovered from the report: publish order and
      // the outputs it kept in the Memory Catalog.
      const graph::Graph& g = s.dags[static_cast<std::size_t>(job.dag)].graph;
      opt::Plan plan;
      std::vector<graph::NodeId> sequence;
      plan.flags = opt::EmptyFlags(g.num_nodes());
      for (const runtime::NodeRunStats& n : job.report.nodes) {
        const graph::NodeId v = *g.FindByName(n.name);
        sequence.push_back(v);
        plan.flags[static_cast<std::size_t>(v)] = n.output_in_memory;
      }
      plan.order = graph::Order::FromSequence(std::move(sequence));
      job.model_error = ModelError(
          sim::SimulateRun(g, plan, SimOptionsFor(c, job.report.budget))
              .makespan,
          job.report.wall_seconds);
    }
    for (JobRecord& job : jobs) out.jobs.push_back(std::move(job));

    // The day's No-opt baseline job.
    if (day % tenants >= kNumDags) continue;
    const int dag = noopt_order[static_cast<std::size_t>(day % tenants)];
    const workload::MvWorkload& wl = s.dags[static_cast<std::size_t>(dag)];
    NoOptRecord rec;
    rec.dag = dag;
    const double t0 = MonotonicSeconds();
    const runtime::RunReport r = noopt_controller.RunUnoptimized(wl);
    const double t1 = MonotonicSeconds();
    if (r.ok) {
      rec.latency = t1 - t0;
      rec.model_error = ModelError(
          sim::SimulateNoOpt(wl.graph, SimOptionsFor(c, c.budget)).makespan,
          r.wall_seconds);
    } else {
      out.problems.push_back("No-opt run of " + wl.name +
                             " failed: " + r.error);
    }
    out.noopt.push_back(rec);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The configured tail percentile, lowered (to at least the median) when
/// a short run leaves fewer than 10 jobs beyond it.
double TailPercentile(double configured, std::size_t n) {
  double p = configured;
  const auto beyond = [&](double q) {
    return static_cast<double>(n) -
           std::ceil(q / 100.0 * static_cast<double>(n));
  };
  while (p > 50.0 && beyond(p) < 10.0) p -= 1.0;
  return std::max(p, 50.0);
}

template <typename F>
double MeanOver(const std::vector<JobRecord>& jobs, F f) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const JobRecord& j : jobs) {
    if (j.failed) continue;
    sum += f(j);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::vector<double> Latencies(const std::vector<JobRecord>& jobs, int dag) {
  std::vector<double> v;
  for (const JobRecord& j : jobs) {
    if (dag < 0 || j.dag == dag) v.push_back(j.latency);
  }
  return v;
}

std::vector<double> NoOptLatencies(const std::vector<NoOptRecord>& runs,
                                   int dag) {
  std::vector<double> v;
  for (const NoOptRecord& r : runs) {
    if (dag < 0 || r.dag == dag) v.push_back(r.latency);
  }
  return v;
}

std::vector<double> ModelErrors(const std::vector<JobRecord>& jobs, int dag) {
  std::vector<double> v;
  for (const JobRecord& j : jobs) {
    if ((dag < 0 || j.dag == dag) && !std::isnan(j.model_error)) {
      v.push_back(j.model_error);
    }
  }
  return v;
}

/// MV file bytes of every paper DAG currently on disk.
std::int64_t MvBytesOnDisk(const Setup& s) {
  std::int64_t bytes = 0;
  for (const workload::MvWorkload& wl : s.dags) {
    for (graph::NodeId v = 0; v < wl.num_nodes(); ++v) {
      bytes += std::max<std::int64_t>(
          0, s.disk->FileSize(wl.graph.node(v).name));
    }
  }
  return bytes;
}

std::int64_t DagIntermediateBytes(const workload::MvWorkload& wl) {
  std::int64_t bytes = 0;
  for (graph::NodeId v = 0; v < wl.num_nodes(); ++v) {
    bytes += wl.graph.node(v).size_bytes;
  }
  return bytes;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

// ---------------------------------------------------------------------------
// Provenance.
// ---------------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    std::array<unsigned int, 12> regs{};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs.data()), 48);
    brand = brand.substr(0, brand.find('\0'));
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

struct IsaFlags {
  bool avx2 = false;
  bool avx512f = false;
  bool sse42 = false;  // the hardware CRC32C path
};

IsaFlags CpuIsaFlags() {
  IsaFlags flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  flags.avx2 = __builtin_cpu_supports("avx2");
  flags.avx512f = __builtin_cpu_supports("avx512f");
  flags.sse42 = __builtin_cpu_supports("sse4.2");
#endif
  return flags;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(ch));
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

/// Full-precision number; +inf (a failed job's latency) prints as 1e300
/// and NaN (nothing measured) as null, so the output stays valid JSON.
std::string JsonNumber(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e300" : "-1e300";
  return StrFormat("%.17g", v);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // The final contract line needs a number for every metric.
    const double v = std::isnan(m.value) ? 0.0 : m.value;
    out += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
           JsonNumber(v) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--source-sha256") {
      a.source_sha256 = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int Run(const Args& args) {
  const WorkloadConfig c = ConfigFor(args.workload);
  const std::string root = args.work_dir + "/" + c.name;
  std::filesystem::remove_all(root);
  std::vector<std::string> problems;

  // Set-up, repeated when setup_s is reported; the median is setup_s and
  // the last set-up is the one measured.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < setups; ++i) {
    s.reset();
    s = RunSetup(c, args.seed, root + "/warehouse", root + "/reference");
    setup_seconds.push_back(s->seconds);
  }
  std::string self_test_detail;
  const bool self_test_ok = OracleSelfTest(*s, &self_test_detail);
  if (!self_test_ok) {
    problems.push_back(self_test_detail);
  }

  // Working-set property each workload is defined by.
  std::vector<std::int64_t> dag_bytes;
  for (const workload::MvWorkload& wl : s->dags) {
    dag_bytes.push_back(DagIntermediateBytes(wl));
    if (c.name == "paper_par4" && dag_bytes.back() > c.budget) {
      problems.push_back(wl.name + " intermediates exceed the catalog: "
                         "evictions possible");
    }
    if (c.name == "paper_seq" && wl.name.rfind("io", 0) == 0 &&
        dag_bytes.back() <= c.budget) {
      problems.push_back(wl.name + " intermediates fit the catalog");
    }
  }

  // The Controller workloads draw their job order from a fixed stream, so
  // --seed drives only their data: with the order drawn from the seed,
  // the order alone moved whole runs by about 12% (two seeds swapped
  // places when only the order stream changed), more than the data did.
  std::mt19937_64 rng(c.service ? args.seed : kControllerOrderSeed);
  const std::string spill_dir = root + "/spill";
  auto run_phase = [&](double seconds, bool traced) {
    return c.service
               ? RunServicePhase(*s, c, seconds, rng, traced, spill_dir)
               : RunControllerPhase(*s, c, seconds, rng, traced);
  };
  // Untraced measurement; with --trace 1 the run is split between an
  // untraced half (counters, throughput baseline) and a traced half.
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const PhaseResult m = run_phase(untraced_seconds, false);
  const PhaseResult traced =
      args.trace ? run_phase(args.seconds / 2, true) : PhaseResult{};
  for (const PhaseResult* p : {&m, &traced}) {
    problems.insert(problems.end(), p->problems.begin(), p->problems.end());
  }
  const std::int64_t mv_bytes = MvBytesOnDisk(*s);
  const double peak_rss_mb = PeakRssMb();

  // ---- End-to-end ----------------------------------------------------
  const std::vector<double> latencies = Latencies(m.jobs, -1);
  const double tail_pct = TailPercentile(c.tail_percentile, latencies.size());
  std::int64_t failed = 0;
  for (const JobRecord& j : m.jobs) failed += j.failed ? 1 : 0;
  for (const JobRecord& j : traced.jobs) failed += j.failed ? 1 : 0;
  const auto attempted =
      static_cast<std::int64_t>(m.jobs.size() + traced.jobs.size());

  std::vector<Metric> e2e = {
      {"job_p50_s", Median(latencies), "s"},
      {"job_tail_s", Percentile(latencies, tail_pct), "s"},
      {"jobs_per_s", m.Throughput(), "1/s"},
      {"noopt_job_p50_s", Median(NoOptLatencies(m.noopt, -1)), "s"},
      {"stored_mb",
       (static_cast<double>(mv_bytes) + static_cast<double>(m.spill_peak_max)) /
           1e6,
       "MB"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setup_seconds), "s"},
  };

  // ---- Per layer -----------------------------------------------------
  auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  auto mean = [&m](auto f) { return MeanOver(m.jobs, f); };
  auto count = [](std::int64_t n) { return static_cast<double>(n); };
  double sum_latency = 0, sum_attributed = 0, sum_queue = 0;
  double sum_write_block = 0, rows = 0, compute = 0, peak_frac = 0;
  std::int64_t hits = 0, misses = 0, flagged = 0, nodes = 0;
  for (const JobRecord& j : m.jobs) {
    if (j.failed) continue;
    const runtime::RunReport& r = j.report;
    sum_latency += j.latency;
    sum_attributed += j.optimize + r.TotalReadSeconds() +
                      r.TotalComputeSeconds() + r.TotalWriteSeconds();
    sum_queue += j.queue_wait;
    sum_write_block += r.TotalWriteSeconds();
    hits += r.catalog_hits;
    misses += r.catalog_misses;
    for (const runtime::NodeRunStats& n : r.nodes) {
      flagged += n.output_in_memory ? 1 : 0;
      ++nodes;
      if (!n.reused_cross_job) {
        rows += count(static_cast<std::int64_t>(n.output_rows));
        compute += n.compute_seconds;
      }
    }
    peak_frac = std::max(peak_frac, share(count(r.peak_memory),
                                          count(r.budget)));
  }
  const double jobs = count(static_cast<std::int64_t>(m.jobs.size()));
  const double traced_jobs =
      count(std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                          traced.jobs.size())));
  double traced_latency = 0;
  for (const JobRecord& j : traced.jobs) {
    if (!j.failed) traced_latency += j.latency;
  }
  const double days = count(std::max(1, m.days));

  std::vector<std::string> dag_names;
  for (const workload::MvWorkload& wl : s->dags) dag_names.push_back(wl.name);
  double sc_sum = 0, noopt_sum = 0;
  std::vector<Metric> speedups, errors;
  for (int d = 0; d < kNumDags; ++d) {
    const std::string& dag = dag_names[static_cast<std::size_t>(d)];
    const double sc = Median(Latencies(m.jobs, d));
    const double noopt = Median(NoOptLatencies(m.noopt, d));
    sc_sum += sc;
    noopt_sum += noopt;
    speedups.push_back({"opt.speedup_vs_noopt." + dag, noopt / sc, "x"});
    errors.push_back({"opt.model_error_frac." + dag,
                      Median(ModelErrors(m.jobs, d)), "ratio"});
  }
  std::vector<double> noopt_errors;
  for (const NoOptRecord& r : m.noopt) {
    if (!std::isnan(r.model_error)) noopt_errors.push_back(r.model_error);
  }

  std::vector<Metric> layers = {
      {"opt.optimize_s",
       c.service ? traced.trace.plan / traced_jobs
                 : mean([](const JobRecord& j) { return j.optimize; }),
       "s"},
      {"opt.flagged_frac", share(count(flagged), count(nodes)), "ratio"},
      {"opt.speedup_vs_noopt", noopt_sum / sc_sum, "x"},
  };
  layers.insert(layers.end(), speedups.begin(), speedups.end());
  layers.push_back(
      {"opt.model_error_frac", Median(ModelErrors(m.jobs, -1)), "ratio"});
  layers.insert(layers.end(), errors.begin(), errors.end());
  const std::vector<Metric> rest = {
      {"opt.noopt_model_error_frac", Median(noopt_errors), "ratio"},
      {"runtime.read_s",
       mean([](const JobRecord& j) { return j.report.TotalReadSeconds(); }),
       "s"},
      {"runtime.compute_s",
       mean([](const JobRecord& j) { return j.report.TotalComputeSeconds(); }),
       "s"},
      {"runtime.write_block_frac", share(sum_write_block, sum_latency),
       "ratio"},
      {"runtime.unattributed_frac",
       sum_latency > 0 ? 1.0 - sum_attributed / sum_latency : 0.0, "ratio"},
      {"runtime.catalog_hit_rate", share(count(hits), count(hits + misses)),
       "ratio"},
      {"runtime.reserve_denials",
       mean([&](const JobRecord& j) {
         return count(j.report.reserve_denials);
       }),
       "count"},
      {"runtime.inlined_nodes",
       mean([&](const JobRecord& j) { return count(j.report.inlined_nodes); }),
       "count"},
      {"runtime.morsel_tasks",
       mean([&](const JobRecord& j) { return count(j.report.morsel_tasks); }),
       "count"},
      {"runtime.lane_busy_frac", share(m.lane_busy_s, m.lane_capacity_s),
       "ratio"},
      {"runtime.thread_starts_per_job", share(count(m.lane_threads), jobs),
       "count"},
      {"runtime.materialize_busy_s",
       traced.trace.materialize_busy / traced_jobs, "s"},
      {"runtime.publish_s", traced.trace.publish / traced_jobs, "s"},
      {"engine.rows_per_s", share(rows, compute), "rows/s"},
      {"storage.disk_read_s", share(m.disk_read_s, jobs), "s"},
      {"storage.disk_write_s", share(m.disk_write_s, jobs), "s"},
      {"storage.mv_bytes_written", count(mv_bytes), "bytes"},
      {"storage.catalog_peak_frac", peak_frac, "ratio"},
      {"storage.shared_hit_rate",
       share(count(m.shared_hits), count(m.shared_hits + m.shared_misses)),
       "ratio"},
      {"storage.cross_job_bytes_saved",
       mean([&](const JobRecord& j) {
         return count(j.report.cross_job_bytes_saved);
       }),
       "bytes"},
      {"storage.evictions", count(m.evictions) / days, "count"},
      {"storage.spills", count(m.spills) / days, "count"},
      {"storage.spill_bytes", m.spill_peak_sum / days, "bytes"},
      {"storage.refills", count(m.refills) / days, "count"},
      {"storage.rejects", count(m.rejects) / days, "count"},
      {"service.queue_wait_frac", share(sum_queue, sum_latency), "ratio"},
      {"service.budget_wait_frac",
       share(traced.trace.budget_wait, traced_latency), "ratio"},
      {"service.exec_s", mean([](const JobRecord& j) { return j.exec; }),
       "s"},
      {"service.grant_frac",
       mean([](const JobRecord& j) { return j.grant_frac; }), "ratio"},
      {"service.returned_frac",
       mean([](const JobRecord& j) { return j.returned_frac; }), "ratio"},
      {"service.reoptimized_frac",
       mean([](const JobRecord& j) { return j.reoptimized ? 1.0 : 0.0; }),
       "ratio"},
      {"service.plan_cache_hit_rate",
       mean([](const JobRecord& j) { return j.plan_cache_hit ? 1.0 : 0.0; }),
       "ratio"},
      {"obs.trace_overhead_frac",
       m.Throughput() > 0 && traced.Throughput() > 0
           ? 1.0 - traced.Throughput() / m.Throughput()
           : 0.0,
       "ratio"},
      {"obs.trace_events", count(traced.trace.events) / traced_jobs, "count"},
      {"obs.trace_dropped", count(traced.trace.dropped), "count"},
      {"job_fail_frac", share(count(failed), count(attempted)), "ratio"},
  };
  layers.insert(layers.end(), rest.begin(), rest.end());

  // ---- Human-readable summary and the full record --------------------
  std::cout << StrFormat(
      "workload %s  seed %llu  scale %.1f  budget %lld MiB  lanes %d  "
      "jobs %zu (+%zu traced)  failed %lld\n",
      c.name.c_str(), static_cast<unsigned long long>(args.seed), c.scale,
      static_cast<long long>(c.budget / kMiB), c.lanes, m.jobs.size(),
      traced.jobs.size(), static_cast<long long>(failed));
  for (int d = 0; d < kNumDags; ++d) {
    const auto du = static_cast<std::size_t>(d);
    std::cout << StrFormat(
        "  %-9s S/C p50 %.4fs  No-opt p50 %.4fs  speedup %.3fx  "
        "model error %.3f  intermediates %.1f MB\n",
        dag_names[du].c_str(), Median(Latencies(m.jobs, d)),
        Median(NoOptLatencies(m.noopt, d)), speedups[du].value,
        errors[du].value, static_cast<double>(dag_bytes[du]) / 1e6);
  }
  for (const JobRecord& j : m.jobs) {
    if (j.failed) {
      std::cout << "  FAILED job ("
                << dag_names[static_cast<std::size_t>(j.dag)]
                << "): " << j.failure << "\n";
    }
  }
  for (const std::string& p : problems) std::cout << "  PROBLEM: " << p << "\n";
  std::cout << "  " << self_test_detail << "\n";

  std::string record = "{";
  record += "\"workload\": " + JsonString(c.name);
  record += ", \"seed\": " + std::to_string(args.seed);
  record += ", \"held_out_seed\": " +
            std::string(args.seed == kHeldOutSeed ? "true" : "false");
  record += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  record += ", \"seconds\": " + JsonNumber(args.seconds);
  record += ", \"scale\": " + JsonNumber(c.scale);
  record += ", \"budget_bytes\": " + std::to_string(c.budget);
  record += ", \"lanes\": " + std::to_string(c.lanes);
  record += StrFormat(
      ", \"disk\": {\"throttle\": %s, \"channels\": %d, \"read_bw\": %s, "
      "\"write_bw\": %s, \"latency\": %s}",
      c.disk.throttle ? "true" : "false", c.disk.channels,
      JsonNumber(c.disk.read_bw).c_str(), JsonNumber(c.disk.write_bw).c_str(),
      JsonNumber(c.disk.latency).c_str());
  record += ", \"tail_percentile\": " + JsonNumber(tail_pct);
  record += ", \"jobs\": " + std::to_string(m.jobs.size());
  record += ", \"traced_jobs\": " + std::to_string(traced.jobs.size());
  record += ", \"noopt_jobs\": " + std::to_string(m.noopt.size());
  record += ", \"days\": " + std::to_string(m.days);
  record += ", \"job_latencies_s\": [";
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    record += StrFormat("%s[%d, %s]", i ? ", " : "", m.jobs[i].dag,
                        JsonNumber(m.jobs[i].latency).c_str());
  }
  record += "]";
  record += ", \"noopt_latencies_s\": [";
  for (std::size_t i = 0; i < m.noopt.size(); ++i) {
    record += StrFormat("%s[%d, %s]", i ? ", " : "", m.noopt[i].dag,
                        JsonNumber(m.noopt[i].latency).c_str());
  }
  record += "]";
  record += ", \"setup_seconds\": [";
  for (std::size_t i = 0; i < setup_seconds.size(); ++i) {
    record += (i ? ", " : "") + JsonNumber(setup_seconds[i]);
  }
  record += "]";
  const IsaFlags isa = CpuIsaFlags();
  record += ", \"machine\": {\"nproc\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"cpu\": " + JsonString(CpuModel()) +
            ", \"avx2\": " + (isa.avx2 ? "true" : "false") +
            ", \"avx512f\": " + (isa.avx512f ? "true" : "false") +
            ", \"sse4_2_crc32\": " + (isa.sse42 ? "true" : "false") +
            ", \"compiler\": " + JsonString(kCompiler) +
            ", \"build_type\": " + JsonString(SC_BENCH_BUILD_TYPE) + "}";
  record += ", \"git_sha\": " + JsonString(args.git_sha);
  record += ", \"source_sha256\": " + JsonString(args.source_sha256);
  record += ", \"per_dag\": {";
  for (int d = 0; d < kNumDags; ++d) {
    const auto du = static_cast<std::size_t>(d);
    record += (d ? ", " : "") + JsonString(dag_names[du]) +
              ": {\"sc_p50_s\": " + JsonNumber(Median(Latencies(m.jobs, d))) +
              ", \"noopt_p50_s\": " +
              JsonNumber(Median(NoOptLatencies(m.noopt, d))) +
              ", \"speedup_vs_noopt\": " + JsonNumber(speedups[du].value) +
              ", \"model_error_frac\": " + JsonNumber(errors[du].value) +
              ", \"intermediate_bytes\": " +
              std::to_string(dag_bytes[du]) + "}";
  }
  record += "}";
  if (args.trace) {
    const double tj = traced_jobs;
    record += StrFormat(
        ", \"trace_split_per_job_s\": {\"queued\": %s, \"budget_wait\": %s, "
        "\"execute\": %s, \"publish\": %s, \"plan\": %s, \"node\": %s, "
        "\"run\": %s}",
        JsonNumber(traced.trace.queued / tj).c_str(),
        JsonNumber(traced.trace.budget_wait / tj).c_str(),
        JsonNumber(traced.trace.execute / tj).c_str(),
        JsonNumber(traced.trace.publish / tj).c_str(),
        JsonNumber(traced.trace.plan / tj).c_str(),
        JsonNumber(traced.trace.node_spans / tj).c_str(),
        JsonNumber(traced.run_seconds / tj).c_str());
    record += ", \"trace_track_busy_per_job_s\": {";
    bool first = true;
    for (const auto& [cls, busy] : traced.trace.track_busy) {
      record += (first ? "" : ", ") + JsonString(cls) + ": " +
                JsonNumber(busy / tj);
      first = false;
    }
    record += "}";
  }
  record += ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    record += (i ? ", " : "") + JsonString(problems[i]);
  }
  record += "]";
  record += ", \"oracle_self_test\": " + JsonString(self_test_detail);
  record += ", \"end_to_end\": " + MetricsJson(e2e);
  record += ", \"per_layer\": " + MetricsJson(layers) + "}";
  std::cout << "RECORD " << record << "\n";

  std::filesystem::remove_all(root);
  s.reset();

  const bool correct = failed == 0 && problems.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(args.trace ? layers : e2e)
            << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    return Run(args);
  } catch (const std::exception& e) {
    std::cerr << "refresh_bench: " << e.what() << "\n";
    return 1;
  }
}
