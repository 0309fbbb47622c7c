// Query-path microbenchmark: repeated-SOLVE throughput cold vs incremental
// vs cached, and SOLVE latency under concurrent OBSERVE load. Emits
// machine-readable BENCH_solve.json (default: results/BENCH_solve.json) so
// future PRs can track the serving-perf trajectory, plus a human summary.
//
//   ./micro_solve [--n=20000] [--dim=8] [--reps=25] [--cold_reps=3]
//                 [--out=results] [--min-cold-speedup=0]
//                 [--min-parallel-cold-speedup=0]
//
// Sections:
//   solve_cold       full SFDM-2 post-processing from scratch (the memo is
//                    emptied by restoring a fresh copy before every rep)
//   solve_warm       repeated Solve() on the same unchanged sink — the
//                    per-rung incremental memo answers, no SolveCache
//   solve_cached     repeated Solve() through a version-keyed SolveCache —
//                    the serving hot path (a memoized copy per query)
//   cold_grid        cache-miss Solve() per registered streaming kind ×
//                    n {4096, 16384} × k {10, 20} on dim-25 Euclidean
//                    blobs, plus one SFDM-2 k=50 cell on simulated Census
//                    Sex+Age (14 groups, Manhattan) — the many-group,
//                    large-k regime where the rung fan-out pays — under
//                    every reachable kernel target × process fan-out
//                    width {1, 2, 4}: the offline Solve-path routing's
//                    SIMD × rung-parallel speedup surface
//   under_ingest     SOLVE latency against a live SessionManager session
//                    while a writer floods OBSERVE into another session
//
// --min-cold-speedup=X (release gate): exit non-zero unless, at the
// sfdm2 / blobs / n=16384 / k=20 / width-1 cell, the best non-scalar
// target's cold Solve is at least X× faster than the scalar target's.
// Before the kernel-routing PR the offline Solve loops *were* scalar
// regardless of target, so the scalar column doubles as the prior-release
// baseline. Vacuously passes (with a warning) when only the scalar target
// is available.
//
// --min-parallel-cold-speedup=X (release gate): exit non-zero unless, at
// the same sfdm2 / n=16384 / k=20 cell, some target's width-4 cold Solve
// is at least X× faster than that target's own width-1 run (the
// rung-parallel scaling gate; solutions are bit-identical either way).
//
// Both gates read the median speedup of 11 interleaved pairs of cold
// solves per target (order alternating; see bench_common.h), not the
// grid's means: host contention swings single shots of these cells by
// more than the bounds. BENCH_solve.json records each gate's median,
// quartiles and pair count under "gates".

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sfdm2.h"
#include "core/sink_snapshot.h"
#include "core/solve_cache.h"
#include "data/simulated.h"
#include "data/synthetic.h"
#include "geo/simd/kernel_dispatch.h"
#include "obs/histogram.h"
#include "harness/registry.h"
#include "service/session_manager.h"
#include "util/argparse.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fdm {
namespace {

/// One cell of the cold-SOLVE grid.
struct ColdCell {
  std::string kind;
  std::string data;  // "blobs" or "census_sex_age"
  size_t n = 0;
  int k = 0;
  std::string target;
  int width = 1;
  double cold_ms = 0.0;
  // Both filled after the sweep: vs the scalar target at the same width,
  // and vs this target's own width-1 run.
  double speedup_vs_scalar = 0.0;
  double parallel_speedup = 0.0;
};

/// The snapshot of a `kind` sink that has ingested all of `ds`; empty if
/// the kind cannot run the cell (creation or snapshot error).
std::string IngestedSnapshot(AlgorithmKind kind, const Dataset& ds,
                             const std::vector<int>& quotas) {
  const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
  if (entry == nullptr || !entry->streaming) return {};
  RunConfig config;
  config.algorithm = kind;
  config.constraint.quotas = quotas;
  config.bounds = EstimateDistanceBounds(ds, 1000, 1);
  config.num_shards = 3;
  config.window_size = 0;

  auto sink = entry->make_sink(ds, config);
  if (!sink.ok()) return {};
  std::vector<StreamPoint> batch;
  batch.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) batch.push_back(ds.At(i));
  (*sink)->ObserveBatch(batch);
  SnapshotWriter writer;
  if (!(*sink)->Snapshot(writer).ok()) return {};
  return writer.Serialize();
}

/// Seconds of one cache-miss Solve() of the sink in `bytes` (restored
/// fresh, so its memo is empty) under kernel `target` at fan-out `width`;
/// negative on a restore or solve error.
double TimeColdSolve(const std::string& bytes, std::string_view target,
                     int width) {
  auto reader = SnapshotReader::FromBytes(bytes);
  if (!reader.ok()) return -1.0;
  auto fresh = RestoreSink(*reader);
  if (!fresh.ok()) return -1.0;
  FDM_CHECK(simd::internal::ForceKernelTargetForTest(target));
  SetFanOutWidth(width);
  Timer timer;
  const bool solved = (*fresh)->Solve().ok();
  const double sec = timer.ElapsedSeconds();
  SetFanOutWidth(1);
  simd::internal::ForceKernelTargetForTest("");
  return solved ? sec : -1.0;
}

/// Cache-miss Solve() cost per kernel target and width for one (kind,
/// data, k) cell: ingest once, snapshot, then per target and width restore
/// a fresh sink and time Solve() alone. Returns false if the kind cannot
/// run the cell — the grid skips it.
bool TimeColdCell(AlgorithmKind kind, const Dataset& ds,
                  const std::string& data, const std::vector<int>& quotas,
                  int cold_reps, std::vector<ColdCell>& cells) {
  const std::string bytes = IngestedSnapshot(kind, ds, quotas);
  if (bytes.empty()) return false;
  int k = 0;
  for (const int quota : quotas) k += quota;
  for (const std::string_view target : simd::AvailableKernelTargets()) {
    for (const int width : {1, 2, 4}) {
      double total = 0.0;
      for (int r = 0; r < cold_reps; ++r) {
        const double sec = TimeColdSolve(bytes, target, width);
        if (sec < 0.0) return false;
        total += sec;
      }
      ColdCell cell;
      cell.kind = std::string(AlgorithmName(kind));
      cell.data = data;
      cell.n = ds.size();
      cell.k = k;
      cell.target = std::string(target);
      cell.width = width;
      cell.cold_ms = total * 1000.0 / cold_reps;
      cells.push_back(cell);
    }
  }
  return true;
}

/// A release gate's measurement: the best target's interleaved-pair
/// speedup at the gate cell.
struct GateResult {
  std::string target;
  bench::PairedRatio speedup;  // ratio = slow-side seconds / fast-side
};

/// The cold grid's blobs input of size `n` (the gates use n = 16384).
Dataset GridBlobs(size_t n) {
  BlobsOptions blobs;
  blobs.n = n;
  blobs.dim = 25;  // the paper's Adult-scale dimensionality
  blobs.num_groups = 2;
  blobs.seed = 7 + n;
  return MakeBlobs(blobs);
}

/// For each target in `targets`, 11 interleaved pairs of cold solves of
/// `bytes` — (target, fast_width) against (slow_target or the target
/// itself, slow_width) — keeping the target with the best median speedup.
std::optional<GateResult> MeasureGate(const std::string& bytes,
                                      const std::vector<std::string>& targets,
                                      int fast_width,
                                      const std::string& slow_target,
                                      int slow_width) {
  std::optional<GateResult> best;
  for (const std::string& target : targets) {
    const std::string& slow = slow_target.empty() ? target : slow_target;
    const std::optional<bench::PairedRatio> pairs =
        bench::MeasureInterleavedPairs(
            11,
            [&](int) { return TimeColdSolve(bytes, target, fast_width); },
            [&](int) { return TimeColdSolve(bytes, slow, slow_width); });
    if (!pairs.has_value()) return std::nullopt;
    std::printf("  %-7s median %.2fx (quartiles %.2fx .. %.2fx, %d pairs)\n",
                target.c_str(), pairs->median, pairs->q1, pairs->q3,
                pairs->pairs);
    if (!best.has_value() || pairs->median > best->speedup.median) {
      best = GateResult{target, *pairs};
    }
  }
  return best;
}

std::string GateJson(const std::optional<GateResult>& gate, double bound) {
  if (!gate.has_value()) return "null";
  return "{\"bound\": " + std::to_string(bound) + ", \"target\": \"" +
         gate->target + "\", \"median\": " +
         std::to_string(gate->speedup.median) +
         ", \"q1\": " + std::to_string(gate->speedup.q1) +
         ", \"q3\": " + std::to_string(gate->speedup.q3) +
         ", \"pairs\": " + std::to_string(gate->speedup.pairs) + "}";
}

struct SolveBenchResult {
  size_t n = 0;
  size_t dim = 0;
  int reps = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double cached_ms = 0.0;
  double cached_speedup_vs_cold = 0.0;
  // under concurrent ingest (percentiles from the shared log-bucketed
  // histogram — p50/p99/max are bucket upper bounds, i.e. conservative)
  double solve_mean_ms = 0.0;
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
  double solve_max_ms = 0.0;
  double solves_per_sec = 0.0;
  double ingest_points_per_sec = 0.0;
};

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  SolveBenchResult result;
  result.n = static_cast<size_t>(args.GetInt("n", 20000));
  result.dim = static_cast<size_t>(args.GetInt("dim", 8));
  result.reps = static_cast<int>(args.GetInt("reps", 25));
  const int cold_reps = static_cast<int>(args.GetInt("cold_reps", 3));
  const double min_cold_speedup = args.GetDouble("min-cold-speedup", 0.0);
  const double min_parallel_cold_speedup =
      args.GetDouble("min-parallel-cold-speedup", 0.0);
  const std::string out_dir = args.GetString("out", "results");

  BlobsOptions data_options;
  data_options.n = result.n;
  data_options.dim = result.dim;
  data_options.num_groups = 2;
  data_options.seed = 1;
  const Dataset ds = MakeBlobs(data_options);
  const DistanceBounds bounds = EstimateDistanceBounds(ds, 1000, 1);

  FairnessConstraint constraint;
  constraint.quotas = {10, 10};
  StreamingOptions streaming;
  streaming.d_min = bounds.min;
  streaming.d_max = bounds.max;

  std::printf("=== micro_solve: incremental query path ===\n");
  std::printf("n=%zu dim=%zu reps=%d quotas=10,10\n\n", result.n, result.dim,
              result.reps);

  auto sink =
      Sfdm2::Create(constraint, ds.dim(), ds.metric_kind(), streaming);
  if (!sink.ok()) {
    std::fprintf(stderr, "create: %s\n", sink.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < ds.size(); ++i) sink->Observe(ds.At(i));

  // --- Cold: fresh post-processing every rep --------------------------
  // Restoring from a snapshot yields a sink with an empty per-rung memo,
  // so each timed Solve() pays the full Algorithm 3 lines 9–19.
  {
    SnapshotWriter writer;
    if (!sink->Snapshot(writer).ok()) return 1;
    const std::string bytes = writer.Serialize();
    double total = 0.0;
    for (int r = 0; r < result.reps; ++r) {
      auto reader = SnapshotReader::FromBytes(bytes);
      if (!reader.ok()) return 1;
      auto fresh = Sfdm2::Restore(*reader);
      if (!fresh.ok()) return 1;
      Timer timer;
      if (!fresh->Solve().ok()) return 1;
      total += timer.ElapsedSeconds();
    }
    result.cold_ms = total * 1000.0 / result.reps;
    std::printf("solve cold:      %10.3f ms/solve (from-scratch)\n",
                result.cold_ms);
  }

  // --- Warm: the per-rung incremental memo ----------------------------
  {
    (void)sink->Solve();  // populate the memo once
    Timer timer;
    for (int r = 0; r < result.reps; ++r) {
      if (!sink->Solve().ok()) return 1;
    }
    result.warm_ms = timer.ElapsedSeconds() * 1000.0 / result.reps;
    std::printf("solve warm:      %10.3f ms/solve (per-rung memo)\n",
                result.warm_ms);
  }

  // --- Cached: the serving hot path -----------------------------------
  {
    SolveCache cache;
    const uint64_t version = sink->StateVersion();
    (void)cache.GetOrCompute(version, [&] { return sink->Solve(); });
    Timer timer;
    for (int r = 0; r < result.reps; ++r) {
      if (!cache.GetOrCompute(version, [&] { return sink->Solve(); }).ok()) {
        return 1;
      }
    }
    result.cached_ms = timer.ElapsedSeconds() * 1000.0 / result.reps;
    // Guard the ratio against timer granularity: reps of cache hits can
    // measure 0.0 ms, which means maximal speedup, not zero.
    result.cached_speedup_vs_cold =
        result.cold_ms / std::max(result.cached_ms, 1e-6);
    std::printf(
        "solve cached:    %10.3f ms/solve (SolveCache hit)  %.0fx vs cold\n",
        result.cached_ms, result.cached_speedup_vs_cold);
  }

  // --- Cold-SOLVE grid across kinds, sizes, and kernel targets --------
  std::vector<ColdCell> cold_cells;
  {
    std::printf("\ncold grid (dim 25, euclidean, %d reps/cell):\n",
                cold_reps);
    for (const AlgorithmKind kind : AlgorithmRegistry::Instance().Kinds()) {
      const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(kind);
      if (entry == nullptr || !entry->streaming) continue;
      for (const size_t grid_n : {size_t{4096}, size_t{16384}}) {
        const Dataset grid_ds = GridBlobs(grid_n);
        for (const std::vector<int>& quotas :
             {std::vector<int>{5, 5}, std::vector<int>{10, 10}}) {
          TimeColdCell(kind, grid_ds, "blobs", quotas, cold_reps,
                       cold_cells);
        }
      }
    }
    // The crossover cell: many groups and a large k give every rung enough
    // post-processing that the rung fan-out pays for its dispatch.
    const Dataset census =
        SimulatedCensus(CensusGrouping::kSexAge, /*seed=*/1, 16384);
    const auto census_quotas = EqualRepresentation(50, census.num_groups());
    FDM_CHECK(census_quotas.ok());
    TimeColdCell(AlgorithmKind::kSfdm2, census, "census_sex_age",
                 census_quotas->quotas, cold_reps, cold_cells);
    // Speedups: vs the scalar column of the same (kind, data, n, k, width)
    // cell, and vs the same target's width-1 column.
    for (ColdCell& c : cold_cells) {
      for (const ColdCell& s : cold_cells) {
        if (s.kind != c.kind || s.data != c.data || s.n != c.n ||
            s.k != c.k) {
          continue;
        }
        if (s.target == "scalar" && s.width == c.width) {
          c.speedup_vs_scalar = c.cold_ms > 0.0 ? s.cold_ms / c.cold_ms : 0.0;
        }
        if (s.target == c.target && s.width == 1) {
          c.parallel_speedup = c.cold_ms > 0.0 ? s.cold_ms / c.cold_ms : 0.0;
        }
      }
    }
    std::printf("%-14s %-14s %6s %3s %-7s %5s %12s %9s %9s\n", "kind",
                "data", "n", "k", "target", "width", "cold ms", "vs scal",
                "vs w=1");
    for (const ColdCell& c : cold_cells) {
      std::printf("%-14s %-14s %6zu %3d %-7s %5d %12.3f %8.2fx %8.2fx\n",
                  c.kind.c_str(), c.data.c_str(), c.n, c.k, c.target.c_str(),
                  c.width, c.cold_ms, c.speedup_vs_scalar,
                  c.parallel_speedup);
    }
  }

  // --- SOLVE latency under concurrent OBSERVE load --------------------
  {
    const std::string scratch =
        (std::filesystem::temp_directory_path() / "fdm_micro_solve").string();
    std::filesystem::remove_all(scratch);
    SessionManagerOptions options;
    options.root_dir = scratch;
    auto manager = SessionManager::Create(options);
    if (!manager.ok()) return 1;
    const std::string spec =
        "algo=sfdm2 dim=" + std::to_string(ds.dim()) +
        " quotas=10,10 dmin=" + std::to_string(bounds.min) +
        " dmax=" + std::to_string(bounds.max);
    if (!(*manager)->CreateSession("hot", spec).ok()) return 1;
    if (!(*manager)->CreateSession("ingest", spec).ok()) return 1;
    for (size_t i = 0; i < ds.size() / 2; ++i) {
      if (!(*manager)->Observe("hot", ds.At(i)).ok()) return 1;
    }
    (void)(*manager)->Solve("hot");  // warm the cache

    std::atomic<bool> stop{false};
    std::atomic<size_t> ingested{0};
    std::thread writer([&] {
      // Flood a different session: its exclusive lock must not serialize
      // against the hot session's shared-lock query path.
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if ((*manager)->Observe("ingest", ds.At(i % ds.size())).ok()) {
          ingested.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
    obs::HistogramSnapshot latency;
    Timer wall;
    while (wall.ElapsedSeconds() < 1.0) {
      Timer one;
      if (!(*manager)->Solve("hot").ok()) return 1;
      latency.Record(static_cast<uint64_t>(one.ElapsedNanos()));
    }
    const double elapsed = wall.ElapsedSeconds();
    stop.store(true, std::memory_order_relaxed);
    writer.join();

    constexpr double kNsToMs = 1e-6;
    result.solve_mean_ms = latency.Mean() * kNsToMs;
    result.solve_p50_ms =
        static_cast<double>(latency.Percentile(0.5)) * kNsToMs;
    result.solve_p99_ms =
        static_cast<double>(latency.Percentile(0.99)) * kNsToMs;
    result.solve_max_ms = static_cast<double>(latency.Max()) * kNsToMs;
    result.solves_per_sec = static_cast<double>(latency.count) / elapsed;
    result.ingest_points_per_sec =
        static_cast<double>(ingested.load()) / elapsed;
    std::printf(
        "under ingest:    %10.0f solves/sec (mean %.3f ms, p50 %.3f ms, "
        "p99 %.3f ms, max %.3f ms) while %0.f pts/sec ingest\n",
        result.solves_per_sec, result.solve_mean_ms, result.solve_p50_ms,
        result.solve_p99_ms, result.solve_max_ms,
        result.ingest_points_per_sec);
    std::filesystem::remove_all(scratch);
  }

  // --- Release gates: interleaved pairs at the gate cell -------------
  std::optional<GateResult> cold_gate;
  std::optional<GateResult> parallel_gate;
  const std::vector<std::string_view> available =
      simd::AvailableKernelTargets();
  const bool cold_gate_runs = min_cold_speedup > 0.0 && available.size() >= 2;
  const bool parallel_gate_runs = min_parallel_cold_speedup > 0.0 &&
                                  std::thread::hardware_concurrency() >= 4;
  if (cold_gate_runs || parallel_gate_runs) {
    const std::string bytes = IngestedSnapshot(
        AlgorithmKind::kSfdm2, GridBlobs(16384), std::vector<int>{10, 10});
    if (bytes.empty()) return 1;
    std::vector<std::string> all_targets;
    std::vector<std::string> simd_targets;
    for (const std::string_view target : available) {
      all_targets.emplace_back(target);
      if (target != "scalar") simd_targets.emplace_back(target);
    }
    if (cold_gate_runs) {
      std::printf("\ncold-solve gate, SIMD vs scalar at width 1 "
                  "(sfdm2 / n 16384 / k 20):\n");
      cold_gate = MeasureGate(bytes, simd_targets, 1, "scalar", 1);
      if (!cold_gate.has_value()) return 1;
    }
    if (parallel_gate_runs) {
      std::printf("\nparallel cold-solve gate, width 4 vs width 1 "
                  "(sfdm2 / n 16384 / k 20):\n");
      parallel_gate = MeasureGate(bytes, all_targets, 4, "", 1);
      if (!parallel_gate.has_value()) return 1;
    }
  }

  // --- BENCH_solve.json -----------------------------------------------
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/BENCH_solve.json";
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"kernel\": \"" << std::string(simd::ActiveKernelName())
       << "\",\n"
       << "  \"n\": " << result.n << ",\n"
       << "  \"dim\": " << result.dim << ",\n"
       << "  \"reps\": " << result.reps << ",\n"
       << "  \"repeated_solve\": {\"cold_ms\": " << result.cold_ms
       << ", \"warm_ms\": " << result.warm_ms
       << ", \"cached_ms\": " << result.cached_ms
       << ", \"cached_speedup_vs_cold\": " << result.cached_speedup_vs_cold
       << "},\n"
       << "  \"cold_grid\": [\n";
  for (size_t i = 0; i < cold_cells.size(); ++i) {
    const ColdCell& c = cold_cells[i];
    json << "    {\"kind\": \"" << c.kind << "\", \"data\": \"" << c.data
         << "\", \"n\": " << c.n
         << ", \"k\": " << c.k << ", \"target\": \"" << c.target
         << "\", \"width\": " << c.width
         << ", \"cold_ms\": " << c.cold_ms
         << ", \"speedup_vs_scalar\": " << c.speedup_vs_scalar
         << ", \"parallel_speedup\": " << c.parallel_speedup << "}"
         << (i + 1 < cold_cells.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"under_ingest\": {\"solves_per_sec\": " << result.solves_per_sec
       << ", \"mean_ms\": " << result.solve_mean_ms
       << ", \"p50_ms\": " << result.solve_p50_ms
       << ", \"p99_ms\": " << result.solve_p99_ms
       << ", \"max_ms\": " << result.solve_max_ms
       << ", \"ingest_points_per_sec\": " << result.ingest_points_per_sec
       << "},\n"
       << "  \"gates\": {\"cold_speedup\": "
       << GateJson(cold_gate, min_cold_speedup)
       << ", \"parallel_cold_speedup\": "
       << GateJson(parallel_gate, min_parallel_cold_speedup) << "}\n}\n";
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  // The acceptance gate of the incremental query path: a cached SOLVE must
  // be at least an order of magnitude cheaper than a cold one.
  if (result.cached_speedup_vs_cold < 10.0) {
    std::fprintf(stderr,
                 "FAIL: cached speedup %.1fx < 10x over cold solves\n",
                 result.cached_speedup_vs_cold);
    return 1;
  }
  // The acceptance gate of the offline kernel routing: a cache-miss SOLVE
  // at the paper-scale cell must beat the (pre-routing-equivalent) scalar
  // target by the requested factor on some SIMD target.
  if (min_cold_speedup > 0.0) {
    if (!cold_gate.has_value()) {
      std::fprintf(stderr,
                   "WARN: no SIMD target available on this machine; "
                   "--min-cold-speedup check skipped\n");
      return 0;
    }
    if (cold_gate->speedup.median < min_cold_speedup) {
      std::fprintf(stderr,
                   "FAIL: best cold-SOLVE speedup (%s) is a median %.2fx "
                   "scalar at sfdm2 / n 16384 / k 20, below the %.2fx gate\n",
                   cold_gate->target.c_str(), cold_gate->speedup.median,
                   min_cold_speedup);
      return 1;
    }
    std::printf("cold-solve gate passed: %s is a median %.2fx scalar at "
                "sfdm2 / n 16384 / k 20 (>= %.2fx)\n",
                cold_gate->target.c_str(), cold_gate->speedup.median,
                min_cold_speedup);
  }
  // The acceptance gate of the rung-parallel query path: width 4
  // must beat the same target's sequential cold SOLVE by the requested
  // factor at the paper-scale cell.
  if (min_parallel_cold_speedup > 0.0) {
    if (!parallel_gate.has_value()) {
      std::fprintf(stderr,
                   "WARN: fewer than 4 hardware threads; "
                   "--min-parallel-cold-speedup check skipped\n");
      return 0;
    }
    if (parallel_gate->speedup.median < min_parallel_cold_speedup) {
      std::fprintf(stderr,
                   "FAIL: best width-4 cold-SOLVE speedup (%s) is a median "
                   "%.2fx its width-1 run at sfdm2 / n 16384 / k 20, below "
                   "the %.2fx gate\n",
                   parallel_gate->target.c_str(),
                   parallel_gate->speedup.median, min_parallel_cold_speedup);
      return 1;
    }
    std::printf("parallel cold-solve gate passed: %s at width 4 is a median "
                "%.2fx its width-1 run at sfdm2 / n 16384 / k 20 "
                "(>= %.2fx)\n",
                parallel_gate->target.c_str(), parallel_gate->speedup.median,
                min_parallel_cold_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace fdm

int main(int argc, char** argv) { return fdm::Main(argc, argv); }
