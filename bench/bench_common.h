#ifndef FDM_BENCH_BENCH_COMMON_H_
#define FDM_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/simulated.h"
#include "harness/experiment.h"
#include "harness/registry.h"
#include "harness/table.h"
#include "util/argparse.h"

namespace fdm::bench {

/// Every table/figure binary runs argument-free at laptop scale and accepts:
///   --runs=N      repetitions averaged per cell (paper: 10; default 3)
///   --scale=F     multiplier on the default dataset sizes (default < 1
///                 where the paper-scale dataset is large)
///   --full        paper-scale sizes and 10 runs
///   --out=DIR     CSV output directory (default "results")
struct BenchOptions {
  int runs = 3;
  double scale = 1.0;
  bool full = false;
  std::string out_dir = "results";
  uint64_t seed = 1;

  static BenchOptions Parse(int argc, char** argv) {
    const ArgParser args(argc, argv);
    BenchOptions o;
    o.full = args.GetBool("full", false);
    o.runs = static_cast<int>(args.GetInt("runs", o.full ? 10 : 3));
    o.scale = args.GetDouble("scale", 1.0);
    o.out_dir = args.GetString("out", "results");
    o.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
    return o;
  }

  /// Effective size: `full` restores the paper's n; otherwise the bench's
  /// laptop default times --scale.
  size_t Size(size_t laptop_default, size_t paper_size) const {
    const size_t base = full ? paper_size : laptop_default;
    const double scaled = static_cast<double>(base) * scale;
    return scaled < 2 ? 2 : static_cast<size_t>(scaled);
  }
};

/// One dataset × grouping cell of the evaluation grid (Table I rows).
struct DatasetCase {
  std::string dataset_label;
  std::string group_label;
  Dataset dataset;
  double epsilon;  // paper: 0.1 everywhere except Lyrics (0.05)
};

/// The Table II grid: every dataset × grouping combination of the paper.
/// Laptop defaults keep each dataset at a size the full table can sweep in
/// minutes; `--full` restores the paper's sizes.
inline std::vector<DatasetCase> TableTwoGrid(const BenchOptions& o) {
  std::vector<DatasetCase> grid;
  const size_t adult_n = o.Size(48842, 48842);     // Adult is already small
  const size_t celeba_n = o.Size(40000, 202599);
  const size_t census_n = o.Size(40000, kCensusFullSize);
  const size_t lyrics_n = o.Size(25000, 122448);
  grid.push_back({"Adult", "Sex",
                  SimulatedAdult(AdultGrouping::kSex, o.seed, adult_n), 0.1});
  grid.push_back({"Adult", "Race",
                  SimulatedAdult(AdultGrouping::kRace, o.seed, adult_n), 0.1});
  grid.push_back({"Adult", "Sex+Race",
                  SimulatedAdult(AdultGrouping::kSexRace, o.seed, adult_n),
                  0.1});
  grid.push_back({"CelebA", "Sex",
                  SimulatedCelebA(CelebAGrouping::kSex, o.seed, celeba_n),
                  0.1});
  grid.push_back({"CelebA", "Age",
                  SimulatedCelebA(CelebAGrouping::kAge, o.seed, celeba_n),
                  0.1});
  grid.push_back({"CelebA", "Sex+Age",
                  SimulatedCelebA(CelebAGrouping::kSexAge, o.seed, celeba_n),
                  0.1});
  grid.push_back({"Census", "Sex",
                  SimulatedCensus(CensusGrouping::kSex, o.seed, census_n),
                  0.1});
  grid.push_back({"Census", "Age",
                  SimulatedCensus(CensusGrouping::kAge, o.seed, census_n),
                  0.1});
  grid.push_back({"Census", "Sex+Age",
                  SimulatedCensus(CensusGrouping::kSexAge, o.seed, census_n),
                  0.1});
  grid.push_back({"Lyrics", "Genre", SimulatedLyrics(o.seed, lyrics_n), 0.05});
  return grid;
}

/// The Fig. 6/7 panels: eight dataset × grouping combinations swept over k.
inline std::vector<DatasetCase> KSweepPanels(const BenchOptions& o) {
  std::vector<DatasetCase> panels;
  const size_t adult_n = o.Size(20000, 48842);
  const size_t celeba_n = o.Size(20000, 202599);
  const size_t census_n = o.Size(20000, kCensusFullSize);
  const size_t lyrics_n = o.Size(15000, 122448);
  panels.push_back({"Adult", "Sex (m=2)",
                    SimulatedAdult(AdultGrouping::kSex, o.seed, adult_n),
                    0.1});
  panels.push_back({"CelebA", "Age (m=2)",
                    SimulatedCelebA(CelebAGrouping::kAge, o.seed, celeba_n),
                    0.1});
  panels.push_back({"CelebA", "Sex (m=2)",
                    SimulatedCelebA(CelebAGrouping::kSex, o.seed, celeba_n),
                    0.1});
  panels.push_back({"Census", "Sex (m=2)",
                    SimulatedCensus(CensusGrouping::kSex, o.seed, census_n),
                    0.1});
  panels.push_back({"Adult", "Race (m=5)",
                    SimulatedAdult(AdultGrouping::kRace, o.seed, adult_n),
                    0.1});
  panels.push_back({"CelebA", "Sex+Age (m=4)",
                    SimulatedCelebA(CelebAGrouping::kSexAge, o.seed, celeba_n),
                    0.1});
  panels.push_back({"Census", "Age (m=7)",
                    SimulatedCensus(CensusGrouping::kAge, o.seed, census_n),
                    0.1});
  panels.push_back({"Lyrics", "Genre (m=15)",
                    SimulatedLyrics(o.seed, lyrics_n), 0.05});
  return panels;
}

/// k values swept by Figs. 6–8 for a panel with `m` groups (the paper
/// starts at the smallest multiple-of-5 k with at least one slot per
/// group).
inline std::vector<int> KValues(int m, bool full) {
  std::vector<int> ks;
  for (int k = 5; k <= 50; k += full ? 5 : 10) {
    if (k >= m) ks.push_back(k);
  }
  if (ks.empty() || ks.front() > m + 5) ks.insert(ks.begin(), ((m + 4) / 5) * 5);
  return ks;
}

/// Algorithms applicable to a panel at a given k (mirrors the paper:
/// FairSwap/SFDM1 at m=2 only; FairGMM only for k <= 10 and m <= 5).
inline std::vector<AlgorithmKind> ApplicableAlgorithms(int m, int k,
                                                       bool include_gmm) {
  std::vector<AlgorithmKind> algorithms;
  if (include_gmm) algorithms.push_back(AlgorithmKind::kGmm);
  if (m == 2) algorithms.push_back(AlgorithmKind::kFairSwap);
  algorithms.push_back(AlgorithmKind::kFairFlow);
  if (k <= 10 && m <= 5) algorithms.push_back(AlgorithmKind::kFairGmm);
  if (m == 2) algorithms.push_back(AlgorithmKind::kSfdm1);
  algorithms.push_back(AlgorithmKind::kSfdm2);
  return algorithms;
}

inline bool IsStreaming(AlgorithmKind algo) {
  const AlgorithmEntry* entry = AlgorithmRegistry::Instance().Find(algo);
  return entry != nullptr && entry->streaming;
}

/// The paper's "time (s)" semantics: the cost of producing an up-to-date
/// solution on demand. Offline algorithms must recompute from scratch
/// (total solve time); streaming algorithms only pay their post-processing
/// (the one-pass upkeep is reported separately as avg update time). This
/// is what makes the paper's "orders of magnitude faster in the streaming
/// setting" comparison apples-to-apples.
inline double PaperTimeSeconds(const AggregateResult& r, AlgorithmKind algo) {
  return IsStreaming(algo) ? r.post_time_sec : r.total_time_sec;
}

/// Formats a mean diversity / time / storage cell, or "-" for n/a.
inline std::string Cell(bool applicable, double value, int precision) {
  if (!applicable) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolating linearly
/// between the two nearest order statistics.
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// An A/B comparison measured as interleaved pairs of runs: the median and
/// quartiles of the per-pair ratio `B seconds / A seconds`, plus each
/// side's median time.
struct PairedRatio {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  int pairs = 0;
  double a_median_sec = 0.0;
  double b_median_sec = 0.0;
};

/// Runs `pairs` pairs of `run_a(r)` / `run_b(r)` (r = pair index), A first
/// in even pairs and B first in odd ones, so host drift and contention hit
/// both sides alike; a gate on the median ratio then resolves a bound that
/// best-of-N single shots cannot. Each run returns its elapsed seconds, or
/// a negative value on failure, which aborts the measurement (nullopt).
template <typename RunA, typename RunB>
std::optional<PairedRatio> MeasureInterleavedPairs(int pairs, RunA&& run_a,
                                                   RunB&& run_b) {
  std::vector<double> a_secs;
  std::vector<double> b_secs;
  std::vector<double> ratios;
  for (int r = 0; r < pairs; ++r) {
    double sec[2] = {0.0, 0.0};  // [A, B]
    for (int side = 0; side < 2; ++side) {
      const bool b = (side == 0) == (r % 2 == 1);
      sec[b ? 1 : 0] = b ? run_b(r) : run_a(r);
      if (sec[b ? 1 : 0] < 0.0) return std::nullopt;
    }
    a_secs.push_back(sec[0]);
    b_secs.push_back(sec[1]);
    ratios.push_back(sec[1] / sec[0]);
  }
  if (ratios.empty()) return std::nullopt;
  PairedRatio result;
  result.median = Quantile(ratios, 0.5);
  result.q1 = Quantile(ratios, 0.25);
  result.q3 = Quantile(ratios, 0.75);
  result.pairs = pairs;
  result.a_median_sec = Quantile(a_secs, 0.5);
  result.b_median_sec = Quantile(b_secs, 0.5);
  return result;
}

/// Prints the standard bench banner: what is being reproduced and at what
/// scale, so the tee'd output is self-describing.
inline void Banner(const std::string& what, const BenchOptions& o) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf("runs=%d scale=%.2f %s(use --full for paper-scale sizes and "
              "10 runs)\n\n",
              o.runs, o.scale, o.full ? "[FULL] " : "");
}

}  // namespace fdm::bench

#endif  // FDM_BENCH_BENCH_COMMON_H_
