#ifndef FDM_HARNESS_REGISTRY_H_
#define FDM_HARNESS_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solution.h"
#include "core/stream_sink.h"
#include "core/streaming_dm.h"
#include "data/dataset.h"
#include "harness/experiment.h"
#include "util/status.h"

namespace fdm {

/// Builds a fresh streaming sink for one run. The factory reads whatever
/// it needs from the config (constraint, ε, bounds, batching knobs) and
/// must not retain references to it.
using StreamSinkFactory = std::function<Result<std::unique_ptr<StreamSink>>(
    const Dataset& dataset, const RunConfig& config)>;

/// Solves one offline run over the whole dataset.
using OfflineSolver = std::function<Result<Solution>(
    const Dataset& dataset, const RunConfig& config)>;

/// One algorithm as the harness sees it: a display name and either a
/// streaming-sink factory or an offline solver.
struct AlgorithmEntry {
  std::string name;
  bool streaming = false;
  StreamSinkFactory make_sink;  // set iff `streaming`
  OfflineSolver solve;          // set iff `!streaming`
};

/// The registry the harness dispatches through, keyed by `AlgorithmKind`.
///
/// All built-in algorithms (the paper's six plus the unconstrained
/// streaming baseline and the sharded driver) are pre-registered; benches,
/// examples, and tests can register additional scenarios (windowed,
/// alternative shardings, …) — or override a builtin — without touching
/// the harness, and `RunAlgorithm`/`RunRepeated` pick them up uniformly.
class AlgorithmRegistry {
 public:
  /// The process-wide registry, with builtins pre-registered.
  static AlgorithmRegistry& Instance();

  /// Registers (or replaces) the entry for `kind`.
  void Register(AlgorithmKind kind, AlgorithmEntry entry);

  /// The entry for `kind`, or nullptr if none is registered.
  const AlgorithmEntry* Find(AlgorithmKind kind) const;

  /// All registered kinds, ascending by enum value.
  std::vector<AlgorithmKind> Kinds() const;

 private:
  AlgorithmRegistry();  // registers the builtins

  std::map<AlgorithmKind, AlgorithmEntry> entries_;
};

/// The streaming options a config implies (ε and distance bounds).
StreamingOptions StreamingOptionsFrom(const RunConfig& config);

}  // namespace fdm

#endif  // FDM_HARNESS_REGISTRY_H_
