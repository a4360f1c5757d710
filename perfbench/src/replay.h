#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace perfbench {

/// The traced run's per-layer figures, keyed by metric name.
struct LayerReport {
  std::map<std::string, double> metrics;
  int replayed = 0;
  /// Replayed statements whose rows differ from the timed loop's rows.
  int row_mismatches = 0;
  /// Replays that failed in a stage the engine passed.
  int replay_errors = 0;
  /// Median over replayed statements of replayed stage time over the
  /// engine-reported time of the same statement, for compile (a cold
  /// Database::Compile, cache cleared) and execute (a Database::Query right
  /// after the replay).
  double compile_ratio = 0.0;
  double execute_ratio = 0.0;
  bool stage_times_match = false;
};

/// Replayed stage times must lie within this share of the engine-reported
/// optimize_ms / execute_ms (README.md, "Traced run").
constexpr double kStageTimeTolerance = 0.35;

/// Per-layer metrics of a traced run: engine, exec and server figures from
/// the timed loop's QueryResult fields and plan-cache stats deltas; parser,
/// frontend, bridge, orca, mdp and myopt figures from replaying statements
/// of the loop through the engine's public stage functions with spans
/// around each call. Spans are written to `spans_path` as JSON lines.
LayerReport TraceLayers(const WorkloadSpec& spec, Engine* engine,
                        const LoopResult& loop,
                        const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
