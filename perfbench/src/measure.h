#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/plan_cache.h"
#include "results.h"
#include "workloads.h"

namespace perfbench {

/// Milliseconds on the steady clock.
double NowMs();

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// One statement a client sent, as the client and the engine saw it. The
/// loop keeps only a few whole records (see LoopResult::kept); every
/// statement leaves a Sample, per-statement figures and loop totals.
struct Execution {
  Statement stmt;
  double latency_ms = 0.0;  ///< client-observed, send to reply
  bool ok = false;          ///< the engine returned rows
  bool correct = false;     ///< ok, and the rows match the reference
  RowsDigest digest;
  // QueryResult fields.
  double optimize_ms = 0.0;
  double execute_ms = 0.0;
  double admission_wait_ms = 0.0;
  bool plan_cache_hit = false;
  bool used_orca = false;
  bool fell_back = false;
  bool shed = false;
  bool queued = false;
  int64_t rows_scanned = 0;
  int64_t index_lookups = 0;
  int64_t rebinds = 0;
  int parallel_pipelines = 0;
  int64_t profile_batch_rows = 0;
  int64_t profile_volcano_rows = 0;
  double profile_busy_ms = 0.0;
  double profile_idle_ms = 0.0;
};

/// What every statement leaves behind: 16 bytes, so the benchmark's own
/// memory stays small next to the engine's in peak_rss_mb.
struct Sample {
  float end_ms;  ///< reply time, ms since the loop started
  float latency_ms;
  int32_t key;
  bool correct;
  uint16_t pass;  ///< pass workloads: the pass it belongs to
};

/// Per-statement (per-template) figures.
struct KeyStats {
  std::vector<float> optimize_ms, execute_ms, rows_scanned;
  int64_t runs = 0, ok = 0, correct = 0, orca = 0, hits = 0, fallbacks = 0;
};

/// Sums over the statements that returned rows (per-layer metrics).
struct LoopTotals {
  double ok = 0, orca = 0, fallbacks = 0, residual_ms = 0, execute_ms = 0;
  double rows_scanned = 0, rows_returned = 0, index_lookups = 0, rebinds = 0;
  double parallel_pipelines = 0, batch_rows = 0, volcano_rows = 0;
  double busy_ms = 0, idle_ms = 0, admission_wait_ms = 0, queued = 0, shed = 0;
  void Add(const Execution& e);
  void Merge(const LoopTotals& o);
};

/// The timed closed loop of one run.
struct LoopResult {
  std::vector<Sample> samples;
  std::vector<KeyStats> keys;
  LoopTotals totals;
  /// Whole records kept for checks and the traced replay: the first
  /// execution of each statement (pass workloads), or a seeded reservoir
  /// sample (point_sessions).
  std::vector<Execution> kept;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  taurus::PlanCacheStats cache_before;
  taurus::PlanCacheStats cache_after;
};

/// Runs the workload's closed loop for `seconds`: each client sends its
/// next statement only after the reply to the previous one. Pass workloads
/// always finish the pass they are in, so every statement has a sample.
/// `expected` (pass workloads) marks each execution correct or not; point
/// statements are checked afterwards by CheckSample.
LoopResult RunLoop(const WorkloadSpec& spec, Engine* engine, uint64_t seed,
                   double seconds, const ExpectedSet* expected);

/// Re-runs the kept point_sessions executions on the forced MySQL path
/// (outside the timed region); each whose rows differ counts as failed.
/// Returns the number checked.
int CheckSample(const WorkloadSpec& spec, taurus::Database* db,
                LoopResult* loop);

/// The end-to-end figures of one run.
struct EndToEnd {
  int64_t attempted = 0;
  int64_t failed = 0;
  double latency_p50_ms = 0.0;
  /// Median over windows of each window's highest ladder percentile with
  /// at least 10 samples beyond it (WorkloadSpec::tail_window and
  /// tail_per_pass).
  double latency_tail_ms = 0.0;
  double tail_percentile = 0.0;  ///< that percentile
  int64_t tail_beyond = 0;       ///< samples above it, in the last window
  int64_t tail_windows = 0;
  double geomean_ms = 0.0;
  double throughput_qps = 0.0;
  double error_rate = 0.0;
};

EndToEnd Summarize(const WorkloadSpec& spec, const LoopResult& loop);

/// One line per statement (pass workloads) or template (point_sessions):
/// median latency, compile/execute split, path, plan-cache hits, rows
/// scanned.
std::vector<std::string> StatementRows(const WorkloadSpec& spec,
                                       const LoopResult& loop);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
