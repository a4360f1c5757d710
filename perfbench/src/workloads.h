#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "engine/database.h"
#include "server/server.h"
#include "server/session.h"

namespace perfbench {

enum class Dataset { kTpch, kTpcds };

/// One named workload (README.md explains why each exists).
struct WorkloadSpec {
  std::string name;
  Dataset dataset = Dataset::kTpch;
  double scale = 0.0;
  /// Closed-loop clients. 1 = direct Database::Query calls; more = one
  /// Session per client on one Server.
  int sessions = 1;
  /// True: clients replay whole seeded-shuffled passes over a fixed list of
  /// statements. False: short templated statements with seeded literals.
  bool passes = true;
  /// Pass workloads: rounds per pass, each in a fresh seeded order. Round 1
  /// runs every statement; later rounds skip the statements whose round-1
  /// execution in this pass took longer than a second, so a slow plan runs
  /// once a pass while the others gather samples spread over the run.
  int rounds = 1;
  /// Statements per latency_tail_ms window; 0 = the whole run is one window
  /// (README.md, latency_tail_ms).
  int64_t tail_window = 0;
  /// Pass workloads: one latency_tail_ms window per pass (overrides
  /// tail_window).
  bool tail_per_pass = false;
};

/// Looks up a workload by name. `smoke` shrinks the scale factors so every
/// workload runs in seconds.
taurus::Result<WorkloadSpec> FindWorkload(const std::string& name, bool smoke);

const char* DatasetName(Dataset dataset);

/// A statement a client sends. `key` names what per-statement figures are
/// grouped by: a TPC statement (Q1 = 0) or a point template; `arg` is the
/// point template's literal (unused for TPC statements).
struct Statement {
  int key = 0;
  int64_t arg = 0;
};

/// Names of the keys: "Q1".."Q99" or the point template names.
std::vector<std::string> StatementNames(const WorkloadSpec& spec);

/// SQL text of a statement.
std::string StatementSql(const WorkloadSpec& spec, const Statement& stmt);

class ZipfKeys;

/// Per-client statement stream, a pure function of (spec, seed, client).
class StatementStream {
 public:
  StatementStream(const WorkloadSpec& spec, uint64_t seed, int client);
  ~StatementStream();
  StatementStream(const StatementStream&) = delete;
  StatementStream& operator=(const StatementStream&) = delete;

  Statement Next();
  /// Reports the latency of the statement Next() returned last; pass
  /// workloads decide from round 1 which statements repeat in later rounds.
  void Observe(const Statement& stmt, double latency_ms);
  /// Pass workloads: true when the next statement starts a new pass.
  bool AtPassBoundary() const { return pos_ == 0 && round_ == 0; }
  /// Pass workloads: the pass of the statement Next() returned last (0-based).
  int pass() const { return pass_index_; }

 private:
  const WorkloadSpec& spec_;
  taurus::Rng rng_;
  std::vector<int> pass_;
  std::vector<bool> once_;  ///< per statement: skipped after round 1
  size_t pos_ = 0;
  int round_ = 0;
  int last_round_ = 0;
  int pass_index_ = -1;
  std::unique_ptr<ZipfKeys> order_keys_;
  std::unique_ptr<ZipfKeys> customer_keys_;
};

/// A loaded engine ready for the timed loop.
struct Engine {
  std::unique_ptr<taurus::Database> db;
  std::unique_ptr<taurus::Server> server;  ///< sessions > 1 only
  std::vector<std::unique_ptr<taurus::Session>> sessions;
};

/// Schema creation, data load, ANALYZE and one warm-up pass that compiles
/// every statement once (filling the metadata-provider and plan caches).
taurus::Result<Engine> SetUp(const WorkloadSpec& spec);

/// Loads the dataset only (no warm-up, no sessions): expected-result
/// generation and the smoke cross-check use it.
taurus::Status LoadDataset(const WorkloadSpec& spec, taurus::Database* db);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
