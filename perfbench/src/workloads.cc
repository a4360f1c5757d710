#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace perfbench {

using taurus::Result;
using taurus::Status;

namespace {

// Scale factors. tpch_power and point_sessions use sf 0.006, the smallest
// scale at which lineitem (36,230 rows) exceeds the executor's default
// parallel_min_driver_rows (32,768), so the morsel-parallel path runs.
// TPC-DS stays at sf 0.001: Q64's MySQL-path plan grows super-cubically
// with fact rows. Smoke mode shrinks both so every workload runs in seconds.
constexpr double kTpchScale = 0.006;
constexpr double kTpcdsScale = 0.001;
constexpr double kSmokeTpchScale = 0.001;
constexpr double kSmokeTpcdsScale = 0.0001;

// Pass workloads: a statement whose round-1 execution in a pass takes
// longer than this runs once in that pass (WorkloadSpec::rounds).
constexpr double kRepeatMaxMs = 1000.0;

// Zipf skew of point_sessions keys. Plan-cache fingerprints include
// literals, so uniform keys would give almost no cache hits.
constexpr double kZipfTheta = 0.99;

struct PointTemplate {
  const char* name;
  const char* sql;  ///< one %lld placeholder
  bool customer_key;  ///< key domain: customers (else orders)
};

// 1-, 2- and 3-table statements; the 3-table ones reach the default
// complex-query threshold and take the Orca detour.
const PointTemplate kPointTemplates[] = {
    {"pk_orders",
     "SELECT o_orderkey, o_custkey, o_totalprice, o_orderstatus FROM orders "
     "WHERE o_orderkey = %lld",
     false},
    {"pk_customer",
     "SELECT c_custkey, c_name, c_acctbal, c_mktsegment FROM customer "
     "WHERE c_custkey = %lld",
     true},
    {"order_customer",
     "SELECT o_orderkey, o_orderdate, c_name, c_acctbal FROM orders, customer "
     "WHERE o_custkey = c_custkey AND o_orderkey = %lld",
     false},
    {"order_lines",
     "SELECT l_linenumber, l_quantity, l_extendedprice, l_shipdate "
     "FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_orderkey = "
     "%lld",
     false},
    {"order_summary",
     "SELECT c_name, o_orderkey, COUNT(*), SUM(l_extendedprice) "
     "FROM customer, orders, lineitem WHERE c_custkey = o_custkey "
     "AND o_orderkey = l_orderkey AND o_orderkey = %lld "
     "GROUP BY c_name, o_orderkey",
     false},
    {"customer_nation",
     "SELECT c_name, n_name, COUNT(*) FROM customer, orders, nation "
     "WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey "
     "AND c_custkey = %lld GROUP BY c_name, n_name",
     true},
};
constexpr int kNumPointTemplates =
    static_cast<int>(sizeof(kPointTemplates) / sizeof(kPointTemplates[0]));

// Row counts of the generator in src/workloads/tpch.cc.
int64_t NumOrders(double sf) {
  return std::max<int64_t>(30, static_cast<int64_t>(1500000 * sf));
}
int64_t NumCustomers(double sf) {
  return std::max<int64_t>(15, static_cast<int64_t>(150000 * sf));
}

const std::vector<std::string>& Queries(Dataset dataset) {
  return dataset == Dataset::kTpch ? taurus::TpchQueries()
                                   : taurus::TpcdsQueries();
}

uint64_t ClientSeed(uint64_t seed, int client) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(client) + 1;
}

}  // namespace

// Zipf(theta) over ranks [0, n) with a seeded rank -> key permutation, so
// the hot keys are spread over the key space but shared by every client.
class ZipfKeys {
 public:
  ZipfKeys(int64_t n, uint64_t seed) : cdf_(n), keys_(n) {
    double sum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    for (int64_t i = 0; i < n; ++i) keys_[i] = i + 1;
    taurus::Rng rng(seed);
    for (int64_t i = n - 1; i > 0; --i) {
      std::swap(keys_[i], keys_[rng.Uniform(0, i)]);
    }
  }
  int64_t Draw(taurus::Rng* rng) const {
    double u = rng->NextDouble();
    size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return keys_[std::min(rank, keys_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> keys_;
};

const char* DatasetName(Dataset dataset) {
  return dataset == Dataset::kTpch ? "tpch" : "tpcds";
}

Result<WorkloadSpec> FindWorkload(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  double tpch = smoke ? kSmokeTpchScale : kTpchScale;
  double tpcds = smoke ? kSmokeTpcdsScale : kTpcdsScale;
  if (name == "tpcds_adhoc") {
    spec.dataset = Dataset::kTpcds;
    spec.scale = tpcds;
  } else if (name == "tpch_power") {
    spec.dataset = Dataset::kTpch;
    spec.scale = tpch;
    // Q20 runs once a pass (8-10 s); the other 21 statements (1-45 ms) run
    // in 24 rounds, so each has about 50 samples spread over a run instead
    // of 2-3 taken in bursts of a quarter second. The tail is taken per
    // pass: p97.5 of about 505 samples, among the slowest executions of
    // the 27-45 ms statements, where the 66 samples of a whole run had put
    // p75 on the gap between Q14 (17 ms) and Q12 (28 ms).
    spec.rounds = 24;
    spec.tail_per_pass = true;
  } else if (name == "point_sessions") {
    spec.dataset = Dataset::kTpch;
    spec.scale = tpch;
    spec.passes = false;
    // About 10,000 statements a second: over the whole run the tail
    // percentile would be p99.99, decided by a handful of host stalls.
    spec.tail_window = 1000;
    // nproc - 1 sessions, at most 3: at 4 sessions on a 4-thread host the
    // p99 swung 1.3-12 ms from run to run; at 3 it held at 0.53-0.62 ms.
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    spec.sessions = std::clamp(hw - 1, 1, 3);
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  return spec;
}

std::vector<std::string> StatementNames(const WorkloadSpec& spec) {
  std::vector<std::string> names;
  if (spec.passes) {
    size_t n = Queries(spec.dataset).size();
    for (size_t i = 0; i < n; ++i) names.push_back("Q" + std::to_string(i + 1));
  } else {
    for (const PointTemplate& t : kPointTemplates) names.push_back(t.name);
  }
  return names;
}

std::string StatementSql(const WorkloadSpec& spec, const Statement& stmt) {
  if (spec.passes) return Queries(spec.dataset)[stmt.key];
  char buf[512];
  std::snprintf(buf, sizeof(buf), kPointTemplates[stmt.key].sql,
                static_cast<long long>(stmt.arg));
  return buf;
}

StatementStream::StatementStream(const WorkloadSpec& spec, uint64_t seed,
                                 int client)
    : spec_(spec), rng_(ClientSeed(seed, client)) {
  if (spec.passes) {
    pass_.resize(Queries(spec.dataset).size());
    for (size_t i = 0; i < pass_.size(); ++i) pass_[i] = static_cast<int>(i);
    once_.assign(pass_.size(), false);
  } else {
    // Seeded by the workload seed alone: every client shares the hot keys.
    order_keys_ = std::make_unique<ZipfKeys>(NumOrders(spec.scale), seed);
    customer_keys_ =
        std::make_unique<ZipfKeys>(NumCustomers(spec.scale), seed + 1);
  }
}

StatementStream::~StatementStream() = default;

Statement StatementStream::Next() {
  Statement stmt;
  if (spec_.passes) {
    // Every round is shuffled whole, skipped statements included, so the
    // order depends on the seed alone.
    while (true) {
      if (pos_ == 0) {
        if (round_ == 0) ++pass_index_;
        for (size_t i = pass_.size() - 1; i > 0; --i) {
          std::swap(pass_[i], pass_[rng_.Uniform(0, static_cast<int64_t>(i))]);
        }
      }
      stmt.key = pass_[pos_];
      last_round_ = round_;
      if (++pos_ == pass_.size()) {
        pos_ = 0;
        round_ = (round_ + 1) % spec_.rounds;
      }
      if (last_round_ == 0 || !once_[stmt.key]) return stmt;
    }
  }
  stmt.key = static_cast<int>(rng_.Uniform(0, kNumPointTemplates - 1));
  const PointTemplate& t = kPointTemplates[stmt.key];
  stmt.arg = (t.customer_key ? customer_keys_ : order_keys_)->Draw(&rng_);
  return stmt;
}

void StatementStream::Observe(const Statement& stmt, double latency_ms) {
  if (spec_.passes && last_round_ == 0) {
    once_[stmt.key] = latency_ms > kRepeatMaxMs;
  }
}

Status LoadDataset(const WorkloadSpec& spec, taurus::Database* db) {
  if (spec.dataset == Dataset::kTpch) {
    TAURUS_RETURN_IF_ERROR(taurus::SetupTpch(db, spec.scale));
  } else {
    TAURUS_RETURN_IF_ERROR(taurus::SetupTpcds(db, spec.scale));
  }
  return db->AnalyzeAll();
}

Result<Engine> SetUp(const WorkloadSpec& spec) {
  Engine engine;
  engine.db = std::make_unique<taurus::Database>();
  TAURUS_RETURN_IF_ERROR(LoadDataset(spec, engine.db.get()));
  // Warm-up pass: compile every statement (point templates: once each, key
  // 1). Executing is left to the timed loop so a slow plan stays visible
  // there rather than being folded into set-up.
  size_t n = StatementNames(spec).size();
  for (size_t k = 0; k < n; ++k) {
    Statement stmt{static_cast<int>(k), 1};
    auto compiled = engine.db->Compile(StatementSql(spec, stmt));
    if (!compiled.ok()) return compiled.status();
  }
  if (spec.sessions > 1) {
    engine.server = std::make_unique<taurus::Server>(engine.db.get());
    for (int i = 0; i < spec.sessions; ++i) {
      TAURUS_ASSIGN_OR_RETURN(auto session, engine.server->CreateSession());
      engine.sessions.push_back(std::move(session));
    }
  }
  return engine;
}

}  // namespace perfbench
