// Micro-benchmarks (google-benchmark) for the compilation pipeline
// stages: parsing, binding+prepare, MySQL greedy optimization, the Orca
// detour (per join-search strategy), the metadata provider's DXL round
// trip, and the expression-OID algebra. These are the per-component
// numbers behind the Table 1 totals. BM_JoinGraph times the EXHAUSTIVE2
// join search on generated chain, star, cycle and clique join graphs of
// n = 4..16 tables, reporting partition pairs and memo groups against n.
//
// --json writes BENCH_optimizer.json (flat name -> ms/iter map) for CI
// trending; other flags pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "bench_json_reporter.h"

#include "bridge/orca_path.h"
#include "frontend/prepare.h"
#include "mdp/provider.h"
#include "myopt/mysql_optimizer.h"
#include "parser/parser.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    auto st = SetupTpch(d, 0.001);
    if (!st.ok()) std::abort();
    return d;
  }();
  return db;
}

const std::string& Q5() { return TpchQueries()[4]; }

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_Parse);

void BM_BindPrepare(benchmark::State& state) {
  Database* db = SharedDb();
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    auto st = PrepareStatement(&stmt);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_BindPrepare);

void BM_MySqlOptimize(benchmark::State& state) {
  Database* db = SharedDb();
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    auto skel = MySqlOptimize(db->catalog(), &stmt);
    benchmark::DoNotOptimize(skel);
  }
}
BENCHMARK(BM_MySqlOptimize);

void BM_OrcaOptimize(benchmark::State& state) {
  Database* db = SharedDb();
  OrcaConfig config;
  config.strategy = static_cast<JoinSearchStrategy>(state.range(0));
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    OrcaPathOptimizer orca(db->catalog(), &stmt, &db->mdp(), config);
    auto skel = orca.Optimize();
    benchmark::DoNotOptimize(skel);
  }
}
BENCHMARK(BM_OrcaOptimize)
    ->Arg(static_cast<int>(JoinSearchStrategy::kGreedy))
    ->Arg(static_cast<int>(JoinSearchStrategy::kExhaustive))
    ->Arg(static_cast<int>(JoinSearchStrategy::kExhaustive2));

void BM_FullCompileOrca(benchmark::State& state) {
  Database* db = SharedDb();
  db->router_config().complex_query_threshold = 1;
  for (auto _ : state) {
    auto c = db->Compile(Q5(), OptimizerPath::kOrca);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FullCompileOrca);

// Join graphs over n copies of a 16-column table; every equality uses its
// own column pair, so Prepare's transitive closure adds no edge.
Database* GraphDb() {
  static Database* db = [] {
    auto* d = new Database();
    std::string ddl = "CREATE TABLE g (";
    for (int c = 0; c < 16; ++c) {
      ddl += (c > 0 ? ", c" : "c") + std::to_string(c) + " BIGINT";
    }
    if (!d->ExecuteSql(ddl + ")").ok()) std::abort();
    std::vector<Row> rows;
    for (int i = 0; i < 64; ++i) {
      Row row;
      for (int c = 0; c < 16; ++c) {
        row.push_back(Value::Int((i * (c + 1)) % 13));
      }
      rows.push_back(std::move(row));
    }
    if (!d->BulkLoad("g", std::move(rows)).ok()) std::abort();
    if (!d->Analyze("g").ok()) std::abort();
    return d;
  }();
  return db;
}

enum GraphShape { kChain, kStar, kCycle, kClique };

std::string GraphSql(int shape, int n) {
  std::vector<std::pair<int, int>> edges;
  if (shape == kChain || shape == kCycle) {
    for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
    if (shape == kCycle) edges.emplace_back(n - 1, 0);
  } else if (shape == kStar) {
    for (int i = 1; i < n; ++i) edges.emplace_back(0, i);
  } else {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) edges.emplace_back(i, j);
    }
  }
  std::string sql = "SELECT COUNT(*) FROM g t0";
  for (int i = 1; i < n; ++i) sql += ", g t" + std::to_string(i);
  std::map<int, int> next_col;
  for (size_t e = 0; e < edges.size(); ++e) {
    auto [a, b] = edges[e];
    sql += e == 0 ? " WHERE " : " AND ";
    sql += "t" + std::to_string(a) + ".c" + std::to_string(next_col[a]++) +
           " = t" + std::to_string(b) + ".c" + std::to_string(next_col[b]++);
  }
  return sql;
}

void BM_JoinGraph(benchmark::State& state) {
  Database* db = GraphDb();
  const std::string sql = GraphSql(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  OrcaConfig config;
  OrcaPathMetrics metrics;
  for (auto _ : state) {
    state.PauseTiming();
    auto q = ParseSelect(sql);
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    state.ResumeTiming();
    OrcaPathOptimizer orca(db->catalog(), &stmt, &db->mdp(), config);
    auto skel = orca.Optimize();
    benchmark::DoNotOptimize(skel);
    metrics = orca.metrics();
  }
  state.counters["pairs"] = static_cast<double>(metrics.partitions_evaluated);
  state.counters["groups"] = metrics.memo_groups;
}
// Args: shape (0 chain, 1 star, 2 cycle, 3 clique), n.
BENCHMARK(BM_JoinGraph)
    ->ArgsProduct({{kChain, kStar, kCycle, kClique},
                   benchmark::CreateDenseRange(4, 16, 1)})
    ->Unit(benchmark::kMillisecond);

void BM_MdpDxlRoundTrip(benchmark::State& state) {
  Database* db = SharedDb();
  MetadataProvider mdp(db->catalog());  // fresh: no cache
  auto oid = mdp.RelationOidByName("lineitem");
  for (auto _ : state) {
    auto dxl = mdp.RelationToDxl(*oid);
    auto parsed = MetadataProvider::ParseRelationDxl(*dxl);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_MdpDxlRoundTrip);

void BM_MdpCachedLookup(benchmark::State& state) {
  Database* db = SharedDb();
  auto oid = db->mdp().RelationOidByName("lineitem");
  (void)db->mdp().GetRelation(*oid);  // warm
  for (auto _ : state) {
    auto rel = db->mdp().GetRelation(*oid);
    benchmark::DoNotOptimize(rel);
  }
}
BENCHMARK(BM_MdpCachedLookup);

void BM_ExprOidAlgebra(benchmark::State& state) {
  for (auto _ : state) {
    for (int64_t oid = kCmpBase; oid < kCmpBase + kNumCmpExprs; ++oid) {
      benchmark::DoNotOptimize(CommutatorOid(oid));
      benchmark::DoNotOptimize(InverseOid(oid));
    }
  }
}
BENCHMARK(BM_ExprOidAlgebra);

}  // namespace
}  // namespace taurus

int main(int argc, char** argv) {
  return taurus_bench::GBenchJsonMain(argc, argv, "optimizer");
}
