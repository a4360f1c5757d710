#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bridge/orca_path.h"
#include "bridge/router.h"
#include "common/clock.h"
#include "common/resource_budget.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/block_executor.h"
#include "exec/exec_context.h"
#include "frontend/binder.h"
#include "frontend/fingerprint.h"
#include "frontend/prepare.h"
#include "myopt/mysql_optimizer.h"
#include "myopt/refine.h"
#include "obs/trace.h"
#include "parser/parser.h"

namespace perfbench {

using taurus::Database;
using taurus::ScopedSpan;
using taurus::Status;
using taurus::Tracer;

namespace {

// point_sessions replays this many sampled executions; pass workloads
// replay every statement once.
constexpr int kPointReplays = 120;

struct Replayed {
  Status status;
  std::vector<taurus::Row> rows;
  bool detour = false;     ///< the Orca detour ran
  bool used_orca = false;  ///< and produced the plan
  taurus::OrcaPathMetrics orca;
  double compile_ms = 0.0;
  double execute_ms = 0.0;
};

Status ParseBindPrepare(Database* db, const std::string& sql, Tracer* tracer,
                        taurus::BoundStatement* out) {
  ScopedSpan parse(tracer, "parse");
  auto parsed = taurus::ParseSelect(sql);
  parse.End();
  if (!parsed.ok()) return parsed.status();
  ScopedSpan bind(tracer, "bind");
  auto bound = taurus::BindStatement(db->catalog(), std::move(*parsed));
  bind.End();
  if (!bound.ok()) return bound.status();
  *out = std::move(*bound);
  ScopedSpan prepare(tracer, "prepare");
  return taurus::PrepareStatement(out, db->prepare_options());
}

// One statement through the public stage functions, mirroring the cold
// (cache-miss) path of Database::CompileInternal and the executor arming
// of Database::ArmExecContext. A null `tracer` records nothing, which is
// the untraced replay the tracing overhead is measured against.
Replayed Replay(Database* db, const std::string& sql, Tracer* tracer,
                taurus::ThreadPool* pool, bool execute) {
  Replayed out;
  double start = NowMs();
  ScopedSpan statement(tracer, "statement");
  ScopedSpan compile(tracer, "compile");
  taurus::BoundStatement stmt;
  out.status = ParseBindPrepare(db, sql, tracer, &stmt);
  if (!out.status.ok()) return out;
  {
    ScopedSpan fp(tracer, "fingerprint");
    taurus::StatementFingerprint f = taurus::FingerprintStatement(stmt);
    fp.Attr("fingerprint", std::to_string(f.hash));
  }
  bool try_orca;
  {
    ScopedSpan route(tracer, "route");
    try_orca = taurus::ShouldRouteToOrca(stmt, db->router_config());
  }
  std::unique_ptr<taurus::CompiledQuery> compiled;
  if (try_orca) {
    out.detour = true;
    const taurus::ResourceBudgetConfig& budget = db->resource_budget();
    taurus::ResourceGovernor governor(budget);
    // The provider's request counters are cumulative: take this detour's
    // delta.
    int64_t requests = db->mdp().dxl_requests();
    int64_t hits = db->mdp().cache_hits();
    ScopedSpan detour(tracer, "orca.detour");
    taurus::OrcaPathOptimizer orca(
        db->catalog(), &stmt, &db->mdp(), db->orca_config(),
        budget.governs_optimize() ? &governor : nullptr);
    auto skeleton = orca.Optimize();
    detour.End();
    out.orca = orca.metrics();
    out.orca.mdp_dxl_requests = db->mdp().dxl_requests() - requests;
    out.orca.mdp_cache_hits = db->mdp().cache_hits() - hits;
    if (skeleton.ok()) {
      ScopedSpan refine(tracer, "refine");
      auto refined = taurus::RefinePlan(std::move(stmt), **skeleton,
                                        db->catalog());
      refine.End();
      if (refined.ok()) {
        compiled = std::move(*refined);
        compiled->used_orca = true;
        out.used_orca = true;
      }
    }
    if (compiled == nullptr) {
      // Clean fallback, as the engine does: the detour may have rewritten
      // or consumed the statement, so start again from the SQL text.
      ScopedSpan reparse(tracer, "fallback.reparse");
      out.status = ParseBindPrepare(db, sql, nullptr, &stmt);
      if (!out.status.ok()) return out;
    }
  }
  if (compiled == nullptr) {
    ScopedSpan mysql(tracer, "mysql.optimize");
    auto skeleton = taurus::MySqlOptimize(db->catalog(), &stmt);
    mysql.End();
    if (!skeleton.ok()) {
      out.status = skeleton.status();
      return out;
    }
    ScopedSpan refine(tracer, "refine");
    auto refined =
        taurus::RefinePlan(std::move(stmt), **skeleton, db->catalog());
    refine.End();
    if (!refined.ok()) {
      out.status = refined.status();
      return out;
    }
    compiled = std::move(*refined);
  }
  compile.End();
  out.compile_ms = NowMs() - start;
  if (!execute) return out;

  double exec_start = NowMs();
  ScopedSpan exec_span(tracer, "execute");
  taurus::ExecContext ctx;
  const taurus::ResourceBudgetConfig& budget = db->resource_budget();
  if (out.used_orca && budget.governs_exec()) {
    ctx.max_rows_scanned = budget.max_exec_rows;
    if (budget.exec_deadline_ms > 0) {
      ctx.clock_ms = &taurus::ResourceGovernor::SteadyNowMs;
      ctx.exec_deadline_ms = ctx.clock_ms() + budget.exec_deadline_ms;
    }
  }
  const taurus::ExecutorConfig& cfg = db->exec_config();
  ctx.parallel_workers = pool != nullptr ? pool->size() : 1;
  ctx.morsel_rows = std::max<int64_t>(1, cfg.morsel_rows);
  ctx.parallel_min_driver_rows = cfg.parallel_min_driver_rows;
  ctx.use_batch = cfg.enable_batch;
  ctx.batch_size = std::max<int64_t>(1, cfg.batch_size);
  ctx.pool = pool;
  auto rows = taurus::ExecuteQuery(compiled.get(), db->storage(), &ctx);
  exec_span.End();
  out.execute_ms = NowMs() - exec_start;
  if (!rows.ok()) {
    out.status = rows.status();
    return out;
  }
  out.rows = std::move(*rows);
  return out;
}

// Replay set: the loop's first execution of every statement (pass
// workloads) or the first kPointReplays of its seeded sample.
std::vector<const Execution*> PickReplays(const WorkloadSpec& spec,
                                          const LoopResult& loop) {
  std::vector<const Execution*> picked;
  for (const Execution& e : loop.kept) {
    if (!spec.passes && picked.size() >= kPointReplays) break;
    picked.push_back(&e);
  }
  return picked;
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

void WriteSpans(std::ofstream* out, int stmt_id, const std::string& name,
                const Tracer& tracer) {
  for (const taurus::TraceSpan& s : tracer.spans()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"stmt\": %d, \"statement\": \"%s\", \"span\": %d, "
                  "\"parent\": %d, \"name\": \"%s\", \"start_ms\": %.6f, "
                  "\"end_ms\": %.6f}\n",
                  stmt_id, name.c_str(), s.id, s.parent, s.name.c_str(),
                  s.start_ms, s.end_ms);
    *out << buf;
  }
}

// Engine, exec and server figures of the timed loop.
void LoopLayers(const LoopResult& loop, LayerReport* report) {
  auto& m = report->metrics;
  const LoopTotals& t = loop.totals;
  const taurus::PlanCacheStats& a = loop.cache_before;
  const taurus::PlanCacheStats& b = loop.cache_after;
  double hits = static_cast<double>(b.hits - a.hits);
  double misses = static_cast<double>(b.misses - a.misses);
  m["engine.plan_cache.hit_ratio"] = Share(hits, hits + misses);
  m["engine.plan_cache.evictions"] =
      Share(static_cast<double>(b.evictions - a.evictions), t.ok);
  m["engine.residual_ms"] = Share(t.residual_ms, t.ok);
  m["bridge.orca_route_share"] = Share(t.orca, t.ok);
  m["bridge.fallback_share"] = Share(t.fallbacks, t.ok);
  m["exec.execute_ms"] = Share(t.execute_ms, t.ok);
  m["exec.rows_scanned"] = Share(t.rows_scanned, t.ok);
  m["exec.index_lookups"] = Share(t.index_lookups, t.ok);
  m["exec.rebinds"] = Share(t.rebinds, t.ok);
  m["exec.scanned_per_returned"] =
      Share(t.rows_scanned, std::max(t.rows_returned, 1.0));
  m["exec.ns_per_scanned_row"] = Share(t.execute_ms * 1e6, t.rows_scanned);
  m["exec.parallel_pipelines"] = Share(t.parallel_pipelines, t.ok);
  m["exec.batch_row_share"] =
      Share(t.batch_rows, t.batch_rows + t.volcano_rows);
  m["exec.worker_idle_share"] = Share(t.idle_ms, t.busy_ms + t.idle_ms);
  m["server.admission_wait_ms"] = Share(t.admission_wait_ms, t.ok);
  m["server.queued_share"] = Share(t.queued, t.ok);
  m["server.shed_share"] = Share(t.shed, t.ok);
}

}  // namespace

LayerReport TraceLayers(const WorkloadSpec& spec, Engine* engine,
                        const LoopResult& loop,
                        const std::string& spans_path) {
  LayerReport report;
  LoopLayers(loop, &report);
  Database* db = engine->db.get();
  int workers = db->exec_config().parallel_workers;
  if (workers <= 0) workers = taurus::ThreadPool::HardwareWorkers();
  std::unique_ptr<taurus::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<taurus::ThreadPool>(workers);

  std::vector<std::string> names = StatementNames(spec);
  std::ofstream spans(spans_path);
  std::map<std::string, double> stage_sum;
  std::map<std::string, int> stage_count;
  double hit_front = 0, hit_compile = 0;
  // Per statement: compile time of the traced replay over the untraced one,
  // minus 1.
  std::vector<double> overheads;
  // Per statement: replayed stage time over the engine-reported time.
  std::vector<double> compile_ratios, execute_ratios;
  double detour_ms = 0, groups = 0, pairs = 0, dxl = 0, dxl_hits = 0;
  int detours = 0, hit_samples = 0;

  std::vector<const Execution*> picked = PickReplays(spec, loop);
  for (size_t i = 0; i < picked.size(); ++i) {
    const Execution& e = *picked[i];
    std::string sql = StatementSql(spec, e.stmt);
    // Engine-reported compile times of the same statement: cold (cache
    // cleared) and a cache hit right after it. The first cold compile only
    // warms the CPU caches, as the replays below run warm too.
    db->plan_cache().Clear();
    auto warm = db->Compile(sql);
    db->plan_cache().Clear();
    auto cold = db->Compile(sql);
    auto hit = db->Compile(sql);
    // Untraced and traced replays, alternating which runs first.
    Tracer tracer(&taurus::SteadyClock::Instance());
    Replayed plain, traced;
    if (i % 2 == 0) {
      plain = Replay(db, sql, nullptr, pool.get(), false);
      traced = Replay(db, sql, &tracer, pool.get(), true);
    } else {
      traced = Replay(db, sql, &tracer, pool.get(), true);
      plain = Replay(db, sql, nullptr, pool.get(), false);
    }
    // Engine-reported execution of the same statement in the same (warm)
    // state, for the execute-time cross-check.
    auto engine_run = db->Query(sql);
    ++report.replayed;
    if (!warm.ok() || !cold.ok() || !hit.ok() || !plain.status.ok() ||
        !traced.status.ok() || !engine_run.ok()) {
      ++report.replay_errors;
      std::printf("replay %s failed: %s\n", names[e.stmt.key].c_str(),
                  traced.status.ToString().c_str());
      continue;
    }
    if (DigestRows(traced.rows) != e.digest) {
      ++report.row_mismatches;
      std::printf("replay %s: rows differ from the timed loop\n",
                  names[e.stmt.key].c_str());
    }
    WriteSpans(&spans, static_cast<int>(i), names[e.stmt.key], tracer);

    double front = 0;
    for (const taurus::TraceSpan& s : tracer.spans()) {
      stage_sum[s.name] += s.duration_ms();
      ++stage_count[s.name];
      if (s.name == "parse" || s.name == "bind" || s.name == "prepare" ||
          s.name == "fingerprint") {
        front += s.duration_ms();
      }
    }
    if ((*hit)->plan_cache_hit) {
      hit_compile += (*hit)->optimize_ms;
      hit_front += front;
      ++hit_samples;
    }
    overheads.push_back(Share(traced.compile_ms, plain.compile_ms) - 1.0);
    compile_ratios.push_back(Share(traced.compile_ms, (*cold)->optimize_ms));
    execute_ratios.push_back(Share(traced.execute_ms, engine_run->execute_ms));
    if (traced.detour) {
      ++detours;
      const taurus::TraceSpan* d = tracer.Find("orca.detour");
      detour_ms += d != nullptr ? d->duration_ms() : 0.0;
      groups += traced.orca.memo_groups;
      pairs += static_cast<double>(traced.orca.partitions_evaluated);
      dxl += static_cast<double>(traced.orca.mdp_dxl_requests);
      dxl_hits += static_cast<double>(traced.orca.mdp_cache_hits);
    }
  }

  auto& m = report.metrics;
  auto stage_mean = [&](const char* stage) {
    int c = stage_count[stage];
    return c > 0 ? stage_sum[stage] / c : 0.0;
  };
  m["parser.parse_ms"] = stage_mean("parse");
  m["frontend.bind_ms"] = stage_mean("bind");
  m["frontend.prepare_ms"] = stage_mean("prepare");
  m["frontend.fingerprint_ms"] = stage_mean("fingerprint");
  m["engine.hit_compile_ms"] =
      hit_samples > 0 ? (hit_compile - hit_front) / hit_samples : 0.0;
  m["bridge.orca_detour_ms"] = detours > 0 ? detour_ms / detours : 0.0;
  m["orca.memo_groups"] = detours > 0 ? groups / detours : 0.0;
  m["orca.partition_pairs"] = detours > 0 ? pairs / detours : 0.0;
  m["orca.us_per_pair"] = Share(detour_ms * 1000.0, pairs);
  m["mdp.dxl_requests"] = detours > 0 ? dxl / detours : 0.0;
  // The provider counts a DXL request only on a cache miss.
  m["mdp.cache_hit_ratio"] = Share(dxl_hits, dxl_hits + dxl);
  m["myopt.mysql_optimize_ms"] = stage_mean("mysql.optimize");
  m["myopt.refine_ms"] = stage_mean("refine");
  m["trace.overhead_share"] = Median(overheads);

  report.compile_ratio = Median(compile_ratios);
  report.execute_ratio = Median(execute_ratios);
  report.stage_times_match =
      std::fabs(report.compile_ratio - 1.0) <= kStageTimeTolerance &&
      std::fabs(report.execute_ratio - 1.0) <= kStageTimeTolerance;
  return report;
}

}  // namespace perfbench
