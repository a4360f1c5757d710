#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iterator>
#include <thread>

#include "common/rng.h"

namespace perfbench {

namespace {

// The highest percentile of this ladder with at least 10 samples beyond
// it. A fixed ladder keeps the reported percentile the same from run to
// run when the sample count moves a little.
constexpr double kTailLadder[] = {99.99, 99.95, 99.9, 99.5, 99.0,
                                  97.5,  95.0,  90.0, 75.0, 50.0};
// Whole records kept per point_sessions run, for CheckSample and replay.
constexpr int kKeptPerRun = 200;

void Record(const taurus::Result<taurus::QueryResult>& r, Execution* e) {
  e->ok = r.ok();
  if (!r.ok()) return;
  const taurus::QueryResult& q = *r;
  e->digest = DigestRows(q.rows);
  e->optimize_ms = q.optimize_ms;
  e->execute_ms = q.execute_ms;
  e->admission_wait_ms = q.admission_wait_ms;
  e->plan_cache_hit = q.plan_cache_hit;
  e->used_orca = q.used_orca;
  e->fell_back = q.fell_back;
  e->shed = q.shed;
  e->queued = q.admission_queued;
  e->rows_scanned = q.rows_scanned;
  e->index_lookups = q.index_lookups;
  e->rebinds = q.rebinds;
  e->parallel_pipelines = q.parallel_pipelines;
  for (const taurus::WorkerProfile& w : q.profile.workers) {
    e->profile_batch_rows += w.batch_rows;
    e->profile_volcano_rows += w.volcano_rows;
    e->profile_busy_ms += w.busy_ms;
    e->profile_idle_ms += w.idle_ms;
  }
}

// One client's share of the loop, merged after the clients join.
struct ClientLog {
  std::deque<Sample> samples;  // a deque never copies inside the loop
  std::vector<KeyStats> keys;
  LoopTotals totals;
  std::vector<Execution> kept;
  int64_t seen = 0;
  int64_t failed = 0;
};

void Keep(const WorkloadSpec& spec, const Execution& e, size_t capacity,
          taurus::Rng* rng, ClientLog* log) {
  ++log->seen;
  if (spec.passes) {
    // The first execution of each statement.
    if (log->kept[e.stmt.key].stmt.key < 0) log->kept[e.stmt.key] = e;
    return;
  }
  // Reservoir sample (algorithm R) over the client's executions.
  if (log->kept.size() < capacity) {
    log->kept.push_back(e);
    return;
  }
  int64_t j = rng->Uniform(0, log->seen - 1);
  if (j < static_cast<int64_t>(capacity)) log->kept[j] = e;
}

}  // namespace

void LoopTotals::Add(const Execution& e) {
  ok += 1;
  orca += e.used_orca;
  fallbacks += e.fell_back && !e.shed;
  residual_ms +=
      e.latency_ms - e.optimize_ms - e.execute_ms - e.admission_wait_ms;
  execute_ms += e.execute_ms;
  rows_scanned += static_cast<double>(e.rows_scanned);
  rows_returned += static_cast<double>(e.digest.rows);
  index_lookups += static_cast<double>(e.index_lookups);
  rebinds += static_cast<double>(e.rebinds);
  parallel_pipelines += e.parallel_pipelines;
  batch_rows += static_cast<double>(e.profile_batch_rows);
  volcano_rows += static_cast<double>(e.profile_volcano_rows);
  busy_ms += e.profile_busy_ms;
  idle_ms += e.profile_idle_ms;
  admission_wait_ms += e.admission_wait_ms;
  queued += e.queued;
  shed += e.shed;
}

void LoopTotals::Merge(const LoopTotals& o) {
  ok += o.ok;
  orca += o.orca;
  fallbacks += o.fallbacks;
  residual_ms += o.residual_ms;
  execute_ms += o.execute_ms;
  rows_scanned += o.rows_scanned;
  rows_returned += o.rows_returned;
  index_lookups += o.index_lookups;
  rebinds += o.rebinds;
  parallel_pipelines += o.parallel_pipelines;
  batch_rows += o.batch_rows;
  volcano_rows += o.volcano_rows;
  busy_ms += o.busy_ms;
  idle_ms += o.idle_ms;
  admission_wait_ms += o.admission_wait_ms;
  queued += o.queued;
  shed += o.shed;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

LoopResult RunLoop(const WorkloadSpec& spec, Engine* engine, uint64_t seed,
                   double seconds, const ExpectedSet* expected) {
  LoopResult loop;
  taurus::Database* db = engine->db.get();
  const size_t keys = StatementNames(spec).size();
  const int clients = spec.sessions;
  const size_t capacity = (kKeptPerRun + clients - 1) / clients;
  std::vector<ClientLog> logs(clients);
  Execution unset;
  unset.stmt.key = -1;
  for (ClientLog& log : logs) {
    log.keys.resize(keys);
    if (spec.passes) log.kept.resize(keys, unset);
  }
  loop.cache_before = db->plan_cache().stats();
  const double start = NowMs();
  const double deadline = start + seconds * 1000.0;

  auto client_loop = [&](int client) {
    StatementStream stream(spec, seed, client);
    taurus::Rng keep_rng(seed ^ (0xC0FFEEULL + static_cast<uint64_t>(client)));
    ClientLog& log = logs[client];
    while (true) {
      // Pass workloads stop only at a pass boundary, so every statement
      // keeps a sample.
      if ((!spec.passes || stream.AtPassBoundary()) && NowMs() >= deadline) {
        break;
      }
      Execution e;
      e.stmt = stream.Next();
      std::string sql = StatementSql(spec, e.stmt);
      double t0 = NowMs();
      auto r = engine->sessions.empty()
                   ? db->Query(sql)
                   : engine->sessions[client]->Query(sql);
      double t1 = NowMs();
      e.latency_ms = t1 - t0;
      Record(r, &e);
      stream.Observe(e.stmt, e.latency_ms);
      e.correct = e.ok;
      if (e.ok && expected != nullptr) {
        const auto& ref = (*expected)[e.stmt.key];
        e.correct = ref.has_value() && *ref == e.digest;
      }
      log.samples.push_back(Sample{static_cast<float>(t1 - start),
                                   static_cast<float>(e.latency_ms),
                                   e.stmt.key, e.correct,
                                   static_cast<uint16_t>(stream.pass())});
      KeyStats& k = log.keys[e.stmt.key];
      ++k.runs;
      if (!e.correct) ++log.failed;
      if (e.ok) {
        ++k.ok;
        k.correct += e.correct;
        k.orca += e.used_orca;
        k.hits += e.plan_cache_hit;
        k.fallbacks += e.fell_back && !e.shed;
        k.optimize_ms.push_back(static_cast<float>(e.optimize_ms));
        k.execute_ms.push_back(static_cast<float>(e.execute_ms));
        k.rows_scanned.push_back(static_cast<float>(e.rows_scanned));
        log.totals.Add(e);
        Keep(spec, e, capacity, &keep_rng, &log);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& t : threads) t.join();
  loop.wall_s = (NowMs() - start) / 1000.0;
  loop.cache_after = db->plan_cache().stats();

  loop.keys.resize(keys);
  for (ClientLog& log : logs) {
    loop.samples.insert(loop.samples.end(), log.samples.begin(),
                        log.samples.end());
    for (size_t k = 0; k < keys; ++k) {
      KeyStats& to = loop.keys[k];
      const KeyStats& from = log.keys[k];
      to.optimize_ms.insert(to.optimize_ms.end(), from.optimize_ms.begin(),
                            from.optimize_ms.end());
      to.execute_ms.insert(to.execute_ms.end(), from.execute_ms.begin(),
                           from.execute_ms.end());
      to.rows_scanned.insert(to.rows_scanned.end(), from.rows_scanned.begin(),
                             from.rows_scanned.end());
      to.runs += from.runs;
      to.ok += from.ok;
      to.correct += from.correct;
      to.orca += from.orca;
      to.hits += from.hits;
      to.fallbacks += from.fallbacks;
    }
    loop.totals.Merge(log.totals);
    for (const Execution& e : log.kept) {
      if (e.stmt.key >= 0) loop.kept.push_back(e);
    }
    loop.failed += log.failed;
  }
  loop.attempted = static_cast<int64_t>(loop.samples.size());
  return loop;
}

int CheckSample(const WorkloadSpec& spec, taurus::Database* db,
                LoopResult* loop) {
  int checked = 0;
  for (Execution& e : loop->kept) {
    ++checked;
    auto ref = db->Query(StatementSql(spec, e.stmt),
                         taurus::OptimizerPath::kMySql);
    if (ref.ok() && DigestRows(ref->rows) == e.digest) continue;
    e.correct = false;
    --loop->keys[e.stmt.key].correct;
    ++loop->failed;
  }
  return checked;
}

EndToEnd Summarize(const WorkloadSpec& spec, const LoopResult& loop) {
  EndToEnd out;
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  if (out.attempted == 0) return out;
  std::vector<double> lat;
  std::vector<std::vector<double>> by_key(StatementNames(spec).size());
  lat.reserve(loop.samples.size());
  for (const Sample& s : loop.samples) {
    lat.push_back(s.latency_ms);
    if (s.correct) by_key[s.key].push_back(s.latency_ms);
  }
  out.latency_p50_ms = Median(lat);

  // Tail: the run is cut into windows in reply order: one per pass
  // (spec.tail_per_pass), or of at least spec.tail_window statements (one
  // window when the run is shorter, or when tail_window is 0). The tail of
  // each window is taken; the median over windows keeps host stalls from
  // deciding the figure.
  std::vector<Sample> by_end(loop.samples.begin(), loop.samples.end());
  std::sort(by_end.begin(), by_end.end(),
            [](const Sample& a, const Sample& b) { return a.end_ms < b.end_ms; });
  int64_t n = static_cast<int64_t>(by_end.size());
  std::vector<int64_t> bounds = {0};  // window w is [bounds[w], bounds[w+1])
  if (spec.tail_per_pass) {
    for (int64_t i = 1; i < n; ++i) {
      if (by_end[i].pass != by_end[i - 1].pass) bounds.push_back(i);
    }
  } else {
    int64_t windows = spec.tail_window > 0
                          ? std::max<int64_t>(1, n / spec.tail_window)
                          : 1;
    for (int64_t w = 1; w < windows; ++w) bounds.push_back(w * n / windows);
  }
  bounds.push_back(n);
  int64_t windows = static_cast<int64_t>(bounds.size()) - 1;
  std::vector<double> tails, window_lat;
  for (int64_t w = 0; w < windows; ++w) {
    window_lat.clear();
    for (int64_t i = bounds[w]; i < bounds[w + 1]; ++i) {
      window_lat.push_back(by_end[i].latency_ms);
    }
    std::sort(window_lat.begin(), window_lat.end());
    int64_t wn = static_cast<int64_t>(window_lat.size());
    for (double pct : kTailLadder) {
      int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * wn));
      rank = std::clamp<int64_t>(rank, 1, wn);
      if (wn - rank >= 10 || pct == kTailLadder[std::size(kTailLadder) - 1]) {
        tails.push_back(window_lat[rank - 1]);
        out.tail_percentile = pct;
        out.tail_beyond = wn - rank;
        break;
      }
    }
  }
  out.latency_tail_ms = Median(tails);
  out.tail_windows = windows;

  double log_sum = 0.0;
  int with_samples = 0;
  for (auto& v : by_key) {
    if (v.empty()) continue;
    log_sum += std::log(std::max(Median(v), 1e-6));
    ++with_samples;
  }
  if (with_samples > 0) out.geomean_ms = std::exp(log_sum / with_samples);
  out.throughput_qps =
      loop.wall_s > 0 ? (out.attempted - out.failed) / loop.wall_s : 0.0;
  out.error_rate = static_cast<double>(out.failed) / out.attempted;
  return out;
}

std::vector<std::string> StatementRows(const WorkloadSpec& spec,
                                       const LoopResult& loop) {
  std::vector<std::string> names = StatementNames(spec);
  std::vector<std::vector<double>> lat(names.size());
  for (const Sample& s : loop.samples) lat[s.key].push_back(s.latency_ms);
  auto median = [](const std::vector<float>& v) {
    return Median(std::vector<double>(v.begin(), v.end()));
  };
  std::vector<std::string> lines;
  for (size_t k = 0; k < names.size(); ++k) {
    const KeyStats& s = loop.keys[k];
    if (s.runs == 0) continue;
    const char* path = s.orca == 0 ? "mysql" : s.orca == s.ok ? "orca" : "mixed";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "stmt %-16s n=%-6lld median_ms=%.3f optimize_ms=%.3f "
                  "execute_ms=%.3f path=%s orca=%lld/%lld cache_hits=%lld/%lld "
                  "fallbacks=%lld rows_scanned=%.0f correct=%lld/%lld",
                  names[k].c_str(), static_cast<long long>(s.runs),
                  Median(lat[k]), median(s.optimize_ms), median(s.execute_ms),
                  path, static_cast<long long>(s.orca),
                  static_cast<long long>(s.ok), static_cast<long long>(s.hits),
                  static_cast<long long>(s.ok),
                  static_cast<long long>(s.fallbacks), median(s.rows_scanned),
                  static_cast<long long>(s.correct),
                  static_cast<long long>(s.runs));
    lines.push_back(buf);
  }
  return lines;
}

}  // namespace perfbench
