// perfbench: the repository benchmark. perfbench/run.py builds and runs
// it; README.md defines the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--expected-dir <dir>] [--out-dir <dir>]
//             [--commit <id>] [--generate-expected]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "measure.h"
#include "replay.h"
#include "results.h"
#include "verify/diagnostics.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

// Seconds every hardware thread spins before the first set-up. On the
// reference host (a 4-vCPU VM) CPUs that have sat idle for a while are slow
// to join a morsel-parallel pipeline: for minutes at a time TPC-H Q1 took
// 25-30 ms instead of 8-10 ms and Q17 55-65 ms instead of 30-36 ms,
// depending on what the host ran before the benchmark. Three seconds of
// load on every CPU put every tpch_power run measured into the faster
// state.
constexpr double kCpuWarmUpS = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool generate_expected = false;
  std::string expected_dir = "perfbench/expected";
  std::string out_dir = ".bench_build/results";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--smoke") {
      args->smoke = true;
    } else if (a == "--generate-expected") {
      args->generate_expected = true;
    } else if (!value(&v)) {
      return false;
    } else if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args->trace = v == "1";
    } else if (a == "--expected-dir") {
      args->expected_dir = v;
    } else if (a == "--out-dir") {
      args->out_dir = v;
    } else if (a == "--commit") {
      args->commit = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

// Debug and sanitizer builds arm the plan verifiers and the lock-rank
// registry; their timings are not comparable with a release build.
const char* BuildRefusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  return "sanitizer build";
#endif
  if (taurus::kVerifyPlansDefault) return "plan verifiers armed by default";
  if (taurus::kLockRankChecksDefault) return "lock-rank checks armed";
  return nullptr;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string RunRecord(const Args& args, const WorkloadSpec& spec) {
  std::ostringstream os;
  os << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
     << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"smoke\": " << (args.smoke ? "true" : "false")
     << ", \"dataset\": \"" << DatasetName(spec.dataset)
     << "\", \"scale_factor\": " << spec.scale
     << ", \"sessions\": " << spec.sessions
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_warm_up_s\": " << kCpuWarmUpS
     << ", \"compiler\": \"" << JsonEscape(
#ifdef __clang__
                                    "clang "
#else
                                    "gcc "
#endif
                                    __VERSION__)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"commit\": \"" << JsonEscape(args.commit) << "\"}";
  return os.str();
}

void WarmUpCpus(double seconds) {
  const double until = NowMs() + seconds * 1000.0;
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    threads.emplace_back([until] {
      volatile uint64_t sink = 0;
      while (NowMs() < until) {
        for (int j = 0; j < 10000; ++j) sink = sink + j;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metric units (BENCHMARK.json lists the same names).
const std::map<std::string, std::string>& LayerUnits() {
  static const std::map<std::string, std::string> units = {
      {"parser.parse_ms", "ms"},
      {"frontend.bind_ms", "ms"},
      {"frontend.prepare_ms", "ms"},
      {"frontend.fingerprint_ms", "ms"},
      {"engine.plan_cache.hit_ratio", "share"},
      {"engine.plan_cache.evictions", "count/stmt"},
      {"engine.hit_compile_ms", "ms"},
      {"engine.residual_ms", "ms"},
      {"bridge.orca_route_share", "share"},
      {"bridge.fallback_share", "share"},
      {"bridge.orca_detour_ms", "ms"},
      {"orca.memo_groups", "count"},
      {"orca.partition_pairs", "count"},
      {"orca.us_per_pair", "us"},
      {"mdp.dxl_requests", "count"},
      {"mdp.cache_hit_ratio", "share"},
      {"myopt.mysql_optimize_ms", "ms"},
      {"myopt.refine_ms", "ms"},
      {"exec.execute_ms", "ms"},
      {"exec.rows_scanned", "count/stmt"},
      {"exec.index_lookups", "count/stmt"},
      {"exec.rebinds", "count/stmt"},
      {"exec.scanned_per_returned", "ratio"},
      {"exec.ns_per_scanned_row", "ns"},
      {"exec.parallel_pipelines", "count/stmt"},
      {"exec.batch_row_share", "share"},
      {"exec.worker_idle_share", "share"},
      {"server.admission_wait_ms", "ms"},
      {"server.queued_share", "share"},
      {"server.shed_share", "share"},
      {"trace.overhead_share", "share"},
  };
  return units;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics,
                 const std::string& record, const std::vector<std::string>& rows,
                 const Args& args) {
  std::ostringstream m;
  m << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    m << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
      << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  m << "}";
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": " << m.str() << "}";

  // The full record (run conditions, metrics, per-statement rows) also
  // goes to a file under --out-dir.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::string path = args.out_dir + "/" + args.workload + "_seed" +
                     std::to_string(args.seed) + "_trace" +
                     (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"run\": " << record << ", \"result\": " << result.str()
      << ", \"statements\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << (i ? ", " : "") << "\"" << JsonEscape(rows[i]) << "\"";
  }
  out << "]}\n";
  std::printf("results written to %s\n", path.c_str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  auto spec_or = FindWorkload(args.workload, args.smoke);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_or;
  if (args.generate_expected) {
    if (!spec.passes) {
      std::fprintf(stderr, "%s has no stored references\n", spec.name.c_str());
      return 2;
    }
    auto set = ComputeExpected(spec, ExpectedPath(args.expected_dir, spec));
    if (!set.ok()) {
      std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
      return 1;
    }
    return 0;
  }

  std::string record = RunRecord(args, spec);
  std::printf("run_record %s\n", record.c_str());

  // References for pass workloads: the committed files, or in smoke mode
  // computed on the spot (forced MySQL path, cross-checked against kAuto).
  ExpectedSet expected;
  if (spec.passes) {
    auto set = args.smoke ? ComputeExpected(spec, "")
                          : LoadExpected(args.expected_dir, spec);
    if (!set.ok()) {
      std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
      return 1;
    }
    expected = std::move(*set);
  }

  WarmUpCpus(kCpuWarmUpS);

  // Set-up: kSetups times for setup_s (each engine is dropped before the
  // next is built), once for a traced run.
  std::vector<double> setup_s;
  Engine engine;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    engine = Engine();
    double t0 = NowMs();
    auto e = SetUp(spec);
    setup_s.push_back((NowMs() - t0) / 1000.0);
    if (!e.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   e.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*e);
  }

  LoopResult loop = RunLoop(spec, &engine, args.seed, args.seconds,
                            spec.passes ? &expected : nullptr);
  int checked = 0;
  if (!spec.passes) {
    checked = CheckSample(spec, engine.db.get(), &loop);
  }
  EndToEnd e2e = Summarize(spec, loop);
  std::vector<std::string> rows = StatementRows(spec, loop);
  for (const std::string& r : rows) std::printf("%s\n", r.c_str());
  std::printf("workload %s: %lld statements in %.2f s; %lld failed; %s\n",
              spec.name.c_str(), static_cast<long long>(e2e.attempted),
              loop.wall_s, static_cast<long long>(e2e.failed),
              spec.passes ? "every statement checked against its reference"
                          : (std::to_string(checked) +
                             " sampled statements checked on the forced MySQL "
                             "path")
                                .c_str());

  const taurus::PlanCacheStats& c0 = loop.cache_before;
  const taurus::PlanCacheStats& c1 = loop.cache_after;
  std::printf("plan cache: %lld hits, %lld misses, %lld evictions\n",
              static_cast<long long>(c1.hits - c0.hits),
              static_cast<long long>(c1.misses - c0.misses),
              static_cast<long long>(c1.evictions - c0.evictions));

  std::vector<Metric> metrics;
  bool correct = e2e.failed == 0;
  int64_t attempted = e2e.attempted;
  int64_t failed = e2e.failed;
  if (!args.trace) {
    std::printf("setup_s = %.4f s (median of %zu set-ups)\n",
                Median(setup_s), setup_s.size());
    std::printf("latency_p50_ms = %.4f ms\n", e2e.latency_p50_ms);
    std::printf("latency_tail_ms = %.4f ms (p%g, %lld samples beyond it in "
                "each of %lld windows; %lld samples)\n",
                e2e.latency_tail_ms, e2e.tail_percentile,
                static_cast<long long>(e2e.tail_beyond),
                static_cast<long long>(e2e.tail_windows),
                static_cast<long long>(e2e.attempted));
    std::printf("geomean_ms = %.4f ms\n", e2e.geomean_ms);
    std::printf("throughput_qps = %.4f 1/s\n", e2e.throughput_qps);
    std::printf("error_rate = %.6f share (%lld of %lld)\n", e2e.error_rate,
                static_cast<long long>(e2e.failed),
                static_cast<long long>(e2e.attempted));
    double rss = PeakRssMb();
    std::printf("peak_rss_mb = %.2f MB\n", rss);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms", e2e.latency_p50_ms, "ms"},
        {"latency_tail_ms", e2e.latency_tail_ms, "ms"},
        {"geomean_ms", e2e.geomean_ms, "ms"},
        {"throughput_qps", e2e.throughput_qps, "1/s"},
        // The JSON carries 1 - error_rate: an end-to-end metric must never
        // read 0, or a bound relative to its median means nothing.
        {"success_rate", 1.0 - e2e.error_rate, "share"},
        {"peak_rss_mb", rss, "MB"},
    };
  } else {
    std::string spans_path = args.out_dir + "/spans_" + spec.name + "_seed" +
                             std::to_string(args.seed) + ".jsonl";
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    LayerReport layers =
        TraceLayers(spec, &engine, loop, spans_path);
    std::printf("traced replay: %d statements, %d row mismatches, %d replay "
                "errors; replayed / engine time (median per statement): "
                "compile %.3f, execute %.3f (tolerance +-%.2f): %s; spans in "
                "%s\n",
                layers.replayed, layers.row_mismatches, layers.replay_errors,
                layers.compile_ratio, layers.execute_ratio, kStageTimeTolerance,
                layers.stage_times_match ? "match" : "MISMATCH",
                spans_path.c_str());
    attempted += layers.replayed;
    failed += layers.row_mismatches + layers.replay_errors;
    correct = correct && layers.row_mismatches == 0 &&
              layers.replay_errors == 0 && layers.stage_times_match;
    for (const auto& [name, unit] : LayerUnits()) {
      auto it = layers.metrics.find(name);
      double v = it != layers.metrics.end() ? it->second : 0.0;
      std::printf("%s = %.6g %s\n", name.c_str(), v, unit.c_str());
      metrics.push_back({name, v, unit});
    }
  }
  engine = Engine();
  PrintResult(correct, attempted, failed, metrics, record, rows, args);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--expected-dir <dir>] "
                 "[--out-dir <dir>] [--commit <id>] [--generate-expected]\n");
    return 2;
  }
  if (const char* why = perfbench::BuildRefusal()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why);
    return 3;
  }
  return perfbench::Run(args);
}
