#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke                 # the benchmark's own test
  python3 perfbench/run.py --generate-expected     # rewrite perfbench/expected/

The engine is compiled from ../src into $CARGO_TARGET_DIR (default
.bench_build) as a RelWithDebInfo build. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}", 2)
    out = build_dir() / "perfbench"
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}", 2)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 2)
    return out / "perfbench"


def source_id():
    """Git commit when the checkout has one, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(binary, args):
    cmd = [str(binary), "--expected-dir", str(BENCH_DIR / "expected"),
           "--out-dir", str(build_dir() / "results"),
           "--commit", source_id()] + args
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    sys.stderr.write(r.stderr)
    return r


def check_result(stdout, trace):
    """Parses the last line and checks it names every metric of the mode
    with its unit. Returns (result, problems)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return result, problems
    wanted = spec()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            problems.append(f"metric {m['name']} missing")
        elif got[m["name"]].get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} unit "
                            f"{got[m['name']].get('unit')} != {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    return result, problems


def run_one(args):
    binary = build()
    r = run_binary(binary, ["--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)])
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"perfbench exited with {r.returncode}", r.returncode or 1)
    result, problems = check_result(r.stdout, args.trace == 1)
    if problems:
        sys.stderr.write(r.stdout)
        fail("; ".join(problems))
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


def smoke():
    """Every workload, untraced and traced, at a tiny scale: every metric is
    printed with its unit, error_rate is 0, and the traced replay's rows
    equal the untraced loop's rows (a mismatch makes `correct` false)."""
    binary = build()
    failures = []
    for w in spec()["workloads"]:
        for trace in (0, 1):
            name = f"{w['name']} trace={trace}"
            r = run_binary(binary, ["--smoke", "--workload", w["name"],
                                    "--seed", "1", "--seconds", "1",
                                    "--trace", str(trace)])
            if r.returncode != 0:
                failures.append(f"{name}: exit {r.returncode}")
                continue
            result, problems = check_result(r.stdout, trace == 1)
            problems = list(problems)
            if result and not problems:
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"correct={result['correct']} "
                                    f"failed={result['failed']}")
                if trace == 0 and "error_rate = 0.000000" not in r.stdout:
                    problems.append("error_rate is not 0")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {name}: {status}", flush=True)
            failures += [f"{name}: {p}" for p in problems]
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--generate-expected", action="store_true")
    args = p.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"{ROOT / 'BENCHMARK.json'} not found", 2)
    if args.smoke:
        sys.exit(smoke())
    if args.generate_expected:
        binary = build()
        for w in ("tpch_power", "tpcds_adhoc"):
            r = run_binary(binary, ["--generate-expected", "--workload", w])
            sys.stdout.write(r.stdout)
            if r.returncode != 0:
                fail(f"generating references for {w} failed")
        return
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}", 2)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    run_one(args)


if __name__ == "__main__":
    main()
