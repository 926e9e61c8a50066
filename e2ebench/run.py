#!/usr/bin/env python3
"""End-to-end (g, eps)-SUM pipeline benchmark.

Builds the benchmark package (e2ebench/CMakeLists.txt, which compiles the
gstream library from ../src) into .bench_build/e2ebench, then runs one
workload:

    python3 e2ebench/run.py --workload zipf_onepass --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run.  The exit code is
nonzero when the build fails or any correctness check fails.

    python3 e2ebench/run.py --selftest

runs the benchmark's self-tests: the generator / reference / tracer checks
of e2e_selftest, then every workload at a small scale in both modes,
checking that each metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SELFTEST_SCALE = "0.02"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 1
    except OSError as e:
        log("cannot run %s: %s" % (cmd[0], e))
        return 1


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if run_quiet(configure, BUILD_TIMEOUT_S) != 0:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if run_quiet(configure, BUILD_TIMEOUT_S) != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                      "e2e_bench", "e2e_selftest"], BUILD_TIMEOUT_S) == 0


def run_bench(workload, seed, seconds, trace, scale=None):
    """Runs one workload; returns (exit code, stdout text)."""
    workdir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    cmd = [os.path.join(BUILD_DIR, "e2e_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    if scale is not None:
        cmd += ["--scale", scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out after %d s" % RUN_TIMEOUT_S)
        return 1, ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selftest():
    if run_quiet([os.path.join(BUILD_DIR, "e2e_selftest"),
                  os.path.join(BUILD_DIR, "selftest")], RUN_TIMEOUT_S) != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_bench(workload, 1, "0.2", trace, SELFTEST_SCALE)
            result = last_json(out)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {} if result is None else {
                name: m.get("unit") for name, m in result["metrics"].items()}
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and got == want)
            if not ok:
                failures += 1
                log("missing: %s, unexpected: %s" % (
                    sorted(set(want.items()) - set(got.items())),
                    sorted(set(got.items()) - set(want.items()))))
            print("%s  %s --trace %d: every %s metric with its unit" % (
                "ok  " if ok else "FAIL", workload, trace, key))
    print("%s: %d failed" % ("PASS" if failures == 0 else "FAIL", failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if args.selftest:
        return selftest()
    code, out = run_bench(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
