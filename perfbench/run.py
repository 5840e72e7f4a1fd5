#!/usr/bin/env python3
"""perfbench: builds the benchmark from source, runs one workload and
prints its result as the last line of stdout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--holdout]

Builds (under .bench_build/perfbench/ at the repository root):
  release/  the Release binary every timed run uses
  audit/    the -DEPIAGG_RNG_AUDIT flavour, built and used by traced runs
            only, to read the per-scope draw ledger (common.rng.* metrics)

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics and writes the span log and the metric line to
.bench_build/perfbench/traces/. Build output goes to stderr, so stdout
carries only the result. Exits non-zero, printing no result, when the
library sources are missing or a build or run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cycle-avg", "event-avg", "size-churn", "newscast-monitor")
FLAVOURS = {"release": "OFF", "audit": "ON"}
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(flavour):
    """Configures (once) and builds one flavour; returns the binary path."""
    build_dir = os.path.join(BUILD_ROOT, flavour)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
             f"-DPERFBENCH_RNG_AUDIT={FLAVOURS[flavour]}"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def build_all(flavours):
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # Concurrent runs in one checkout build once; the others wait.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return {flavour: build(flavour) for flavour in flavours}


def run(argv):
    """Runs one perfbench process; returns its last stdout line as JSON."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(argv[0])} exited with "
                           f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--holdout", action="store_true",
                        help="draw inputs from the held-out seed family")
    args = parser.parse_args()

    try:
        binaries = build_all(("release", "audit") if args.trace == "1"
                             else ("release",))
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.holdout:
        common.append("--holdout")
    tag = f"{args.workload}-seed{args.seed}{'-holdout' if args.holdout else ''}"
    try:
        if args.trace == "0":
            result = run([binaries["release"], *common, "--seconds",
                          str(args.seconds), "--trace", "0"])
        else:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            ledger = os.path.join(traces, f"{tag}.ledger")
            run([binaries["audit"], *common, "--ledger-out", ledger])
            result = run([binaries["release"], *common, "--seconds",
                          str(args.seconds), "--trace", "1", "--ledger-in",
                          ledger, "--trace-out",
                          os.path.join(traces, f"{tag}.spans.json")])
            if result is not None:
                with open(os.path.join(traces, f"{tag}.metrics.json"), "w") as out:
                    json.dump(result, out, indent=1, sort_keys=True)
    except (OSError, RuntimeError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as err:
        log(f"run failed: {err}")
        return 1
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("run printed no result line")
        return 1

    for name, metric in sorted(result["metrics"].items()):
        log(f"{args.workload:<17} {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
