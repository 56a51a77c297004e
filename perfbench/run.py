#!/usr/bin/env python3
"""AdaFlow benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the perfbench CMake project (the AdaFlow
libraries from src/ plus the program in perfbench/src) under .bench_build/ on
first use, runs the workload in its own process, and passes its output
through with the units of BENCHMARK.json attached. The last stdout line is
the result object:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes a Chrome trace to
.bench_build/perfbench-out/traces/. Exits non-zero, without a result line,
when the build fails or the program's output breaks that contract.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
OUT_DIR = BUILD_ROOT / "perfbench-out"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(target):
    """Configures and builds `target`, serialised by a lock file so that
    concurrent invocations in one checkout build once. Returns its path."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "perfbench-build.log"
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD_DIR), "-j", str(min(os.cpu_count() or 1, 4)),
             "--target", target],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                sys.exit(1)
    return BUILD_DIR / target


def contract_result(line, spec, trace):
    """The program's result line, {"correct", "attempted", "failed",
    "metrics": {name: value}}, as the benchmark's result object: each metric
    gets its unit from BENCHMARK.json, the one metric catalogue. An untraced
    run must report every end_to_end metric. A traced run reports the
    per_layer metrics of the layers its workload calls; the others read 0."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys are %s" % sorted(result))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        raise ValueError("no operation attempted")
    expected = spec["per_layer" if trace else "end_to_end"]
    values = result["metrics"]
    extra = sorted(set(values) - {m["name"] for m in expected})
    missing = [m["name"] for m in expected if m["name"] not in values]
    if extra or (missing and not trace):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s"
                         % (missing, extra))
    result["metrics"] = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                     "unit": m["unit"]} for m in expected}
    return result


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (args.workload, RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: program exited with %d\n" % proc.returncode)
        return 1
    try:
        result = contract_result(lines[-1], spec, args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: bad result line: %s\n" % e)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
