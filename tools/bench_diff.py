#!/usr/bin/env python3
"""Compare two BENCH_*.json artefacts and flag regressions.

Every simulation family of bench_adaflow emits the shared schema
(bench/common.hpp BenchJson), in which each metric states its direction:

    {"bench": "<name>", "schema": 2,
     "scenarios": {"<scenario>": {
       "<metric>": {"value": <number>, "better": "lower|higher|info"}, ...}}}

Usage:
    tools/bench_diff.py OLD.json NEW.json [--tolerance 0.05]

A "lower" or "higher" metric present in both files that moves the wrong way
by more than --tolerance (relative, with a small absolute floor) is a
regression; an "info" metric is only shown. A scenario or metric of the
baseline that the candidate no longer records is a regression too (a family
that stops recording a number must not pass its gate); one only in the
candidate is reported but is not a regression (families grow new scenarios
over time). The script lists every change and exits 1 on any regression. A
malformed artefact — a metric without a direction, or a direction that
differs between the two files — exits 2 with a message.

Stdlib only — no pip dependencies.
"""

import argparse
import json
import sys

DIRECTIONS = ("lower", "higher", "info")


def fail(message):
    sys.stderr.write(f"bench_diff: {message}\n")
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    for key in ("bench", "schema", "scenarios"):
        if key not in doc:
            fail(f"{path} is missing the '{key}' field (not a BenchJson artefact?)")
    if doc["schema"] != 2:
        fail(f"{path} has unsupported schema {doc['schema']}")
    for scenario, metrics in doc["scenarios"].items():
        for metric, entry in metrics.items():
            key = f"{path}: {scenario}.{metric}"
            if not isinstance(entry, dict) or entry.get("better") not in DIRECTIONS:
                fail(f"{key} states no direction ('better' must be one of "
                     f"{', '.join(DIRECTIONS)})")
            if not isinstance(entry.get("value"), (int, float)):
                fail(f"{key} is not numeric")
    return doc


def worsened(better, old, new, tolerance, abs_floor):
    """True when new is worse than old beyond tolerance."""
    if better == "info":
        return False
    delta = new - old if better == "higher" else old - new  # positive = improvement
    if delta >= 0:
        return False
    slack = max(abs(old) * tolerance, abs_floor)
    return -delta > slack


def main():
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json artefacts and flag regressions.")
    parser.add_argument("old", help="baseline artefact")
    parser.add_argument("new", help="candidate artefact")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative slack before a worse value counts as a "
                             "regression (default 0.05)")
    parser.add_argument("--abs-floor", type=float, default=1e-9,
                        help="absolute slack floor for near-zero baselines")
    args = parser.parse_args()

    old_doc = load(args.old)
    new_doc = load(args.new)
    if old_doc["bench"] != new_doc["bench"]:
        fail(f"comparing different benches: '{old_doc['bench']}' vs '{new_doc['bench']}'")

    old_s = old_doc["scenarios"]
    new_s = new_doc["scenarios"]
    regressions = []
    improvements = 0
    unchanged = 0

    for scenario in sorted(set(old_s) | set(new_s)):
        if scenario not in new_s:
            regressions.append(scenario)
            print(f"  [GONE]  {scenario} (only in {args.old})")
            continue
        if scenario not in old_s:
            print(f"  [new]   {scenario} (only in {args.new})")
            continue
        for metric in sorted(set(old_s[scenario]) | set(new_s[scenario])):
            key = f"{scenario}.{metric}"
            if metric not in new_s[scenario]:
                regressions.append(key)
                print(f"  [GONE]  {key} (only in {args.old})")
                continue
            if metric not in old_s[scenario]:
                print(f"  [new]   {key} (only in {args.new})")
                continue
            old_e = old_s[scenario][metric]
            new_e = new_s[scenario][metric]
            better = old_e["better"]
            if new_e["better"] != better:
                fail(f"{key} is '{better}' in {args.old} but '{new_e['better']}' in {args.new}")
            old_v = old_e["value"]
            new_v = new_e["value"]
            if old_v == new_v:
                unchanged += 1
            elif worsened(better, old_v, new_v, args.tolerance, args.abs_floor):
                regressions.append(key)
                print(f"  [WORSE] {key}: {old_v:g} -> {new_v:g}")
            else:
                improvements += 1
                arrow = "better" if better != "info" else "changed"
                print(f"  [ok]    {key}: {old_v:g} -> {new_v:g} ({arrow})")

    print(f"bench_diff: {old_doc['bench']}: {len(regressions)} regression(s), "
          f"{improvements} changed-ok, {unchanged} unchanged "
          f"(tolerance {args.tolerance:g})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
