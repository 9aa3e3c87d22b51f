#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

usage: python3 perfbench/selftest.py

Runs every workload at a tiny testbed scale for a few ops, untraced and
traced, through run.py, and validates each result object: its keys, the
metric names and units BENCHMARK.json promises, finite values, no failed
ops. Exits 0 when every run passes. Takes well under a minute after the
first build.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "serve_replay", "cluster_faults")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if got != wanted:
                problems.append("metric names/units differ from BENCHMARK.json")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append("non-finite value")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                                f"failed={result['failed']}")
            print(f"{label}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
            failures += [f"{label}: {p}" for p in problems]
    for failure in failures:
        print(f"selftest failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
