#!/usr/bin/env python3
"""Repository benchmark: build scc_perfbench from source and run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--smoke] [--record-golden]

Run from the repository root. The benchmark program (scc_perfbench) and the
library sources it links are built under $CARGO_TARGET_DIR (default
.bench_build) on first use. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; everything before it is the
human-readable log, with every metric labelled by its clock. See README.md in
this directory for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "serve_replay", "cluster_faults")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out_dir):
    """Configure and build scc_perfbench; the build log goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs, "--target", "scc_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "scc_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
            raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                             f"unexpected {extra}, wrong unit {wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a few ops (self-test)")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from this run (default seed only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_root = build_root()
    binary = build(os.path.join(out_root, "perfbench"))
    os.makedirs(os.path.join(out_root, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(out_root, "tmp"))
    golden = os.path.join(HERE, "golden.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--tmp", scratch]
    if args.record_golden:
        command += ["--record-golden", golden]
    else:
        command += ["--golden", golden]
    if args.trace:
        spans_dir = os.path.join(out_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        command.append("--smoke")
    # scc_perfbench pins SCC_RUN_CACHE / SCC_SIM_THREADS / SCC_TESTBED_SCALE
    # itself; drop every inherited SCC_* knob so none leaks into the library.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCC_")}
    try:
        proc = subprocess.run(command, env=env, cwd=scratch, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"scc_perfbench did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        fail(f"scc_perfbench exited with code {proc.returncode}", 1)
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        print("\n".join(lines[:-1]))
        fail(f"malformed result: {error}", 1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
