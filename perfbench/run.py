#!/usr/bin/env python3
"""Builds the HET benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is the Rust package next to
this file; it is built with cargo (into $CARGO_TARGET_DIR, default
`.bench_build`) against the repository's crates, then run once in a
fresh process, so that its peak memory belongs to this workload alone.

The last line of standard output is the result object
(`correct`, `attempted`, `failed`, `metrics`); the line before it holds
the details of the run, stamped with the host it ran on.

Seeds: 1 is the default seed the benchmark was tuned on; 7919 is the
held-out seed, never used while tuning, on which every output check
must pass as well.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-sim", "train-threads", "serve-tiered")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "rustc": rustc, "cpu": cpu}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no crates/ next to {os.path.basename(HERE)}/: run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("cargo build failed")

    binary = os.path.join(target_dir, "release", "het-perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(target_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    run = subprocess.run(
        command,
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"het-perfbench exited with {run.returncode}")
    lines = run.stdout.strip().split("\n")
    if len(lines) < 2:
        fail("het-perfbench printed no result")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    check_result(result, bool(args.trace))
    detail["host"] = host_facts()
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
