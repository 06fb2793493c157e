#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cloud-adapt, ycsb-sepgc, proto-commit (see perfbench/src/workloads.h).
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout. The benchmark's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The traced run (--trace 1) also
writes its sampled spans to <build dir>/spans/<workload>-seed<n>.json.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    out = os.path.join(build_dir(), "perfbench")
    configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if _have("ninja") else []
    steps = [configure, ["cmake", "--build", out, "--parallel", "4"]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if r.returncode != 0:
            return None
    binary = os.path.join(out, "adapt_perfbench")
    return binary if os.path.exists(binary) else None


def _have(tool):
    return any(
        os.access(os.path.join(p, tool), os.X_OK)
        for p in os.environ.get("PATH", "").split(os.pathsep)
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the inputs (for the benchmark's own tests)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
