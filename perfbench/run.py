#!/usr/bin/env python3
"""Build and run the PRLC end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (an optimized build of the
library sources plus prlc_perfbench) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one measurement. Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
With --trace 1 the recorded spans are written next to the build as
spans-<workload>-<seed>.jsonl.

The second form proves the correctness gate is not vacuous: a clean run
passes, and a single flipped decoded byte, an undercounted integrity
violation and an inverted first_loss each make the benchmark fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk_archive", "wide_hostile", "cluster_lifetime")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build; returns the binary path or None."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "prlc_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return out / "prlc_perfbench"


def self_test(binary):
    """Each planted fault must fail the run and be named; a clean run passes."""
    cases = [
        (None, "bulk_archive", None),
        ("decoded-byte", "bulk_archive", "decoded_bytes:"),
        ("violation-count", "wide_hostile", "integrity_violations:"),
        ("first-loss", "cluster_lifetime", "first_loss:"),
    ]
    ok = True
    for inject, workload, expect in cases:
        cmd = [str(binary), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
        if inject:
            cmd += ["--inject", inject]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if expect is None:
            lines = proc.stdout.strip().splitlines()
            passed = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        else:
            passed = proc.returncode == 1 and expect in proc.stderr
        print(f"self-test {inject or 'clean'} on {workload}: "
              f"exit {proc.returncode} -> {'ok' if passed else 'FAILED'}")
        if not passed:
            sys.stderr.write(proc.stderr)
        ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if args.self_test:
        return self_test(binary)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out", str(build_dir() / f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
