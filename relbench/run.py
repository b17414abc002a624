#!/usr/bin/env python3
"""Build relbench's bench_server from this checkout and run one workload.

    python3 relbench/run.py --workload W --seed N --seconds S --trace 0|1
                            [--json FILE] [--rev REV]

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/relbench (default .bench_build/relbench), and so do
the run's temp files (WAL, checkpoint) and, with --trace 1, the Chrome
trace file. The last line of standard output is the result object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
--json FILE appends the run's full report (metadata, sample counts) to
the "runs" list of FILE, which relbench/compare.py reads.
The exit code is 0 only if the build succeeded and every correctness
check of the run passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A first run builds and then runs; together they stay under 900 s.
BUILD_SECONDS = 700
RUN_SECONDS = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "relbench"


def build(bdir, env):
    """Configures and builds bench_server; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_SECONDS
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(bdir), "-j", jobs,
             "--target", "bench_server"],
        ):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env,
                                  timeout=max(1, deadline - time.monotonic()))
            if done.returncode != 0:
                return False
    return True


def append_report(report_path, target, workload):
    with open(report_path) as f:
        report = json.load(f)
    data = {"bench": "relbench", "workload": workload, "runs": []}
    if os.path.exists(target):
        with open(target) as f:
            data = json.load(f)
    data["runs"].append(report)
    with open(target, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    ap.add_argument("--rev")
    args = ap.parse_args()

    bdir = build_dir()
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compiler and run scratch files stay inside the build directory.
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        if not build(bdir, env):
            print("relbench: build failed", file=sys.stderr)
            return 1
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"relbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(bdir / "bench_server"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--tmp", str(tmp)]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    report = tmp / f"report-{os.getpid()}.json"
    if args.json:
        cmd += ["--json", str(report)]
    if args.rev:
        cmd += ["--rev", args.rev]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_SECONDS)
    except subprocess.TimeoutExpired:
        print("relbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if args.json and report.exists():
        append_report(report, args.json, args.workload)
        report.unlink()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
