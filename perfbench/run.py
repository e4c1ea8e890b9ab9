#!/usr/bin/env python3
"""Builds and runs the closed-loop benchmark of the collective service.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S \
        --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark compiles the hypercoll
libraries from ./src together with the hcbench binary into
.bench_build/perfbench (an incremental no-op after the first run), then runs
hcbench for the workload. The last stdout line is its JSON result; with
--workload all every workload runs in turn and the last line aggregates them
(metric names prefixed with the workload). Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["steady_hot", "bulk_combine", "cold_churn", "wire_uds"]


def build():
    """Configures and builds the benchmark; exits nonzero on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(done.returncode or 1)


def git_sha():
    """HEAD's commit, with "-dirty" when the work tree has changes;
    "unknown" when git or a repository is not there."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def run_workload(name, args, sha):
    """Runs hcbench for one workload; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD, "hcbench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", sha]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    build()
    if args.selftest:
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT,
            check=False).returncode)

    sha = git_sha()
    if args.workload != "all":
        rc, lines = run_workload(args.workload, args, sha)
        print("\n".join(lines), flush=True)
        sys.exit(rc)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        rc, lines = run_workload(name, args, sha)
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or rc
        try:
            result = json.loads(lines[-1])
        except ValueError:
            sys.stderr.write("perfbench: %s printed no result\n" % name)
            sys.exit(rc or 1)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, metric)] = body
    print(json.dumps(total), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
