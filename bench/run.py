"""triples2text benchmark: one workload per call, results as JSON.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory. ``--workload all`` runs the four workloads one after
another, each in its own process. The last line of standard output is
the result: ``correct``, ``attempted``, ``failed`` and the metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``). The line
before it is a report with the environment, the workload's figures under
their own names, quality figures, output digests and failed checks. The
exit code is 0 when every output check passed, 1 when one failed and 2
on a usage error or a checkout without the program. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

BLAS_THREADS = "1"  # fixed, at most nproc, the same for every commit measured
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("corpus", "train-desk", "train-wide", "generate")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process, so peak RSS stays per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None, profile=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "triples2text", "__init__.py")):
        print(f"no triples2text sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, src)
    import workloads  # after sys.path and the BLAS settings are in place

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl") if args.trace else None
    try:
        result, report = workloads.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), profile or workloads.FULL,
                                       workdir, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.exit(main())
