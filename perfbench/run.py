"""spinqfi benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze_pure, analyze_mixed, crb_measure, cli_cold (see README.md
beside this file). Every workload runs in its own fresh worker process with a
single caller. With --trace 0 the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a separate traced run. The line before it carries the details:
error_rate, the tail percentile and its sample count, set-up samples, the
raw wall-clock figures, the environment and the first problems found.
Op times are normalized to a nominal machine speed; calib.py says how and
why.

The library is imported from ./src of the checkout; nothing is installed.
"""
import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("analyze_pure", "analyze_mixed", "crb_measure", "cli_cold")
SETUP_SAMPLES = 3          # set-ups per run for the in-process workloads
WORKER_TIMEOUT_S = 170.0
MAX_BLAS_THREADS = 2

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_environment() -> None:
    """Import path and BLAS thread cap for the worker processes."""
    os.environ["PYTHONPATH"] = SRC
    threads = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def run_worker(args, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinqfi", "__init__.py")):
        sys.stderr.write(f"no spinqfi sources under {SRC}; run from a full checkout\n")
        return 2
    compileall.compile_dir(os.path.join(SRC, "spinqfi"), quiet=1)
    set_environment()
    runs = []
    if args.workload != "cli_cold" and not args.trace:
        runs = [run_worker(args, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(args)
    if args.workload == "cli_cold":
        setups = result["setup_samples"]
    else:
        setups = [r["setup_s"] for r in runs + [result]]
    result["setup_s"] = statistics.median(setups)

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in METRICS.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    warm_attempted, warm_failed = result.get("warmup", (0, 0))
    attempted = result["attempted"] + warm_attempted
    failed = result["failed"] + warm_failed
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "op_tail": result["tail"], "passes": result["passes"],
        "setup_samples_s": setups, "raw_wall": result["raw"],
        "env": result["env"], "problems": result["problems"],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not result["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
