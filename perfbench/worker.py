"""Run one workload in this fresh process and print its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --spawned-at T [--setup-only]

`run.py` starts this process; `--spawned-at` is its time.monotonic() just
before the start, so set-up is measured from process start. Set-up covers
`import spinqfi`, input generation and one untimed warm-up op at each size.
The timed part then runs whole passes over the workload's ops, one caller in
a closed loop, until the timed op time reaches --seconds. Op times are
normalized to the nominal machine speed of calib.py, and so is the --seconds
budget, so the pass count does not follow the host's drift. Every op's
output is checked after its timer stops.

With --trace 1 the process instead records spans: set-up and warm-up traced,
then one untraced pass (the overhead baseline), then at least two traced
passes whose per-layer metrics are averaged; counts must repeat exactly.
"""
import time

STARTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_SAMPLES = 3
MAX_PROBLEMS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    p.add_argument("--setup-only", action="store_true", dest="setup_only")
    return p.parse_args(argv)


def tail_percentile(n: int):
    """Highest whole percentile with at least ten samples beyond it (nearest
    rank), as (percentile, rank); None when there are ten samples or fewer."""
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)
    return p, rank


def latency_stats(latencies):
    out = {"ops_per_s": len(latencies) / sum(latencies),
           "op_p50_s": statistics.median(latencies)}
    ranked = sorted(latencies)
    tail = tail_percentile(len(ranked))
    if tail is None:
        out["op_tail_s"], detail = ranked[-1], {"percentile": 100, "beyond": 0}
    else:
        p, rank = tail
        out["op_tail_s"], detail = ranked[rank - 1], {"percentile": p,
                                                       "beyond": len(ranked) - rank}
    detail["samples"] = len(ranked)
    return out, detail


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


class Runner:
    """Timed passes over a list of ops, with per-op checks."""

    def __init__(self, op_list, reference):
        self.ops = op_list
        self.reference = reference
        self.latencies = []      # wall seconds
        self.normalized = []     # nominal-speed seconds, see calib.py
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_op(self, op, **kw) -> float:
        """Run, time and check one op; returns its wall time."""
        self.attempted += 1
        before = calib.kernel_s()
        t0 = time.perf_counter()
        try:
            out = op.run(**kw)
        except Exception as exc:  # an op that raises is a failed op; keep going
            out, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - t0
        self.latencies.append(elapsed)
        self.normalized.append(elapsed * calib.scale(before, calib.kernel_s()))
        if error is not None:
            self._fail(op, [f"raised {type(error).__name__}: {error}"])
            return elapsed
        try:
            problems = op.check(out, self.reference)
        except Exception as exc:  # a malformed output fails its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(op, problems)
        return elapsed

    def _fail(self, op, problems):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{op.name}: {'; '.join(problems)}")

    def run_pass(self, **kw) -> float:
        """One pass; returns its normalized op time."""
        first = len(self.normalized)
        for op in self.ops:
            self.run_op(op, **kw)
        return sum(self.normalized[first:])


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def warm_up(runner: Runner):
    """One untimed op at each size; returns (attempted, failed) among them."""
    seen = set()
    for op in runner.ops:
        if op.n not in seen:
            seen.add(op.n)
            runner.run_op(op)
    counts = runner.attempted, runner.failed
    runner.latencies.clear()
    runner.normalized.clear()
    runner.attempted = runner.failed = 0
    return counts


def in_process(args, workdir: str):
    t0 = time.perf_counter()
    import spinqfi  # noqa: F401
    import spinqfi.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    rec = tracing.Recorder()
    if args.trace:
        rec.install()
        rec.op = "setup"
    op_list = ops.BUILDERS[args.workload](args.seed, workdir)
    runner = Runner(op_list, load_reference())
    warmup = warm_up(runner)
    first_op_at = time.monotonic()
    result = {"setup_s": first_op_at - args.spawned_at, "warmup": warmup}
    if args.setup_only:
        return result, runner
    if not args.trace:
        while sum(runner.normalized) < args.seconds:
            runner.run_pass()
    else:
        rec.uninstall()
        untraced = runner.run_pass()
        rec.install()
        traced, pass_metrics = [], []
        while len(traced) < 2 or sum(runner.normalized) < args.seconds:
            start, first = len(rec.spans), len(runner.latencies)
            for i, op in enumerate(runner.ops):
                rec.op = (len(traced), i)
                runner.run_op(op)
            rec.op = None
            spans = tracing.local(rec.spans, start, len(rec.spans))
            by_op = defaultdict(list)
            for s in spans:
                by_op[s[tracing.OP]].append(s)
            residual = [wall - tracing.covered(by_op[(len(traced), i)])
                        for i, wall in enumerate(runner.latencies[first:])]
            traced.append(sum(runner.normalized[first:]))
            m = tracing.layer_metrics(spans)
            m["trace.residual_s"] = statistics.mean(residual)
            pass_metrics.append(m)
        rec.uninstall()
        layers = combine_passes(pass_metrics, runner)
        layers.update(tracing.collective_metrics(rec.spans))
        layers["cli.interpreter_s"] = STARTED_AT - args.spawned_at
        layers["cli.import_s"] = import_s
        layers["trace.overhead_ratio"] = statistics.mean(traced) / untraced
        result["layers"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result, runner


def combine_passes(pass_metrics, runner: Runner) -> dict:
    """Mean over traced passes; exact counts must agree between passes."""
    out = {}
    for key in pass_metrics[0]:
        values = [m[key] for m in pass_metrics]
        if key in tracing.EXACT and len(set(values)) != 1:
            runner.problems.append(f"count {key} differs between passes: {values}")
        out[key] = statistics.mean(values)
    return out


def cold_cli(args, workdir: str):
    setups = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "import spinqfi"], check=True,
                       timeout=ops.CLI_TIMEOUT_S)
        setups.append(time.monotonic() - t0)
    op_list = ops.cli_cold_ops(args.seed, workdir)
    runner = Runner(op_list, load_reference())
    result = {"setup_samples": setups}
    if not args.trace:
        while sum(runner.normalized) < args.seconds:
            runner.run_pass()
    else:
        untraced = runner.run_pass()
        traced, pass_metrics = [], []
        span_path = os.path.join(workdir, "spans.json")
        while len(traced) < 2 or sum(runner.normalized) < args.seconds:
            merged, residual, interp, imports = [], [], [], []
            first = len(runner.normalized)
            for op in runner.ops:
                if os.path.exists(span_path):
                    os.remove(span_path)
                spawned = time.monotonic()
                wall = runner.run_op(op, traced=True, span_path=span_path)
                if not os.path.exists(span_path):  # the op failed and is counted so
                    continue
                with open(span_path, "r", encoding="utf-8") as fh:
                    child = json.load(fh)
                offset = len(merged)
                for s in child["spans"]:
                    if s[tracing.PARENT] >= 0:
                        s[tracing.PARENT] += offset
                merged += child["spans"]
                interp.append(child["started_at"] - spawned)
                imports.append(child["import_s"])
                residual.append(wall - interp[-1] - imports[-1]
                                - tracing.covered(child["spans"]))
            traced.append(sum(runner.normalized[first:]))
            m = tracing.layer_metrics(merged)
            m["trace.residual_s"] = statistics.mean(residual)
            m["cli.interpreter_s"] = statistics.mean(interp)
            m["cli.import_s"] = statistics.mean(imports)
            pass_metrics.append(m)
        layers = combine_passes(pass_metrics, runner)
        layers["trace.overhead_ratio"] = statistics.mean(traced) / untraced
        result["layers"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return result, runner


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = cold_cli if args.workload == "cli_cold" else in_process
        result, runner = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.setup_only:
        stats, tail = latency_stats(runner.normalized)
        result.update(stats)
        result["raw"], _ = latency_stats(runner.latencies)
        result.update({"attempted": runner.attempted, "failed": runner.failed,
                       "problems": runner.problems, "tail": tail,
                       "passes": runner.attempted // len(runner.ops),
                       "env": environment()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
