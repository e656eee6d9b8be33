"""Every benchmark op whose output perfbench/reference.json pins, run in-process.

perfbench/ops.py is imported read-only, as test_tracing.py imports tracing.py.
Each op it marks `recorded` runs once and must pass `ops.check` against
perfbench/reference.json: an analysis document's triple, matrix, variance sum,
depth and violated rows, a crb report's Fisher values, and the sha256 of a
CLI command's stdout (crb: its text). So a change that moves a pinned output
fails here before the benchmark refuses it. The cold-CLI ops run through
`cli.main` with stdout captured, not in a fresh interpreter; the other ops
run as the benchmark runs them, through `op.run()`.
"""
import json
import pathlib

import pytest

from spinqfi import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
WORKLOADS = ("analyze_pure", "analyze_mixed", "crb_measure", "cli_cold")


@pytest.fixture
def ops(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    return ops


def _run(ops, op, capsys):
    if not isinstance(op, ops.CliOp):
        return op.run()
    rc = cli.main(op.argv)
    out = capsys.readouterr()
    return rc, out.out.encode(), out.err.encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_ops_match_the_reference(ops, workload, tmp_path, capsys):
    recorded = [op for op in ops.BUILDERS[workload](1, str(tmp_path)) if op.recorded]
    assert recorded
    capsys.readouterr()
    problems = {}
    for op in recorded:
        found = op.check(_run(ops, op, capsys), REFERENCE)
        if found:
            problems[op.name] = found
    assert not problems


def test_every_reference_entry_is_a_recorded_op(ops, tmp_path):
    names = [op.name for workload in WORKLOADS
             for op in ops.BUILDERS[workload](1, str(tmp_path)) if op.recorded]
    assert sorted(names) == sorted(REFERENCE)
