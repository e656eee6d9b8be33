"""The names perfbench/tracing.py rebinds must exist and behave as it expects.

The benchmark's traced run wraps spinqfi functions by name; renaming one of
them would otherwise break only that run. These drive every subcommand under
the recorder and check the spans and per-layer counts it produces.
"""
import json
import pathlib

import pytest

from spinqfi import cli, interferometer

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def _traced(tracing, argv, capsys):
    """(recorder, stdout) of one cli.main call traced by a fresh recorder."""
    rec = tracing.Recorder()
    rec.install()
    try:
        assert cli.main(argv) == 0
    finally:
        rec.uninstall()
    return rec, capsys.readouterr().out


def test_recorder_traces_a_crb_call(tmp_path, tracing, capsys):
    spec = tmp_path / "ghz3.json"
    spec.write_text(json.dumps({"kind": "ghz", "n_qubits": 3, "basis": "z"}))
    rec, _ = _traced(tracing, ["crb", str(spec), "--measurement", "parity-x"], capsys)
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[0], []).append(span)
    assert [s[tracing.ATTRS] for s in by_name["Measurement.parity"]] == \
        [{"projectors": 2, "d": 8}]
    assert len(by_name.get("evolve", [])) == 0
    assert by_name["classical_fisher_report"][0][tracing.ATTRS] == {"excluded": 0}
    metrics = tracing.layer_metrics(rec.spans)
    assert metrics["interferometer.projectors"] == 2
    assert metrics["interferometer.evolve_calls"] == 0
    assert metrics["matcore.herm_exp_calls"] == 1
    assert metrics["interferometer.excluded_outcomes"] == 0
    recorded = len(rec.spans)
    interferometer.Measurement.parity("x", 2)
    assert len(rec.spans) == recorded  # uninstall put the originals back


NOISY_GHZ4 = {"kind": "white_noise_mix", "p": 0.8,
              "inner": {"kind": "ghz", "n_qubits": 4, "basis": "x"}}


def test_recorder_counts_the_rows_of_an_analyze_call(tmp_path, tracing, capsys):
    spec = tmp_path / "noisy.json"
    spec.write_text(json.dumps(NOISY_GHZ4))
    rec, out = _traced(tracing, ["analyze", str(spec)], capsys)
    names = [span[0] for span in rec.spans]
    assert names.count("evaluate_all") == 1 and "depth_lower_bound" not in names
    metrics = tracing.layer_metrics(rec.spans)
    assert metrics["criteria.rows"] == len(json.loads(out)["criteria"]) == 20
    assert metrics["qfi.qfi_matrix_calls"] == 1


def test_recorder_traces_a_depth_call(tmp_path, tracing, capsys):
    spec = tmp_path / "noisy.json"
    spec.write_text(json.dumps(NOISY_GHZ4))
    rec, out = _traced(tracing, ["depth", str(spec)], capsys)
    names = [span[0] for span in rec.spans]
    assert names.count("depth_lower_bound") == 1 and "evaluate_all" not in names
    assert "variance_criterion" not in names
    metrics = tracing.layer_metrics(rec.spans)
    assert metrics["criteria.rows"] == 0 and metrics["qfi.qfi_matrix_calls"] == 1
    assert json.loads(out)["depth_certificate"]["depth_lower_bound"] == 4


@pytest.mark.parametrize("argv", [
    ["landscape", "landmarks", "--n-qubits", "6"],
    ["landscape", "noise_line", "--n-qubits", "4", "--count", "5"],
], ids=["landmarks", "noise_line"])
def test_recorder_counts_the_points_of_a_landscape_call(tracing, capsys, argv):
    rec, out = _traced(tracing, argv, capsys)
    metrics = tracing.layer_metrics(rec.spans)
    rows = out.strip().split("\n")[1:]
    assert metrics["landscape.points"] == len(rows) == {"landmarks": 13, "noise_line": 5}[argv[1]]


def test_recorder_sees_each_level_of_a_noise_chain_built_once(tmp_path, tracing, capsys):
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps({"kind": "white_noise_mix", "p": 0.9, "inner": {
        "kind": "white_noise_mix", "p": 0.8, "inner": {
            "kind": "dicke", "n_qubits": 4, "m": 2, "basis": "x"}}}))
    rec, _ = _traced(tracing, ["analyze", str(spec)], capsys)
    names = [span[0] for span in rec.spans]
    assert names.count("from_spec") == 1
    assert names.count("white_noise_mix") == 2 and names.count("dicke") == 1
