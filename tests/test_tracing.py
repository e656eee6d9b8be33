"""The names perfbench/tracing.py rebinds must exist and behave as it expects.

The benchmark's traced run wraps spinqfi functions by name; renaming one of
them would otherwise break only that run. This drives one `crb` call under
the recorder and checks the spans and per-layer counts it produces.
"""
import json
import pathlib

from spinqfi import cli, interferometer

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_recorder_traces_a_crb_call(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    spec = tmp_path / "ghz3.json"
    spec.write_text(json.dumps({"kind": "ghz", "n_qubits": 3, "basis": "z"}))
    rec = tracing.Recorder()
    rec.install()
    try:
        assert cli.main(["crb", str(spec), "--measurement", "parity-x"]) == 0
    finally:
        rec.uninstall()
    capsys.readouterr()
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[0], []).append(span)
    assert [s[tracing.ATTRS] for s in by_name["Measurement.parity"]] == \
        [{"projectors": 2, "d": 8}]
    assert len(by_name["evolve"]) == 3
    assert by_name["classical_fisher_report"][0][tracing.ATTRS] == {"excluded": 0}
    metrics = tracing.layer_metrics(rec.spans)
    assert metrics["interferometer.projectors"] == 2
    assert metrics["interferometer.evolve_calls"] == 3
    assert metrics["matcore.herm_exp_calls"] == 3
    assert metrics["interferometer.excluded_outcomes"] == 0
    recorded = len(rec.spans)
    interferometer.Measurement.parity("x", 2)
    assert len(rec.spans) == recorded  # uninstall put the originals back
