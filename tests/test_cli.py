import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinqfi
from spinqfi import cli, states
from spinqfi.cli import AnalysisConfig, dumps, main
from spinqfi.errors import DimensionCapError, NumericalError, SpecError, ValidationError


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GHZ4 = {"kind": "ghz", "n_qubits": 4, "basis": "z"}


# ------------------------------------------------------------ serialization

def test_dumps_scalars():
    assert dumps(1 / 3) == "0.33333333333333331"
    assert dumps(0.5) == "0.5"
    assert dumps(True) == "true"
    assert dumps(False) == "false"
    assert dumps(7) == "7"
    assert dumps(None) == "null"
    assert dumps("a\"b") == '"a\\"b"'
    assert dumps(np.float64(0.25)) == "0.25"
    assert dumps(np.int64(3)) == "3"


def test_dumps_containers_round_trip():
    doc = {"b": [1.0, {"x": None}], "a": "keep order", "arr": np.arange(3.0)}
    text = dumps(doc)
    parsed = json.loads(text)
    assert list(parsed) == ["b", "a", "arr"]
    assert parsed["arr"] == [0.0, 1.0, 2.0]
    assert dumps([]) == "[]"
    assert dumps({}) == "{}"


def test_dumps_rejects_nonfinite_and_unknown():
    with pytest.raises(ValidationError):
        dumps(float("nan"))
    with pytest.raises(ValidationError):
        dumps({"v": float("inf")})
    with pytest.raises(ValidationError):
        dumps({1, 2})


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(ValidationError):
        AnalysisConfig(tol_violation=0.0)
    with pytest.raises(ValidationError):
        AnalysisConfig(dimension_cap=1000)
    with pytest.raises(ValidationError):
        AnalysisConfig(dimension_cap=1)
    with pytest.raises(ValidationError):
        AnalysisConfig(seed=-1)
    assert AnalysisConfig().to_dict()["dimension_cap"] == 4096


def test_config_file_and_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tol_violation": 1e-6, "seed": 9}))
    ns = argparse.Namespace(config=str(cfg_path), tol=None, seed=None,
                            max_qubits=3)
    cfg = cli.load_config(ns)
    assert cfg.tol_violation == 1e-6
    assert cfg.seed == 9
    assert cfg.dimension_cap == 8  # flag wins over the default
    ns2 = argparse.Namespace(config=str(cfg_path), tol=1e-3, seed=4,
                             max_qubits=None)
    cfg2 = cli.load_config(ns2)
    assert cfg2.tol_violation == 1e-3 and cfg2.seed == 4


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tol_violation": 1e-6, "typo": 1}))
    ns = argparse.Namespace(config=str(cfg_path), tol=None, seed=None,
                            max_qubits=None)
    with pytest.raises(SpecError, match="typo"):
        cli.load_config(ns)


@pytest.mark.parametrize("doc", [
    {"dimension_cap": 4096.0},
    {"seed": "7"},
    {"tol_violation": None},
    {"seed": 2.5},
], ids=["float-cap", "string-seed", "null-tol", "fractional-seed"])
def test_config_wrong_type_is_validation_error(tmp_path, capsys, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    spec = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["analyze", spec, "--config", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ValidationError"
    assert next(iter(doc)) in err["message"]


NOISY_GHZ4 = {"kind": "white_noise_mix", "p": 0.9, "inner": GHZ4}


@pytest.mark.parametrize("config, flags, field", [
    ('{"eps_rank": NaN}', [], "eps_rank"),
    ('{"fd_step": Infinity}', [], "fd_step"),
    (None, ["--tol", "nan"], "tol_violation"),
    (None, ["--tol", "inf"], "tol_violation"),
], ids=["nan-eps-rank", "infinite-fd-step", "tol-nan", "tol-inf"])
def test_non_finite_config_is_rejected_before_analysis(tmp_path, capsys, config, flags, field):
    spec = write_spec(tmp_path, "noisy.json", NOISY_GHZ4)
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        flags = ["--config", str(cfg_path)]
    assert main(["depth", spec, *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ValidationError"
    assert field in err["message"]


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = str(Path(spinqfi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, spinqfi.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------ analyze

def test_analyze_document_shape(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["analyze", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["tool", "input_spec", "n_qubits", "fisher_triple",
                         "qfi_matrix", "qfi_matrix_eigenvalues", "average_qfi",
                         "criteria", "unentangled_summary", "depth_certificate",
                         "diagnostics"]
    assert doc["tool"]["name"] == "spinqfi"
    assert doc["n_qubits"] == 4
    np.testing.assert_allclose(doc["fisher_triple"], [4, 4, 16], atol=1e-9)
    assert len(doc["criteria"]) == 20
    assert doc["depth_certificate"]["depth_lower_bound"] == 4
    # the echoed spec reconstructs the same state
    rebuilt = states.from_spec(states.StateSpec.from_dict(doc["input_spec"]))
    np.testing.assert_allclose(rebuilt.rho, states.ghz(4, "z").rho, atol=1e-12)


def test_analyze_tol_override_recorded(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["analyze", path, "--tol", "0.001"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["config"]["tol_violation"] == 0.001


def test_analyze_multiple_specs(tmp_path, capsys):
    p1 = write_spec(tmp_path, "a.json", GHZ4)
    p2 = write_spec(tmp_path, "b.json",
                    {"kind": "dicke", "n_qubits": 4, "m": 2, "basis": "z"})
    assert main(["analyze", p1, p2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["reports"]
    assert len(doc["reports"]) == 2
    np.testing.assert_allclose(doc["reports"][1]["fisher_triple"],
                               [12, 12, 0], atol=1e-9)


def test_depth_subcommand_strips_report(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz6.json",
                      {"kind": "ghz", "n_qubits": 6, "basis": "z"})
    assert main(["depth", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["tool", "input_spec", "depth_certificate"]
    assert doc["depth_certificate"]["depth_lower_bound"] == 6


def test_analyze_output_is_byte_deterministic(tmp_path):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", path, "--out", str(out1)]) == 0
    assert main(["analyze", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ------------------------------------------------------------ exit codes

def test_exit_code_parse_errors(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "missing.json")])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2 and err["error"]["type"] == "SpecError"
    bad = write_spec(tmp_path, "bad.json", {"kind": "teleporter"})
    assert main(["analyze", bad]) == 2
    capsys.readouterr()


def test_exit_code_validation_error(tmp_path, capsys):
    path = write_spec(tmp_path, "tiny.json",
                      {"kind": "ghz", "n_qubits": 0, "basis": "z"})
    assert main(["analyze", path]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 3


def test_exit_code_dimension_cap(tmp_path, capsys):
    path = write_spec(tmp_path, "big.json",
                      {"kind": "ghz", "n_qubits": 13, "basis": "z"})
    assert main(["analyze", path, "--max-qubits", "3"]) == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DimensionCapError"


def test_max_qubits_beyond_the_dense_ceiling_fails_before_building(tmp_path, capsys):
    # --max-qubits 13 is accepted, but no route serves 2^13: from_spec holds
    # the cap at 2^12 and refuses it before any vector or operator is formed
    path = write_spec(tmp_path, "ghz13.json", {"kind": "ghz", "n_qubits": 13, "basis": "z"})
    assert main(["depth", path, "--max-qubits", "13"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "DimensionCapError"
    with pytest.raises(DimensionCapError):
        states.from_spec(states.StateSpec("ghz", 13, "z"), cap=2 ** 13)


def _unbuildable(monkeypatch):
    """Make every spec builder fail the test if it is called."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("a state builder ran for an over-cap request")
    for kind in states.KNOWN_KINDS:
        monkeypatch.setattr(states, states.builder(kind).__name__, unbuilt)


def _mixed_matrix(n_qubits):
    dim = 2 ** n_qubits
    return [[[1.0 / dim if i == j else 0.0, 0.0] for j in range(dim)] for i in range(dim)]


@pytest.mark.parametrize("doc", [
    {"kind": "white_noise_mix", "p": 0.5, "inner": {"kind": "ghz", "n_qubits": 4}},
    {"kind": "white_noise_mix", "n_qubits": 4, "p": 0.5,
     "inner": {"kind": "ghz", "n_qubits": 4}},
    {"kind": "white_noise_mix", "p": 0.5,
     "inner": {"kind": "white_noise_mix", "p": 0.5, "inner": {"kind": "ghz", "n_qubits": 4}}},
    {"kind": "raw_matrix", "n_qubits": 4, "matrix": _mixed_matrix(4)},
    # also invalid otherwise, which alone exits 3: the cap check comes first
    {"kind": "raw_matrix", "n_qubits": 5, "matrix": _mixed_matrix(1)},
    {"kind": "white_noise_mix", "n_qubits": 5, "p": 0.5,
     "inner": {"kind": "ghz", "n_qubits": 3}},
], ids=["noise-inner", "noise-outer-and-inner", "nested-noise", "raw-matrix",
        "raw-matrix-mismatch", "noise-size-mismatch"])
@pytest.mark.parametrize("command", ["analyze", "depth", "crb"])
def test_cap_fires_before_any_builder_runs(tmp_path, capsys, monkeypatch, command, doc):
    _unbuildable(monkeypatch)
    assert main([command, write_spec(tmp_path, "s.json", doc), "--max-qubits", "3"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "DimensionCapError"


@pytest.mark.parametrize("levels", [600, 3000])
@pytest.mark.parametrize("command", ["analyze", "depth", "crb"])
def test_deeply_nested_spec_is_a_parse_error(tmp_path, capsys, command, levels):
    # json.dumps itself recurses, so the document is written level by level
    text = '{"kind": "ghz", "n_qubits": 2}'
    text = '{"kind": "white_noise_mix", "p": 0.9, "inner": ' * levels + text + "}" * levels
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "SpecError"


def test_deeply_nested_config_is_a_parse_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"seed": ' + "[" * 3000 + "]" * 3000 + "}")
    spec = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["analyze", spec, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "SpecError"


def test_max_qubits_above_the_ceiling_is_rejected(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    for flag in ("63", "1000000000000000"):
        assert main(["analyze", path, "--max-qubits", flag]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "ValidationError"
    assert main(["analyze", path, "--max-qubits", "62"]) == 0


@pytest.mark.parametrize("flags, config", [
    (["--max-qubits", "62"], None),
    ([], {"dimension_cap": 8192}),
], ids=["max-qubits-62", "config-8192"])
def test_report_echoes_the_enforced_dimension_cap(tmp_path, capsys, flags, config):
    # every size check stops at 2^12, so that is the cap the report states
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    if config is not None:
        flags = flags + ["--config", write_spec(tmp_path, "cfg.json", config)]
    assert main(["analyze", path] + flags) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["config"]["dimension_cap"] == 4096


@pytest.mark.parametrize("text, code", [
    (b'{"kind": "ghz", "n_qubits": 3, "m": 2, "c": [1, 0, 0]}', 2),
    (b'{"kind": "ghz", "n_qubits": 4.7}', 2),
    (b'{"kind": "ghz", "n_qubits": true}', 2),
    (b'{"kind": "ghz", "n_qubits": "3"}', 2),
    (b'{"kind": "ghz", "n_qubits": 1e999}', 2),
    (b'{"kind": "ghz", "n_qubits": ' + b"9" * 5000 + b"}", 2),
    (b'{"kind": "dicke", "n_qubits": 4, "m": Infinity}', 2),
    (b'\xff{"kind": "ghz", "n_qubits": 3}', 2),
    (b'{"kind": "white_noise_mix", "n_qubits": 5, "p": 0.5,'
     b' "inner": {"kind": "ghz", "n_qubits": 3}}', 3),
    (b'{"kind": "ghz", "n_qubits": 1000000000000000}', 5),
], ids=["foreign-fields", "fractional-n", "bool-n", "string-n", "overflowing-n",
        "5000-digit-n", "infinite-m", "not-utf8", "noise-size-mismatch", "huge-n"])
@pytest.mark.parametrize("command", ["analyze", "depth"])
def test_malformed_spec_is_a_typed_error(tmp_path, capsys, command, text, code):
    path = tmp_path / "spec.json"
    path.write_bytes(text)
    assert main([command, str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["exit_code"] == code


def test_numerical_error_exit_code_attribute():
    assert NumericalError.exit_code == 4


def test_depth_skips_the_criteria_rows(tmp_path, capsys, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("depth evaluated a criteria row")
    monkeypatch.setattr(cli.criteria, "evaluate_all", unused)
    monkeypatch.setattr(cli.criteria, "variance_criterion", unused)
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["depth", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["tool", "input_spec", "depth_certificate"]
    assert doc["depth_certificate"]["depth_lower_bound"] == 4


# ------------------------------------------------------------ landscape

def test_landmarks_csv(capsys):
    assert main(["landscape", "landmarks", "--n-qubits", "6"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "F_x,F_y,F_z,spec_id"
    assert len(lines) == 14
    labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert "ghz_z" in labels and "origin" in labels
    ghz_row = next(l for l in lines[1:] if l.endswith(",ghz_z"))
    np.testing.assert_allclose([float(v) for v in ghz_row.split(",")[:3]],
                               [6, 6, 36])


def test_dicke_plane_csv_seeded(tmp_path):
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["landscape", "dicke_plane", "--n-qubits", "8", "--count", "6",
            "--seed", "7"]
    assert main(argv + ["--out", str(o1)]) == 0
    assert main(argv + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    rows = o1.read_text().strip().split("\n")[1:]
    assert len(rows) == 6
    for row in rows:
        triple = [float(v) for v in row.split(",")[:3]]
        assert abs(sum(triple) - 80.0) <= 1e-8
        assert row.rsplit(",", 1)[1].startswith("dicke_superposition")


def test_product_fill_csv(capsys):
    assert main(["landscape", "product_fill", "--n-qubits", "4",
                 "--count", "5", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    for row in lines[1:]:
        triple = [float(v) for v in row.split(",")[:3]]
        assert all(-1e-9 <= v <= 4.0 + 1e-9 for v in triple)


@pytest.mark.parametrize("family", ["dicke_plane", "product_fill", "noise_line"])
def test_landscape_families_honour_the_dimension_cap(capsys, monkeypatch, family):
    _unbuildable(monkeypatch)
    assert main(["landscape", family, "--n-qubits", "8", "--count", "2",
                 "--max-qubits", "4"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "DimensionCapError"


def test_noise_line_csv_monotone(capsys):
    assert main(["landscape", "noise_line", "--n-qubits", "4",
                 "--count", "11"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 12
    fz = [float(row.split(",")[2]) for row in lines[1:]]
    assert fz[0] == pytest.approx(0.0, abs=1e-9)
    assert fz[-1] == pytest.approx(16.0, abs=1e-9)
    assert all(b >= a - 1e-12 for a, b in zip(fz, fz[1:]))
    label = lines[1].rsplit(",", 1)[1]
    assert label.startswith("white_noise_mix") and "inner=(ghz n=4" in label


def test_noise_line_custom_spec(tmp_path, capsys):
    path = write_spec(tmp_path, "d.json",
                      {"kind": "dicke", "n_qubits": 4, "m": 2, "basis": "z"})
    assert main(["landscape", "noise_line", "--n-qubits", "4",
                 "--count", "3", "--spec", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    fx = [float(row.split(",")[0]) for row in lines[1:]]
    assert fx[-1] == pytest.approx(12.0, abs=1e-9)


def test_noise_line_spec_must_match_n_qubits(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["landscape", "noise_line", "--n-qubits", "99",
                 "--count", "3", "--spec", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ValidationError"


# ------------------------------------------------------------ crb

def test_crb_ghz_parity(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["crb", path, "--direction", "z", "--measurement", "parity-x",
                 "--theta", str(math.pi / 8)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert doc["fisher_quantum"] == pytest.approx(16.0, abs=1e-9)
    assert doc["crb"] == pytest.approx(0.25, abs=1e-12)
    assert doc["fisher_classical"] == pytest.approx(16.0, rel=1e-4)
    assert doc["ordering_ok"] is True
    assert doc["direction"] == [0.0, 0.0, 1.0]


def test_crb_unbounded_variance(tmp_path, capsys):
    path = write_spec(tmp_path, "up.json",
                      {"kind": "product_bloch", "n_qubits": 2,
                       "c": [0.0, 0.0, 1.0]})
    assert main(["crb", path, "--direction", "z"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unbounded-variance"
    assert doc["fisher_classical"] is None and doc["crb"] is None
    assert doc["ordering_ok"] is True


def test_crb_random_measurement_respects_ordering(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz3.json",
                      {"kind": "ghz", "n_qubits": 3, "basis": "z"})
    assert main(["crb", path, "--measurement", "random", "--seed", "5",
                 "--direction", "0,1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ordering_ok"] is True
    assert doc["fisher_classical"] <= doc["fisher_quantum"] + 1e-6


def test_crb_computational_at_ten_qubits(tmp_path, capsys):
    path = write_spec(tmp_path, "dicke10.json",
                      {"kind": "dicke", "n_qubits": 10, "m": 5, "basis": "z"})
    assert main(["crb", path, "--direction", "x", "--measurement", "computational"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok" and doc["ordering_ok"] is True
    assert doc["fisher_quantum"] == pytest.approx(60.0, abs=1e-9)
    assert 0.0 < doc["fisher_classical"] <= doc["fisher_quantum"] + 1e-6


def test_crb_rejects_bad_direction(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["crb", path, "--direction", "0,0,0"]) == 3
    assert main(["crb", path, "--direction", "sideways"]) == 3
    capsys.readouterr()


# ------------------------------------------------------------ spec ids

def test_spec_id_tokens_are_comma_free():
    spec = states.StateSpec.from_dict(
        {"kind": "white_noise_mix", "n_qubits": 4, "p": 0.5, "inner": GHZ4})
    label = spec.label()
    assert "," not in label
    assert label == "white_noise_mix n=4 p=0.5 inner=(ghz n=4 basis=z)"
