import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinqfi
from spinqfi import cli, collective, landscape, qfi, states
from spinqfi.cli import AnalysisConfig, dumps, main
from spinqfi.errors import DimensionCapError, NumericalError, SpecError, ValidationError

import helpers


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GHZ4 = {"kind": "ghz", "n_qubits": 4, "basis": "z"}
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _recursive_dumps(obj, indent=0):
    """The serializer as it was before float rows were filled by one % call,
    kept as the second route to every byte of dumps."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj) or math.isinf(obj):
            raise ValidationError("cannot serialize non-finite numbers")
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _recursive_dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_recursive_dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_recursive_dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e-16, 1e16, 1e22, 1 / 3, -2.5,
               sys.float_info.max, -sys.float_info.max, sys.float_info.min]


@pytest.mark.parametrize("obj", [
    EDGE_FLOATS,
    [EDGE_FLOATS[:4], EDGE_FLOATS[4:8], EDGE_FLOATS[8:12]],
    {"100%": [1.5, 2.5], "key %s %d %%": "value %.17g %(x)s %", "%": [[0.5, -0.5]]},
    ["%s", 1.0, "%%"],
    [1.0, np.float64(0.1), 2.0],
    [np.float64(0.1), 1.0],
    [1.0, 2, 3.0],
    [1.0, True, 3.0],
    [[1.0, 2.0], [3, 4.0]],
    [[True, 2.0], [3.0, 4.0]],
    [np.arange(3.0), [1.0, 2.0, 3.0]],
    [],
    [[]],
    [[], []],
    [[1.0], []],
    [[1.0, 2.0], [3.0]],
    [[1.0, 2.0], (3.0, 4.0)],
    (1.0, 2.0),
    [(1.0, 2.0), (3.0, 4.0)],
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]],
    [[1.0, [2.0]], [3.0, 4.0]],
    [0.5, None, "x"],
    {"rows": [[0.1, 0.2, 0.3]] * 4, "flat": [0.7] * 9, "empty": [], "nested": {"a": [1e-300]}},
], ids=lambda obj: type(obj).__name__)
def test_dumps_matches_the_recursive_serializer(obj):
    assert dumps(obj) == _recursive_dumps(obj)
    assert dumps(obj, 3) == _recursive_dumps(obj, 3)


@pytest.mark.parametrize("obj", [
    [1.0, float("nan")], [float("inf"), 1.0], [-float("inf")],
    [[1.0, 2.0], [float("nan"), 4.0]], {"rows": [[float("-inf")]]},
])
def test_dumps_rejects_nonfinite_float_rows_as_before(obj):
    for serializer in (dumps, _recursive_dumps):
        with pytest.raises(ValidationError, match="^cannot serialize non-finite numbers$"):
            serializer(obj)


def test_dumps_matches_the_recursive_serializer_on_a_raw_matrix_document():
    rho = np.array(helpers.ginibre_mixed(5, np.random.default_rng(9), rank=7))
    spec = states.from_matrix(rho, 5).spec
    doc = cli.analysis_document(spec, AnalysisConfig())
    assert doc["input_spec"]["kind"] == "raw_matrix"
    assert dumps(doc) == _recursive_dumps(doc)


def test_analysis_document_leaves_rho_unbuilt_for_a_pure_state(monkeypatch):
    # at N = 8 a pure state reads J psi off the operator table: no dense J
    built, dense = [], []
    from_spec = states.from_spec

    def spy_state(spec, cap):
        built.append(from_spec(spec, cap=cap))
        return built[-1]

    monkeypatch.setattr(states, "from_spec", spy_state)
    monkeypatch.setattr(qfi, "dense", lambda *args: dense.append(args))
    before = collective._collective_cached.cache_info()
    cli.analysis_document(states.StateSpec("ghz", 8, "y"), AnalysisConfig())
    assert collective._collective_cached.cache_info() == before
    assert built[0].is_pure and built[0]._rho is None
    assert dense == [] and built[0].n_qubits > qfi.DENSE_PURE_MAX


@pytest.mark.parametrize("argv", [
    ["analyze"], ["depth"], ["crb", "--measurement", "parity-x", "--direction", "x"],
], ids=["analyze", "depth", "crb"])
def test_pure_commands_read_no_dense_collective_operator(tmp_path, capsys, monkeypatch, argv):
    # crb's phase rotation is one single-qubit rotation on every qubit, read
    # off the memoized N = 1 operators. At N = 6 a pure state's QFI and
    # moments build one 64 x 64 J (or J^2) per product and keep none; at N = 7
    # they read the operator table, and no dense J is built at all.
    products = {"analyze": 7, "depth": 3, "crb": 3}[argv[0]]  # 3 for the QFI, 4 for the moments
    cached, dense = collective._collective_cached, collective.dense
    for n in (6, 7):
        path = write_spec(tmp_path, f"ghz{n}.json", {"kind": "ghz", "n_qubits": n, "basis": "x"})
        assert main(argv[:1] + [path] + argv[1:]) == 0  # the N = 1 operators are cached now
        read, shapes = [], []

        def spy(axis, n_qubits):
            read.append(n_qubits)
            return cached(axis, n_qubits)

        def spy_dense(op, n_qubits):
            out = dense(op, n_qubits)
            shapes.append(out.shape)
            return out

        before = cached.cache_info()
        with monkeypatch.context() as m:
            m.setattr(collective, "_collective_cached", spy)
            m.setattr(collective, "dense", spy_dense)
            m.setattr(qfi, "dense", spy_dense)
            assert main(argv[:1] + [path] + argv[1:]) == 0
        if argv[0] == "crb":
            assert set(read) == {1}
        else:
            assert read == [] and cached.cache_info() == before
        assert shapes == ([(64, 64)] * products if n == 6 else []), n
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    {"kind": "white_noise_mix", "p": 0.7, "inner": {"kind": "ghz", "n_qubits": 6, "basis": "x"}},
    states.from_matrix(helpers.ginibre_mixed(4, np.random.default_rng(21)), 4).spec.to_dict(),
], ids=["noisy-ghz6", "raw-matrix"])
@pytest.mark.parametrize("command", ["analyze", "depth"])
def test_mixed_commands_read_no_dense_collective_operator(tmp_path, capsys, monkeypatch,
                                                          command, doc):
    # the mixed route builds each J where it multiplies and drops it after
    cached, read = collective._collective_cached, []

    def spy(axis, n_qubits):
        read.append(n_qubits)
        return cached(axis, n_qubits)

    before = cached.cache_info()
    monkeypatch.setattr(collective, "_collective_cached", spy)
    assert main([command, write_spec(tmp_path, "mixed.json", doc)]) == 0
    assert read == [] and cached.cache_info() == before
    capsys.readouterr()


def test_pure_analysis_peak_memory_stays_below_one_dense_j():
    # 16 4^N bytes is one dense J; the bound is 64 complex 2^N vectors, linear
    # in 2^N: 1 MB at N = 10 and 4 MB at N = 12
    for n in (10, 12):
        spec = states.StateSpec("ghz", n, "x")
        tracemalloc.start()
        try:
            cli.analysis_document(spec, AnalysisConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 64 * 2 ** n < 16 * 4 ** n, n


def test_noisy_analysis_peak_memory_stays_below_seven_dense_j():
    # One block is 16 4^N bytes, one dense 2^N x 2^N complex array. The peak,
    # 6.5 blocks, falls in qfi_matrix's pair loop: the base's Householder
    # basis V, the three V^dag J V blocks, the pair weights w (half a block)
    # and the loop's temporaries w A_i and conj(A_j). Each J is built for its
    # product and dropped after it, so nothing dense outlives the call; three
    # memoized J would add three blocks to both figures.
    n = 9
    block = 16 * 4 ** n
    collective._collective_cached.cache_clear()
    spec = states.StateSpec("white_noise_mix", n, p=0.7, inner=states.StateSpec("ghz", n, "x"))
    tracemalloc.start()
    try:
        cli.analysis_document(spec, AnalysisConfig())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * block
    assert kept < 0.1 * block


def test_a_large_completely_mixed_state_builds_nothing_dense(monkeypatch):
    # one dense 2^12 x 2^12 matrix is 256 MB; F = 0 and Var = N/4 are read off
    # the weight 0 instead
    built = []
    real = states.completely_mixed
    monkeypatch.setattr(states, "completely_mixed",
                        lambda n_qubits: built.append(real(n_qubits)) or built[-1])
    spec = states.StateSpec("completely_mixed", 12)
    tracemalloc.start()
    try:
        for document in (cli.analysis_document, cli.depth_document):
            document(spec, AnalysisConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len(built) == 2
    for state in built + [s.noise[0] for s in built]:
        assert state._rho is None and state._spectrum is None


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


def test_config_that_is_not_an_object_is_a_parse_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    spec = write_spec(tmp_path, "ghz4.json", GHZ4)
    assert main(["analyze", spec, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "SpecError", "message": "config document must be an object", "exit_code": 2}


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
    # the Dicke-plane inverse and hull membership are numpy linear algebra;
    # numpy is the only runtime dependency, so no scipy module loads at all
    loaded = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    for code in ("import spinqfi.cli",
                 "from spinqfi import landscape; "
                 "landscape.realize_dicke_point([20., 30., 20.], 8)",
                 "from spinqfi import landscape; "
                 "[landscape.polytope_contains(landscape.named_polytope(name, 8), [20., 30., 20.]) "
                 "for name in ('product', 'dicke', 'bisep')]"):
        out = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; print({loaded})"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False", code


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


def test_vanishing_dicke_superposition_is_a_validation_error(tmp_path, capsys):
    # the N = 4 kets are linearly dependent: this alpha cancels them to rounding,
    # and normalizing the residue certified a depth-4 state
    doc = {"kind": "dicke_superposition", "n_qubits": 4, "alpha": [[1, 0], [-1, 0], [1, 0]]}
    assert main(["analyze", write_spec(tmp_path, "kernel.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "ValidationError", "exit_code": 3,
        "message": "alpha is all zero or its superposition of the balanced Dicke kets vanishes"}


def test_raw_matrix_spec_names_every_shape_problem(tmp_path, capsys):
    doc = {"kind": "raw_matrix", "n_qubits": 2,
           "matrix": [[[1.0 / 3 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]}
    assert main(["analyze", write_spec(tmp_path, "raw3.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err)["error"]["message"]
    assert "dimension 3 is not a power of 2" in message
    assert "dimension 3 does not match n_qubits=2" in message


@pytest.mark.parametrize("command", [
    lambda path: ["analyze", path],
    lambda path: ["depth", path],
    lambda path: ["crb", path],
    lambda path: ["landscape", "landmarks", "--n-qubits", "4"],
    lambda path: ["landscape", "noise_line", "--n-qubits", "4", "--spec", path],
], ids=["analyze", "depth", "crb", "landscape", "noise_line"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_a_validation_error(tmp_path, capsys, monkeypatch, command, target):
    def never(*args, **kwargs):
        raise AssertionError("a state was built before --out was checked")

    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    monkeypatch.setattr(states, "from_spec", never)
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    assert main(command(path) + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValidationError" and str(out) in error["message"]


def test_spec_errors_come_before_the_out_check(tmp_path, capsys):
    bad = write_spec(tmp_path, "bad.json", {"kind": "teleporter"})
    out = tmp_path / "missing" / "x.json"
    for argv in (["analyze", write_spec(tmp_path, "ghz4.json", GHZ4), bad], ["crb", bad]):
        assert main(argv + ["--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "SpecError"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_failed_write_is_a_validation_error(tmp_path, capsys):
    # /dev/full passes the --out check and fails the write, in _emit
    assert main(["analyze", write_spec(tmp_path, "ghz4.json", GHZ4), "--out", "/dev/full"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith("cannot write output file /dev/full:")


def test_an_overflowing_state_norm_exits_3(tmp_path, capsys):
    path = write_spec(tmp_path, "huge.json", {"kind": "dicke_superposition", "n_qubits": 4,
                                              "alpha": [[1e154, 0], [1e154, 0], [0, 0]]})
    assert main(["analyze", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ValidationError"


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


GHZ3 = {"kind": "ghz", "n_qubits": 3}


def _noise(**fields):
    return states.StateSpec.from_dict({"kind": "white_noise_mix", **fields})


@pytest.mark.parametrize("spec, code, error, message", [
    (_noise(inner=GHZ3), 3, "ValidationError", "white_noise_mix spec requires p"),
    (_noise(n_qubits=3, p=0.5), 3, "ValidationError", "white_noise_mix spec requires inner"),
    (_noise(n_qubits=4, p=0.5, inner=GHZ3), 3, "ValidationError",
     "white_noise_mix n_qubits=4 differs from its inner state's 3"),
    (_noise(p=0.5, inner={**GHZ3, "n_qubits": 5, "basis": "q"}), 5, "DimensionCapError",
     "dimension 32 exceeds cap 16"),
    (_noise(n_qubits=4, p=0.5, inner={**GHZ3, "basis": "q"}), 3, "ValidationError",
     "basis must be one of ('x', 'y', 'z'), got 'q'"),
    (_noise(p=1.5, inner={"kind": "dicke", "n_qubits": 3}), 3, "ValidationError",
     "dicke spec requires m"),
    (states.StateSpec("product_bloch"), 3, "ValidationError",
     "product_bloch spec requires c, n_qubits"),
    (states.StateSpec("ghz", 3, inner=states.StateSpec("ghz", 13)), 0, None, None),
], ids=["noise-missing-p", "noise-missing-inner", "noise-size-mismatch",
        "cap-before-leaf-basis", "leaf-basis-before-mismatch", "missing-m-before-bad-p",
        "product-bloch-missing-both", "ghz-ignores-inner"])
@pytest.mark.parametrize("command", ["analyze", "depth"])
def test_spec_errors_keep_their_order(capsys, monkeypatch, command, spec, code, error, message):
    # Order: the cap on every n_qubits, then each level's kind and missing
    # fields outermost first, then the builds innermost first. The spec is
    # handed over as parsed, since no file can give a ghz spec an inner field.
    monkeypatch.setattr(cli, "load_spec_file", lambda path: spec)
    assert main([command, "state.json", "--max-qubits", "4"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["input_spec"] == {**GHZ3, "basis": "z"}
        return
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": error, "message": message, "exit_code": code}


def _noise_chain(levels):
    # json.dumps itself recurses, so the document is written level by level
    text = '{"kind": "ghz", "n_qubits": 2}'
    return '{"kind": "white_noise_mix", "p": 0.9, "inner": ' * levels + text + "}" * levels


@pytest.mark.parametrize("levels", [600, 3000])
@pytest.mark.parametrize("command", ["analyze", "depth", "crb"])
def test_deeply_nested_spec_is_a_parse_error(tmp_path, capsys, command, levels):
    path = tmp_path / "deep.json"
    path.write_text(_noise_chain(levels))
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


DEEP_COMMANDS = {
    "analyze": lambda path: ["analyze", path],
    "depth": lambda path: ["depth", path],
    "crb": lambda path: ["crb", path],
    "noise_line": lambda path: ["landscape", "noise_line", "--n-qubits", "2", "--count", "3",
                                "--spec", path],
}


def _run_deep(tmp_path, capsys, command, levels):
    """Exit code of one command on a noise chain; an escaping exception fails the test."""
    path = tmp_path / f"deep{levels}.json"
    path.write_text(_noise_chain(levels))
    code = main(DEEP_COMMANDS[command](str(path)))
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4, 5), captured.err
    return code, captured


@pytest.mark.parametrize("command", sorted(DEEP_COMMANDS))
def test_deep_but_parseable_spec_never_escapes_as_an_exception(tmp_path, capsys, command):
    code, captured = _run_deep(tmp_path, capsys, command, 450)
    assert code == 0, captured.err
    rows, wrappers = (3, 451) if command == "noise_line" else (1, 450)  # three noisier rows
    assert captured.out.count("white_noise_mix") == rows * wrappers
    # the deepest chain the parser accepts, found by bisection on the exit code
    lo, hi = 450, 1000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _run_deep(tmp_path, capsys, command, mid)[0] != 2 else (lo, mid)
    code, captured = _run_deep(tmp_path, capsys, command, lo)
    assert code == 0, captured.err
    code, captured = _run_deep(tmp_path, capsys, command, lo + 1)
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


@pytest.mark.parametrize("command", [
    lambda path: ["analyze", path],
    lambda path: ["depth", path],
    lambda path: ["crb", path, "--direction", "z"],
    lambda path: ["landscape", "noise_line", "--n-qubits", "4", "--count", "2", "--spec", path],
], ids=["analyze", "depth", "crb", "noise_line"])
def test_every_command_meets_the_n_squared_guard(tmp_path, capsys, doubled_generators, command):
    # doubled_generators doubles every J, which quadruples the QFI
    assert main(command(write_spec(tmp_path, "ghz4.json", GHZ4))) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "NumericalError" and "exceeds N^2 = 16.0" in error["message"]


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


@pytest.mark.parametrize("family", ["landmarks", "dicke_plane", "product_fill", "noise_line"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_landscape_count_below_one_is_rejected_before_any_state(capsys, monkeypatch,
                                                                family, count):
    _unbuildable(monkeypatch)
    assert main(["landscape", family, "--n-qubits", "4", "--count", count]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "ValidationError", "message": f"--count must be at least 1, got {count}",
        "exit_code": 3}


def test_landscape_count_above_the_ceiling_is_rejected_before_any_state(capsys, monkeypatch):
    _unbuildable(monkeypatch)
    count = str(10 ** 13)
    assert main(["landscape", "noise_line", "--n-qubits", "4", "--count", count]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "ValidationError", "message": f"--count must be at most 1000000, got {count}",
        "exit_code": 3}


@pytest.mark.parametrize("exponent", [160, 400])
def test_landmarks_of_an_overflowing_n_are_a_typed_error(capsys, exponent):
    assert main(["landscape", "landmarks", "--n-qubits", str(10 ** exponent)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValidationError" and "must be finite" in error["message"]


def test_landscape_honours_the_config_rank_cutoff(tmp_path, capsys):
    # white noise at p = 0.5 over GHZ_4: every eigenvalue but one is 1/32,
    # below a cutoff of 0.1, so the cutoff moves F_x from 16/9 to 17/8
    config = write_spec(tmp_path, "cfg.json", {"eps_rank": 0.1})
    noisy = write_spec(tmp_path, "noisy.json", {"kind": "white_noise_mix", "p": 0.5, "inner": GHZ4})
    assert main(["analyze", noisy, "--config", config]) == 0
    f_x = json.loads(capsys.readouterr().out)["fisher_triple"][0]
    assert main(["landscape", "noise_line", "--n-qubits", "4", "--count", "3",
                 "--config", config]) == 0
    row = capsys.readouterr().out.split("\n")[2]
    assert row.split(",")[0] == repr(f_x) == "2.1249999999999996"


def test_product_fill_honours_the_config_rank_cutoff_and_dicke_plane_needs_none(tmp_path, capsys):
    # product_fill realizes its points as white-noise mixes, where the cutoff
    # drops eigenvalues; dicke_plane states are pure, which no cutoff touches
    config = write_spec(tmp_path, "cfg.json", {"eps_rank": 0.1})

    def rows(family, *extra):
        assert main(["landscape", family, "--n-qubits", "4", "--count", "2", *extra]) == 0
        return capsys.readouterr().out.split("\n")[1:-1]

    cut = rows("product_fill", "--config", config)
    assert cut != rows("product_fill")
    expected = [",".join(cli._format_float(float(v)) for v in point.p)
                for point in landscape.sample_product_polytope(4, 2, seed=0, eps_rank=0.1)]
    assert [row.split(",white_noise_mix")[0] for row in cut] == expected
    assert rows("dicke_plane", "--config", config) == rows("dicke_plane")


def test_noise_line_count_of_one_keeps_both_endpoints(capsys):
    assert main(["landscape", "noise_line", "--n-qubits", "4", "--count", "1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [row.rsplit(",", 1)[1].split(" ")[2] for row in rows] == ["p=0", "p=1"]
    assert [float(row.split(",")[2]) for row in rows] == pytest.approx([0.0, 16.0], abs=1e-9)


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


@pytest.mark.parametrize("direction", ["1e-200,1e-200,0", "1e308,1e308,0"])
def test_crb_accepts_directions_whose_norm_under_or_overflows(tmp_path, capsys, direction):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    argv = ["crb", path, "--measurement", "parity-x", "--direction"]
    assert main(argv + ["1,1,0"]) == 0
    want = capsys.readouterr().out
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning fails the test
        assert main(argv + [direction]) == 0
    assert capsys.readouterr() == (want, "")


def test_crb_on_white_noise_forms_no_spectrum(tmp_path, capsys, monkeypatch):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was formed")
    monkeypatch.setattr(states, "_pure_spectrum", no_spectrum)
    monkeypatch.setattr(states, "eigh", no_spectrum)
    inner = {"kind": "ghz", "n_qubits": 5, "basis": "z"}
    path = write_spec(tmp_path, "noisy.json", {"kind": "white_noise_mix", "p": 0.7, "inner": inner})
    assert main(["crb", path, "--direction", "z", "--measurement", "parity-x"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert doc["fisher_quantum"] == pytest.approx(landscape.noise_scale(0.7, 5) * 25.0,
                                                  rel=1e-13, abs=0.0)


def test_crb_honours_the_config_rank_cutoff_on_white_noise(tmp_path, capsys):
    # p = 0.5 over GHZ_4: the floor 1/32 is at or below 0.1 and is dropped,
    # leaving the top eigenvalue 17/32 times the pure F_z = 16
    config = write_spec(tmp_path, "cfg.json", {"eps_rank": 0.1})
    noisy = {"kind": "white_noise_mix", "p": 0.5, "inner": GHZ4}
    path = write_spec(tmp_path, "noisy.json", noisy)
    assert main(["crb", path, "--direction", "z", "--measurement", "parity-x",
                 "--config", config]) == 0
    got = json.loads(capsys.readouterr().out)["fisher_quantum"]
    dense = qfi.qfi_matrix(states.from_spec(states.StateSpec.from_dict(noisy)), 0.1)
    assert got == pytest.approx(dense.direction((0.0, 0.0, 1.0)), rel=1e-12, abs=0.0)
    assert got == pytest.approx(8.5, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("doc", [GHZ4, {"kind": "completely_mixed", "n_qubits": 2}],
                         ids=["nonzero-qfi", "zero-qfi"])
@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_crb_checks_theta_before_any_qfi_work(tmp_path, capsys, monkeypatch, doc, theta):
    path = write_spec(tmp_path, "state.json", doc)

    def no_qfi(*args, **kwargs):
        raise AssertionError("QFI computed before theta was checked")
    monkeypatch.setattr(cli.qfi, "qfi_direction", no_qfi)
    assert main(["crb", path, "--theta", theta]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "ValidationError", "message": "theta must be finite", "exit_code": 3}


@pytest.mark.parametrize("doc", [
    GHZ4, {"kind": "product_bloch", "n_qubits": 4, "c": [0.0, 0.0, 1.0]},
], ids=["nonzero-qfi", "zero-qfi"])
@pytest.mark.parametrize("name", ["bogus", "parity-w"])
def test_crb_rejects_an_unknown_measurement_before_any_qfi_work(tmp_path, capsys, monkeypatch,
                                                                doc, name):
    def no_qfi(*args, **kwargs):
        raise AssertionError("QFI computed before the measurement name was checked")
    monkeypatch.setattr(qfi, "qfi_matrix", no_qfi)
    path = write_spec(tmp_path, "state.json", doc)
    assert main(["crb", path, "--direction", "z", "--measurement", name]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "ValidationError", "message": f"unknown measurement {name!r}", "exit_code": 3}


@pytest.mark.parametrize("doc, flags, code, error", [
    ({"kind": "teleporter"}, [], 2, "SpecError"),
    ({"kind": "ghz", "n_qubits": 13, "basis": "z"}, ["--max-qubits", "3"], 5,
     "DimensionCapError"),
], ids=["spec", "cap"])
def test_crb_spec_and_cap_errors_come_before_theta(tmp_path, capsys, doc, flags, code, error):
    path = write_spec(tmp_path, "state.json", doc)
    assert main(["crb", path, "--theta", "nan", *flags]) == code
    assert json.loads(capsys.readouterr().err)["error"]["type"] == error


# ------------------------------------------------------------ in-process use

@pytest.fixture
def parser_builds(monkeypatch):
    """The build_parser calls made from an emptied parser memo on; the memo is
    emptied again after, so no later test reuses the spied parser."""
    calls, build = [], cli.build_parser

    def spy():
        calls.append(1)
        return build()
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", spy)
    yield calls
    cli._parser.cache_clear()


def test_one_parser_serves_every_subcommand(tmp_path, capsys, parser_builds):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    for argv in (["analyze", path], ["depth", path], ["crb", path],
                 ["landscape", "landmarks", "--n-qubits", "4"], ["analyze", path]):
        assert main(argv) == 0
    assert len(parser_builds) == 1
    capsys.readouterr()


def test_library_calls_and_import_build_no_parser():
    src = str(Path(spinqfi.__file__).resolve().parents[1])
    code = ("import spinqfi.cli as c; from spinqfi.states import StateSpec; "
            "c.analysis_document(StateSpec('ghz', 4, 'x'), c.AnalysisConfig()); "
            "print(c._parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"


def test_options_do_not_leak_into_the_next_call(tmp_path, capsys):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    out = tmp_path / "once.json"
    for command, flags in (("analyze", ["--seed", "7", "--tol", "0.001"]),
                           ("crb", ["--seed", "7", "--measurement", "random"])):
        assert main([command, path, *flags, "--out", str(out)]) == 0
        out.unlink()
        assert main([command, path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert not out.exists()
        if command == "analyze":
            assert doc["diagnostics"]["config"] == AnalysisConfig().to_dict()
        else:
            assert doc["measurement"] == "parity-x"


@pytest.fixture
def perfbench_ops(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    return ops


def test_a_reused_parser_writes_the_bytes_of_a_fresh_one(tmp_path, monkeypatch, perfbench_ops):
    # every in-process crb op of the benchmark, and every cold CLI command
    # given an --out, run once through main and once through a fresh parser
    argvs, main_ = [], cli.main

    def recording_main(argv):
        argvs.append(argv)
        return main_(argv)
    monkeypatch.setattr(cli, "main", recording_main)
    crb_ops = perfbench_ops.crb_measure_ops(1, str(tmp_path))
    for op in crb_ops:
        op.run()
    assert len(argvs) == len(crb_ops)
    out = str(tmp_path / "cold_out.txt")
    argvs += [op.argv + ["--out", out] for op in perfbench_ops.cli_cold_ops(1, str(tmp_path))]
    for argv in argvs:
        target = argv[argv.index("--out") + 1]
        assert main_(argv) == 0
        reused = Path(target).read_bytes()
        args = cli.build_parser().parse_args(argv)
        assert args.func(args) == 0
        assert Path(target).read_bytes() == reused, argv


@pytest.mark.parametrize("argv", [
    ["crb"], ["crb", "s.json", "--theta", "abc"], ["bogus"],
    ["landscape", "sideways", "--n-qubits", "4"],
], ids=["missing-spec", "bad-theta", "unknown-subcommand", "bad-family"])
def test_usage_errors_return_2_in_process(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: spinqfi")


@pytest.mark.parametrize("argv, code", [(["crb"], 2), (["--help"], 0)],
                         ids=["usage-error", "help"])
def test_in_process_usage_matches_a_fresh_process(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # the help and usage line width
    assert main(argv) == code
    captured = capsys.readouterr()
    src = str(Path(spinqfi.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "spinqfi.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert "usage: spinqfi" in captured.out + captured.err


@pytest.mark.parametrize("between, code", [
    (["crb", "GHZ4", "--theta", "abc"], 2),
    (["crb", "GHZ4", "--direction", "sideways"], 3),
    (["crb", "GHZ4", "--max-qubits", "3"], 5),
], ids=["usage-error", "validation-error", "cap-error"])
def test_a_failed_call_leaves_the_next_one_unchanged(tmp_path, capsys, between, code):
    path = write_spec(tmp_path, "ghz4.json", GHZ4)
    argv = ["crb", path, "--measurement", "random", "--seed", "3", "--direction", "x"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main([path if a == "GHZ4" else a for a in between]) == code
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == first


# ------------------------------------------------------------ spec ids

def test_spec_id_tokens_are_comma_free():
    spec = states.StateSpec.from_dict(
        {"kind": "white_noise_mix", "n_qubits": 4, "p": 0.5, "inner": GHZ4})
    label = spec.label()
    assert "," not in label
    assert label == "white_noise_mix n=4 p=0.5 inner=(ghz n=4 basis=z)"
