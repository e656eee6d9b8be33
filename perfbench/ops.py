"""The four workloads as lists of benchmark ops, generated from a seed.

A benchmark op is one user-visible result: one analysis document, one crb
report or one CLI invocation. Each op carries the call to time, the size it
runs at, and the check its output must pass. Ops marked `recorded` are
seed-independent and are also compared with `reference.json`; seeded ops are
checked against the second routes in `oracle.py` and closed forms.

The seed drives every random input: the raw_matrix mixtures, the realize
targets and their multistart seeds, the random-measurement seed and the
landscape sampler seeds. The library receives only the generated specs.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

import oracle

WORKLOADS = ("analyze_pure", "analyze_mixed", "crb_measure", "cli_cold")
ATOL = 1e-7            # absolute tolerance on Fisher values (scale up to N^2 = 100)
FCL_RTOL = 1e-5        # admits the O(h^2) finite-difference truncation, ~3e-7 at N = 9
TOL_VIOLATION = 1e-9   # the library's default violation tolerance
CLI_TIMEOUT_S = 60.0


def check(op, output, reference: dict) -> List[str]:
    """Problems with one op's output: its own invariants, its closed forms or
    oracle values, and for a recorded op the reference."""
    got = op.summarize(output)
    problems = list(got.pop("_problems", []))
    problems += compare(got, op.expect, op.n)
    if op.recorded:
        ref = reference.get(op.name)
        problems += ["no reference recorded"] if ref is None else compare(got, ref, op.n)
    return problems


@dataclass
class Op:
    name: str                      # stable id; keys reference.json
    n: int                         # qubits, for the one warm-up per size
    run: Callable[[], object]      # the timed call
    summarize: Callable[[object], dict]
    expect: dict = field(default_factory=dict)   # closed forms / oracle values
    recorded: bool = False
    check = check


# ---------------------------------------------------------------- comparison

def _close(a, b, atol=ATOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol))


def compare(got: dict, want: dict, n: int) -> List[str]:
    """Problems with `got` against expected values `want` (keys may be partial)."""
    out = []
    for key, value in want.items():
        if key not in got:
            out.append(f"{key}: missing")
        elif key == "fisher_classical":
            g = got[key]
            if g is None or abs(g - value) > FCL_RTOL * abs(value) + 1e-6:
                out.append(f"fisher_classical {g!r} != {value!r}")
        elif key in ("fisher_triple", "qfi_matrix", "fisher_quantum", "variance_sum"):
            if not _close(got[key], value):
                out.append(f"{key} {got[key]!r} != {np.asarray(value).tolist()!r}")
        elif key == "stdout" and got[key] != value:
            out.append(_crb_text_problem(got[key], value))
        elif key != "stdout" and got[key] != value:
            out.append(f"{key} {got[key]!r} != {value!r}")
    return [p for p in out if p]


def _crb_text_problem(text: str, ref: str) -> Optional[str]:
    """A crb document may differ from its reference only in fisher_classical
    (and the crb field derived from it), and only within FCL_RTOL."""
    try:
        got, want = json.loads(text), json.loads(ref)
    except json.JSONDecodeError as exc:
        return f"crb stdout is not JSON: {exc}"
    for doc in (got, want):
        doc.pop("crb", None)
    problems = compare({"fisher_classical": got.pop("fisher_classical", None)},
                       {"fisher_classical": want.pop("fisher_classical")}, 0)
    if got != want:
        problems.append("crb stdout differs beyond fisher_classical")
    return "; ".join(problems) or None


def _invariants(triple, n: int) -> List[str]:
    t = np.asarray(triple, dtype=float)
    out = []
    if np.any(t < -1e-9):
        out.append(f"negative Fisher component {t}")
    if np.any(t > n * n + 1e-6):
        out.append(f"Fisher component above N^2 = {n * n}: {t}")
    return out


def analysis_summary(output) -> dict:
    doc, text = output
    n = doc["n_qubits"]
    problems = _invariants(doc["fisher_triple"], n)
    for row in doc["criteria"]:
        if row["violated"] != (row["margin"] > TOL_VIOLATION):
            problems.append(f"row {row['criterion_id']} violated flag disagrees with margin")
    if json.loads(text)["fisher_triple"] != doc["fisher_triple"]:
        problems.append("serialized document does not round-trip")
    cert = doc["depth_certificate"]
    return {
        "_problems": problems,
        "fisher_triple": doc["fisher_triple"],
        "qfi_matrix": doc["qfi_matrix"],
        "variance_sum": next(r["value"] for r in doc["criteria"]
                             if r["criterion_id"] == "variance_floor"),
        "depth": cert["depth_lower_bound"],
        "witness": cert["witnessing_criterion"],
        "violated": [r["criterion_id"] for r in doc["criteria"] if r["violated"]],
    }


def crb_summary_from_text(text: str) -> dict:
    doc = json.loads(text)
    problems = []
    fq, fcl = doc["fisher_quantum"], doc["fisher_classical"]
    if doc["status"] != "ok" or not doc["ordering_ok"]:
        problems.append(f"status {doc['status']!r}, ordering_ok {doc['ordering_ok']!r}")
    if fcl is None or fcl > fq + 1e-6:
        problems.append(f"F_cl {fcl!r} exceeds F_Q {fq!r}")
    return {"_problems": problems, "fisher_quantum": fq, "fisher_classical": fcl,
            "excluded_outcomes": doc["excluded_outcomes"]}


# ---------------------------------------------------------------- inputs

def _dicke_targets(rng, n: int):
    """An interior point of the Dicke cone: plane weights >= 0.1, scale in
    [0.5, 0.95]. Boundary points are documented as out of reach."""
    while True:
        w = rng.dirichlet(np.ones(3))
        if w.min() >= 0.1:
            break
    plane = n * (n + 2) / 2.0
    vertices = np.array([[0.0, plane, plane], [plane, 0.0, plane], [plane, plane, 0.0]])
    return rng.uniform(0.5, 0.95) * (w @ vertices)


def _product_target(rng, n: int):
    while True:
        w = rng.dirichlet(np.ones(4))
        if w.min() >= 0.05:
            break
    vertices = np.array([[0.0, n, n], [n, 0.0, n], [n, n, 0.0], [0.0, 0.0, 0.0]])
    return w @ vertices


def _spec_dict(kind, n=None, **kw) -> dict:
    doc = {"kind": kind}
    if n is not None:
        doc["n_qubits"] = n
    doc.update(kw)
    return doc


def _wnm(p, inner) -> dict:
    return {"kind": "white_noise_mix", "p": p, "inner": inner}


# ---------------------------------------------------------------- in-process ops

def _analysis_ops(specs, rng_targets=None) -> List[Op]:
    from spinqfi import cli, landscape
    from spinqfi.states import StateSpec

    cfg = cli.AnalysisConfig()
    ops = []
    for name, doc, expect, recorded in specs:
        spec = StateSpec.from_dict(doc)
        n = doc.get("n_qubits") or doc["inner"]["n_qubits"]
        ops.append(Op(name, n, lambda spec=spec: _analyze(cli, cfg, spec),
                      analysis_summary, expect, recorded))
    for name, n, kind, target, seed in rng_targets or ():
        if kind == "product":
            run = lambda t=target, n=n: _analyze(
                cli, cfg, landscape.realize_product_point(t, n).spec)
        else:
            run = lambda t=target, n=n, s=seed: _analyze(
                cli, cfg, landscape.realize_dicke_point(t, n, seed=s).spec)
        ops.append(Op(name, n, run, analysis_summary,
                      {"fisher_triple": [float(v) for v in target]}))
    return ops


def _analyze(cli, cfg, spec):
    doc = cli.analysis_document(spec, cfg)
    return doc, cli.dumps(doc)


def analyze_pure_ops(seed: int, workdir: str) -> List[Op]:
    del seed, workdir  # every input of this workload is fixed
    specs = []
    for b in ("x", "y", "z"):
        specs.append((f"ghz_{b}_n10", _spec_dict("ghz", 10, basis=b),
                      {"fisher_triple": list(oracle.ghz_triple(10, b))}, True))
    specs += [
        ("dicke_y_n10", _spec_dict("dicke", 10, basis="y", m=5),
         {"fisher_triple": list(oracle.dicke_triple(10, 5, "y"))}, True),
        ("excited_dicke_z_n10", _spec_dict("excited_dicke", 10, basis="z"), {}, True),
        ("product_bloch_n10", _spec_dict("product_bloch", 10, c=[0.6, 0.0, 0.8]),
         {"fisher_triple": list(oracle.product_triple([0.6, 0.0, 0.8], 10))}, True),
        ("even_parity_n10", _spec_dict("even_parity", 10,
                                       coeffs=[[0.6, 0.0], [0.0, 0.0], [0.0, 0.8]]), {}, True),
    ]
    for b in ("x", "y", "z"):
        specs.append((f"ghz_{b}_n9", _spec_dict("ghz", 9, basis=b),
                      {"fisher_triple": list(oracle.ghz_triple(9, b))}, True))
    for i, alpha in enumerate(((1, 1j, 0.5), (1, 0, 0), (0.2, 0.9j, 0.4))):
        psi = oracle.dicke_superposition_vector(alpha, 8)
        specs.append((f"dicke_superposition_{i}_n8",
                      _spec_dict("dicke_superposition", 8,
                                 alpha=[[complex(a).real, complex(a).imag] for a in alpha]),
                      {"fisher_triple": list(oracle.pure_triple(psi, 8))}, True))
    for b in ("x", "y", "z"):
        specs.append((f"ghz_{b}_n8", _spec_dict("ghz", 8, basis=b),
                      {"fisher_triple": list(oracle.ghz_triple(8, b))}, True))
    return _analysis_ops(specs)


def _raw_spec(rng, n: int, count: int):
    rho = oracle.random_mixture(rng, n, count)
    doc = _spec_dict("raw_matrix", n, matrix=[[[z.real, z.imag] for z in row] for row in rho])
    return doc, {"qfi_matrix": oracle.qfi_matrix(rho, n).tolist()}


def analyze_mixed_ops(seed: int, workdir: str) -> List[Op]:
    del workdir
    rng = np.random.default_rng([seed, 1])
    specs = []
    for name, n, p, inner, pure in (
            ("wnm_ghz_x_n10", 10, 0.8, _spec_dict("ghz", 10, basis="x"), oracle.ghz_triple(10, "x")),
            ("wnm_dicke_z_n10", 10, 0.7, _spec_dict("dicke", 10, basis="z", m=5),
             oracle.dicke_triple(10, 5, "z"))):
        specs.append((name, _wnm(p, inner),
                      {"fisher_triple": list(oracle.noise_scale(p, n) * pure)}, True))
    specs.append(("completely_mixed_n10", _spec_dict("completely_mixed", 10),
                  {"fisher_triple": [0.0, 0.0, 0.0]}, True))
    for name, p, inner, pure in (
            ("wnm_ghz_z_n9", 0.9, _spec_dict("ghz", 9, basis="z"), oracle.ghz_triple(9, "z")),
            ("wnm_ghz_y_n9", 0.6, _spec_dict("ghz", 9, basis="y"), oracle.ghz_triple(9, "y")),
            ("wnm_ghz_x_n9", 0.75, _spec_dict("ghz", 9, basis="x"), oracle.ghz_triple(9, "x")),
            ("wnm_dicke_y_n9", 0.5, _spec_dict("dicke", 9, basis="y", m=4),
             oracle.dicke_triple(9, 4, "y")),
            ("wnm_dicke_z_n9", 0.85, _spec_dict("dicke", 9, basis="z", m=3),
             oracle.dicke_triple(9, 3, "z"))):
        specs.append((name, _wnm(p, inner),
                      {"fisher_triple": list(oracle.noise_scale(p, 9) * pure)}, True))
    specs.append(("completely_mixed_n9", _spec_dict("completely_mixed", 9),
                  {"fisher_triple": [0.0, 0.0, 0.0]}, True))
    for n, count in ((8, 12), (6, 1), (6, 3), (6, 8), (6, 128)):
        doc, expect = _raw_spec(rng, n, count)
        specs.append((f"raw_rank{min(count, 2 ** n)}_n{n}", doc, expect, False))
    targets = [("realize_product_n8", 8, "product", _product_target(rng, 8), 0),
               ("realize_dicke_n8", 8, "dicke", _dicke_targets(rng, 8),
                int(rng.integers(0, 2 ** 31)))]
    return _analysis_ops(specs, targets)


def crb_measure_ops(seed: int, workdir: str) -> List[Op]:
    from spinqfi import cli

    rng = np.random.default_rng([seed, 2])
    out_path = os.path.join(workdir, "crb_out.json")
    ops = []

    def add(name, n, spec, direction, measurement, expect, meas_seed=None):
        spec_path = os.path.join(workdir, f"{name}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        argv = ["crb", spec_path, "--direction", direction, "--measurement", measurement,
                "--theta", "0.1", "--out", out_path]
        if meas_seed is not None:
            argv += ["--seed", str(meas_seed)]

        def summarize(rc):
            if rc != 0:
                return {"_problems": [f"exit code {rc}"]}
            with open(out_path, "r", encoding="utf-8") as fh:
                return crb_summary_from_text(fh.read())

        ops.append(Op(name, n, lambda argv=argv: cli.main(argv), summarize, expect,
                      recorded=meas_seed is None))

    # The N = 9 white-noise parity ops form the group that both the median
    # and the tail fall in, so it holds four ops of one cost.
    ghz9, sq9 = _spec_dict("ghz", 9, basis="z"), 81.0
    add("ghz_parity_x_n9", 9, ghz9, "z", "parity-x",
        {"fisher_quantum": sq9, "fisher_classical": sq9})
    add("ghz_parity_y_n9", 9, ghz9, "z", "parity-y", {"fisher_quantum": sq9})
    for p in (0.9, 0.7):
        for axis in ("x", "y"):
            add(f"wnm{p}_ghz_parity_{axis}_n9", 9, _wnm(p, ghz9), "z", f"parity-{axis}",
                {"fisher_quantum": oracle.noise_scale(p, 9) * sq9})
    add("dicke_collective_n9", 9, _spec_dict("dicke", 9, basis="z", m=4), "x", "collective",
        {"fisher_quantum": oracle.spin_component_fisher(9, 4), "fisher_classical": 0.0})
    add("ghz_parity_x_n6", 6, _spec_dict("ghz", 6, basis="z"), "z", "parity-x",
        {"fisher_quantum": 36.0, "fisher_classical": 36.0})
    for n in (8, 6):
        add(f"dicke_computational_n{n}", n, _spec_dict("dicke", n, basis="z", m=n // 2), "x",
            "computational", {"fisher_quantum": n * (n + 2) / 2.0})
        meas_seed = int(rng.integers(0, 2 ** 31))
        fcl = oracle.classical_fisher_basis(
            oracle.excited_dicke_vector(n), n, oracle.direction_vector("x"), 0.1,
            oracle.random_basis(2 ** n, meas_seed))
        add(f"excited_dicke_random_n{n}", n, _spec_dict("excited_dicke", n, basis="z"), "x",
            "random", {"fisher_classical": fcl}, meas_seed=meas_seed)
    return ops


# ---------------------------------------------------------------- cold CLI ops

def cli_command(traced: bool, span_path: str = "") -> List[str]:
    if traced:
        return [sys.executable, os.path.join(os.path.dirname(__file__), "cli_driver.py"),
                span_path]
    return [sys.executable, "-m", "spinqfi.cli"]


@dataclass
class CliOp:
    name: str
    argv: List[str]
    check_rows: Optional[Callable[[list], List[str]]] = None
    crb: bool = False
    recorded: bool = True
    n: int = 0
    expect: dict = field(default_factory=dict)
    check = check

    def run(self, traced: bool = False, span_path: str = ""):
        proc = subprocess.run(cli_command(traced, span_path) + self.argv,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def summarize(self, output) -> dict:
        rc, stdout, stderr = output
        got = {"exit_code": rc, "sha256": hashlib.sha256(stdout).hexdigest(),
               "size": len(stdout)}
        problems = [] if rc == 0 else [f"exit code {rc}: {stderr.decode(errors='replace')[-300:]}"]
        if self.crb:
            got = {"exit_code": rc, "stdout": stdout.decode()}
        if self.check_rows is not None and rc == 0:
            rows = list(csv.reader(io.StringIO(stdout.decode())))[1:]
            problems += self.check_rows(rows)
        got["_problems"] = problems
        return got


def _rows_check(n: int, expected_of_label: Callable[[str], np.ndarray],
                count: int) -> Callable[[list], List[str]]:
    def check(rows):
        problems = [] if len(rows) == count else [f"{len(rows)} rows, expected {count}"]
        for row in rows:
            triple = [float(v) for v in row[:3]]
            problems += _invariants(triple, n)
            want = expected_of_label(row[3])
            if not _close(triple, want, 1e-6):
                problems.append(f"row {row[3]!r}: {triple} != {list(want)}")
        return problems[:5]
    return check


def _label_fields(label: str) -> dict:
    """Parse the CLI's spec_id tokens, e.g. 'white_noise_mix n=8 p=0.5 inner=(...)'."""
    fields = {}
    for tok in label.replace("(", " ").replace(")", " ").split():
        if "=" in tok:
            key, value = tok.split("=", 1)
            fields.setdefault(key, value)
    return fields


def _product_fill_expected(n: int):
    def expected(label):
        f = _label_fields(label)
        c = [float(v) for v in f["c"].split("/")]
        return oracle.noise_scale(float(f["p"]), n) * oracle.product_triple(c, n)
    return expected


def _dicke_plane_expected(n: int):
    def expected(label):
        alpha = [complex(v) for v in _label_fields(label)["alpha"].split("/")]
        triple = oracle.pure_triple(oracle.dicke_superposition_vector(alpha, n), n)
        if abs(triple.sum() - n * (n + 2)) > 1e-6:  # the Dicke plane
            return np.full(3, np.nan)
        return triple
    return expected


def _noise_line_expected(n: int):
    ghz = oracle.ghz_triple(n, "z")

    def expected(label):
        p = float(_label_fields(label)["p"])
        return oracle.noise_scale(p, n) * ghz
    return expected


def cli_cold_ops(seed: int, workdir: str) -> List[CliOp]:
    rng = np.random.default_rng([seed, 3])

    def spec_file(name, doc):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    ghz4 = spec_file("ghz_x_n4", _spec_dict("ghz", 4, basis="x"))
    batch = [spec_file("dicke_x_n6", _spec_dict("dicke", 6, basis="x", m=3)),
             spec_file("excited_dicke_y_n6", _spec_dict("excited_dicke", 6, basis="y")),
             spec_file("even_parity_n6", _spec_dict("even_parity", 6,
                                                    coeffs=[[0.6, 0.0], [0.0, 0.8]]))]
    ghz6 = spec_file("ghz_z_n6", _spec_dict("ghz", 6, basis="z"))
    ghz4z = spec_file("ghz_z_n4", _spec_dict("ghz", 4, basis="z"))
    dicke6 = spec_file("dicke_z_n6", _spec_dict("dicke", 6, basis="z", m=3))
    wnm_dicke8 = spec_file("wnm_dicke_x_n8", _wnm(0.8, _spec_dict("dicke", 8, basis="x", m=4)))
    plane_seed, fill_seed = (int(s) for s in rng.integers(0, 2 ** 31, 2))
    return [
        CliOp("analyze_ghz_x_n4", ["analyze", ghz4], n=4),
        CliOp("analyze_batch_n6", ["analyze"] + batch, n=6),
        CliOp("depth_ghz_z_n6", ["depth", ghz6], n=6),
        CliOp("crb_parity_n4", ["crb", ghz4z, "--direction", "z", "--measurement", "parity-x"],
              crb=True, n=4),
        CliOp("crb_computational_n6", ["crb", dicke6, "--direction", "x",
                                       "--measurement", "computational"], crb=True, n=6),
        CliOp("analyze_wnm_dicke_x_n8", ["analyze", wnm_dicke8], n=8),
        CliOp("landscape_landmarks_n6", ["landscape", "landmarks", "--n-qubits", "6"], n=6),
        CliOp("landscape_landmarks_n8", ["landscape", "landmarks", "--n-qubits", "8"], n=8),
        CliOp("landscape_dicke_plane_n8",
              ["landscape", "dicke_plane", "--n-qubits", "8", "--count", "12",
               "--seed", str(plane_seed)],
              _rows_check(8, _dicke_plane_expected(8), 12), recorded=False, n=8),
        CliOp("landscape_product_fill_n8",
              ["landscape", "product_fill", "--n-qubits", "8", "--count", "12",
               "--seed", str(fill_seed)],
              _rows_check(8, _product_fill_expected(8), 12), recorded=False, n=8),
        CliOp("landscape_noise_line_n8",
              ["landscape", "noise_line", "--n-qubits", "8", "--count", "11"],
              _rows_check(8, _noise_line_expected(8), 11), n=8),
    ]


BUILDERS = {
    "analyze_pure": analyze_pure_ops,
    "analyze_mixed": analyze_mixed_ops,
    "crb_measure": crb_measure_ops,
    "cli_cold": cli_cold_ops,
}
