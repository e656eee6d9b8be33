"""Command-line surface: analyze, landscape, crb, depth.

Specs and reports are JSON documents; every float is serialized with 17
significant digits so documents round-trip losslessly and identical inputs
produce byte-identical outputs (no timestamps, no environment echoes).

Exit codes: 0 success, 2 parse error, 3 validation error, 4 numerical
failure, 5 dimension cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__, criteria, interferometer, landscape, qfi, states
from .errors import SpecError, SpinQfiError, ValidationError
from .matcore import DIM_CAP, check_qubits
from .states import StateSpec


@dataclass(frozen=True)
class AnalysisConfig:
    tol_violation: float = criteria.TOL_VIOLATION
    eps_rank: float = qfi.EPS_RANK
    fd_step: float = interferometer.FD_STEP
    seed: int = 0
    dimension_cap: int = DIM_CAP  # above DIM_CAP, held (and echoed) as DIM_CAP

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            accepted = (int, float) if field.type == "float" else int
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValidationError(f"config field {field.name} must be of type "
                                      f"{field.type}, got {value!r}")
        for name in ("tol_violation", "eps_rank", "fd_step"):
            if not 0 < getattr(self, name) < math.inf:  # False for NaN too
                raise ValidationError(f"config field {name} must be positive and finite")
        cap = self.dimension_cap
        if cap < 2 or cap & (cap - 1) != 0:
            raise ValidationError("dimension_cap must be a power of 2, at least 2")
        object.__setattr__(self, "dimension_cap", min(cap, DIM_CAP))
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------- serialization

def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("cannot serialize non-finite numbers")
    return f"{x:.17g}"


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- spec loading

def _read_json(path: str, what: str, parse=lambda doc: doc):
    """parse(path's JSON); unreadable, non-JSON or too deeply nested input is a SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return parse(doc)
    except OSError as exc:
        raise SpecError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, over-long integers
        raise SpecError(f"{what} file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SpecError(f"{what} file {path} nests too deeply to parse") from None


def load_spec_file(path: str) -> StateSpec:
    return _read_json(path, "spec", StateSpec.from_dict)


def load_config(args) -> AnalysisConfig:
    cfg = AnalysisConfig()
    if getattr(args, "config", None):
        doc = _read_json(args.config, "config")
        if not isinstance(doc, dict):
            raise SpecError("config document must be an object")
        unknown = set(doc) - {field.name for field in fields(AnalysisConfig)}
        if unknown:
            raise SpecError(f"unknown config fields: {sorted(unknown)}")
        cfg = replace(cfg, **doc)
    if getattr(args, "tol", None) is not None:
        cfg = replace(cfg, tol_violation=args.tol)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "max_qubits", None) is not None:
        if args.max_qubits > 62:  # keeps the cap 2^n a machine integer
            raise ValidationError(f"--max-qubits must be at most 62, got {args.max_qubits}")
        cfg = replace(cfg, dimension_cap=2 ** args.max_qubits)
    return cfg


# ---------------------------------------------------------------- subcommands

def analysis_document(spec: StateSpec, cfg: AnalysisConfig) -> dict:
    state = states.from_spec(spec, cap=cfg.dimension_cap)
    qmat = qfi.qfi_matrix(state, eps_rank=cfg.eps_rank)
    reports, depth = criteria.evaluate_all(state, tol=cfg.tol_violation, qmat=qmat)
    return {
        "tool": {"name": "spinqfi", "version": __version__},
        "input_spec": spec.to_dict(),
        "n_qubits": state.n_qubits,
        "fisher_triple": [float(v) for v in qmat.fisher_triple],
        "qfi_matrix": [[float(v) for v in row] for row in qmat.mat],
        "qfi_matrix_eigenvalues": [float(v) for v in qmat.eigenvalues],
        "average_qfi": qmat.trace / 3.0,
        "criteria": [asdict(r) for r in reports],
        "unentangled_summary": criteria.unentangled_summary(reports),
        "depth_certificate": asdict(depth),
        "diagnostics": {
            "hermiticity_residue": state.herm_residue,
            "qfi_imag_residue": qmat.imag_residue,
            "config": cfg.to_dict(),
        },
    }


def depth_document(spec: StateSpec, cfg: AnalysisConfig) -> dict:
    state = states.from_spec(spec, cap=cfg.dimension_cap)
    qmat = qfi.qfi_matrix(state, eps_rank=cfg.eps_rank)
    return {
        "tool": {"name": "spinqfi", "version": __version__},
        "input_spec": spec.to_dict(),
        "depth_certificate": asdict(criteria.depth_lower_bound(
            state, cfg.tol_violation, qmat)),
    }


def cmd_analyze(args) -> int:
    cfg = load_config(args)
    docs = [args.document(load_spec_file(path), cfg) for path in args.spec]
    top = docs[0] if len(docs) == 1 else {"reports": docs}
    _emit(dumps(top) + "\n", args.out)
    return 0


def cmd_landscape(args) -> int:
    cfg = load_config(args)
    n = args.n_qubits
    if args.family in ("dicke_plane", "product_fill"):
        check_qubits(n, cfg.dimension_cap)
    rows = []
    if args.family == "landmarks":
        for name, point in landscape.landmark_points(n).items():
            rows.append((point.p, name))
    elif args.family == "dicke_plane":
        for point in landscape.sample_dicke_plane(n, args.count, cfg.seed):
            rows.append((point.p, point.provenance.label()))
    elif args.family == "product_fill":
        for point in landscape.sample_product_polytope(n, args.count, cfg.seed):
            rows.append((point.p, point.provenance.label()))
    elif args.family == "noise_line":
        spec = load_spec_file(args.spec) if args.spec else StateSpec("ghz", n, "z")
        base = states.from_spec(spec, cap=cfg.dimension_cap)
        if base.n_qubits != n:
            raise ValidationError(f"--n-qubits {n} differs from the spec's {base.n_qubits}")
        grid = np.linspace(0.0, 1.0, max(2, args.count))
        for entry in landscape.noise_line(base, grid).entries:
            rows.append((entry.measured.p, entry.measured.provenance.label()))
    else:
        raise ValidationError(f"unknown landscape family {args.family!r}")
    lines = ["F_x,F_y,F_z,spec_id"]
    for point, label in rows:
        lines.append(",".join(_format_float(float(v)) for v in point) + "," + label)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_measurement(name: str, state, direction, seed: int) -> interferometer.Measurement:
    if name.startswith("parity-"):
        axis = name.split("-", 1)[1]
        return interferometer.Measurement.parity(axis, state.n_qubits)
    if name == "computational":
        return interferometer.Measurement.computational(state.n_qubits)
    if name == "collective":
        return interferometer.Measurement.collective(direction, state.n_qubits)
    if name == "random":
        rng = np.random.default_rng(seed)
        dim = state.dim
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        basis, _ = np.linalg.qr(g)
        return interferometer.Measurement(np.arange(dim), basis)
    raise ValidationError(f"unknown measurement {name!r}")


def _parse_direction(text: str) -> np.ndarray:
    unit = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    if text in unit:
        return np.array(unit[text])
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"direction must be x, y, z or three comma-separated"
                              f" numbers, got {text!r}") from exc
    if vec.shape != (3,) or not np.all(np.isfinite(vec)) or np.linalg.norm(vec) == 0:
        raise ValidationError(f"invalid direction {text!r}")
    return vec / np.linalg.norm(vec)


def cmd_crb(args) -> int:
    cfg = load_config(args)
    spec = load_spec_file(args.spec)
    state = states.from_spec(spec, cap=cfg.dimension_cap)
    direction = _parse_direction(args.direction)
    fq = qfi.qfi_direction(state, direction, eps_rank=cfg.eps_rank)
    doc = {
        "tool": {"name": "spinqfi", "version": __version__},
        "input_spec": spec.to_dict(),
        "direction": [float(v) for v in direction],
        "theta": args.theta,
        "measurement": args.measurement,
        "fisher_quantum": fq,
    }
    if fq <= cfg.tol_violation:
        doc.update({"fisher_classical": None, "crb": None,
                    "ordering_ok": True, "status": "unbounded-variance"})
    else:
        meas = _build_measurement(args.measurement, state, direction, cfg.seed)
        setting = interferometer.PhaseSetting(args.theta, tuple(direction))
        detail = interferometer.classical_fisher_report(state, setting, meas,
                                                        h=cfg.fd_step)
        fcl = detail["value"]
        doc.update({
            "fisher_classical": fcl,
            "crb": 1.0 / math.sqrt(fq),
            "ordering_ok": bool(fcl <= fq + 1e-6),
            "status": "ok",
            "excluded_outcomes": detail["excluded_outcomes"],
        })
    _emit(dumps(doc) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinqfi",
        description="Collective-spin quantum Fisher information and "
                    "multipartite-entanglement certification for N-qubit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--tol", type=float, help="violation tolerance override")
        p.add_argument("--seed", type=int, help="RNG seed override")
        p.add_argument("--max-qubits", type=int, dest="max_qubits",
                       help="dimension cap as a qubit count")
        p.add_argument("--out", help="output path (default stdout)")

    p_an = sub.add_parser("analyze", help="full criteria report for state specs")
    p_an.add_argument("spec", nargs="+", help="state-spec JSON files")
    common(p_an)
    p_an.set_defaults(func=cmd_analyze, document=analysis_document)

    p_dep = sub.add_parser("depth", help="entanglement-depth certificate only")
    p_dep.add_argument("spec", nargs="+", help="state-spec JSON files")
    common(p_dep)
    p_dep.set_defaults(func=cmd_analyze, document=depth_document)

    p_land = sub.add_parser("landscape", help="point clouds in Fisher space")
    p_land.add_argument("family", choices=["landmarks", "dicke_plane",
                                           "product_fill", "noise_line"])
    p_land.add_argument("--n-qubits", type=int, required=True, dest="n_qubits")
    p_land.add_argument("--count", type=int, default=100)
    p_land.add_argument("--spec", help="state spec for the noise_line family")
    common(p_land)
    p_land.set_defaults(func=cmd_landscape)

    p_crb = sub.add_parser("crb", help="quantum/classical Fisher comparison")
    p_crb.add_argument("spec", help="state-spec JSON file")
    p_crb.add_argument("--direction", default="z")
    p_crb.add_argument("--measurement", default="parity-x")
    p_crb.add_argument("--theta", type=float, default=0.1)
    common(p_crb)
    p_crb.set_defaults(func=cmd_crb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpinQfiError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc),
                           "exit_code": exc.exit_code}}
        sys.stderr.write(dumps(error) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
