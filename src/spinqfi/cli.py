"""Command-line surface: analyze, landscape, crb, depth.

Specs and reports are JSON documents; every float is serialized with 17
significant digits so documents round-trip losslessly and identical inputs
produce byte-identical outputs (no timestamps, no environment echoes).

Exit codes: 0 success, 2 parse error, 3 validation error, 4 numerical
failure, 5 dimension cap exceeded. main(argv) returns the code in every case,
and repeated in-process calls share one parser, built on the first of them.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cache, lru_cache
from typing import Optional

import numpy as np

from . import __version__, criteria, interferometer, landscape, qfi, states
from .errors import SpecError, SpinQfiError, ValidationError
from .matcore import DIM_CAP, check_qubits
from .states import StateSpec


def _flat_dict(record) -> dict:
    """A dataclass of scalar fields as a dict, field by field: the keys and
    values of dataclasses.asdict without its recursive deep copy."""
    return {field.name: getattr(record, field.name) for field in fields(record)}


@dataclass(frozen=True)
class AnalysisConfig:
    tol_violation: float = criteria.TOL_VIOLATION
    eps_rank: float = qfi.EPS_RANK
    fd_step: float = 1e-4  # echoed; crb reads the exact derivative
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
        return _flat_dict(self)


# ---------------------------------------------------------------- serialization

def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("cannot serialize non-finite numbers")
    return f"{x:.17g}"


def _layout(items, indent: int, brackets: str = "[]") -> str:
    inner = "  " * (indent + 1)
    return (brackets[0] + "\n" + ",\n".join(inner + it for it in items) + "\n"
            + "  " * indent + brackets[1])


@lru_cache(maxsize=64)
def _float_template(count: int, width: Optional[int], indent: int) -> str:
    if width is None:
        return _layout(["%.17g"] * count, indent)
    return _layout([_layout(["%.17g"] * width, indent + 1)] * count, indent)


def _float_rows(obj: list, indent: int) -> Optional[str]:
    """dumps of a nonempty list of Python floats, or of equal-length nonempty
    lists of them, filled into a %.17g template by one % call (the formatter
    of f"{x:.17g}"); None for any other list."""
    first = obj[0]
    if type(first) is float:
        flat, width = obj, None
    elif type(first) is list and first and type(first[0]) is float:
        width = len(first)
        if set(map(type, obj)) != {list} or set(map(len, obj)) != {width}:
            return None
        flat = [x for row in obj for x in row]
    else:
        return None
    if set(map(type, flat)) != {float}:
        return None
    text = _float_template(len(obj), width, indent) % tuple(flat)
    if "n" in text:  # "nan" or "inf"; the template and finite floats hold no "n"
        raise ValidationError("cannot serialize non-finite numbers")
    return text


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
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
        text = _float_rows(obj, indent) if type(obj) is list else None
        return text or _layout([dumps(v, indent + 1) for v in obj], indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():  # a loop, so each level of a spec's inner chain is one frame
            items.append(f"{json.dumps(str(k))}: {dumps(v, indent + 1)}")
        return _layout(items, indent, "{}")
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _check_out(out_path) -> None:
    """Reject an --out that names a directory or sits in a missing one, before
    any state is built; _emit maps any other OSError when it writes."""
    if out_path and (os.path.isdir(out_path)
                     or not os.path.isdir(os.path.dirname(out_path) or ".")):
        raise ValidationError(f"cannot write output file {out_path}: "
                              "it is a directory or its directory does not exist")


def _emit(text: str, out_path) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {out_path}: {exc}") from exc


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
        "criteria": [_flat_dict(r) for r in reports],
        "unentangled_summary": criteria.unentangled_summary(reports),
        "depth_certificate": _flat_dict(depth),
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
        "depth_certificate": _flat_dict(criteria.depth_lower_bound(
            state, cfg.tol_violation, qmat)),
    }


def cmd_analyze(args) -> int:
    cfg = load_config(args)
    specs = [load_spec_file(path) for path in args.spec]
    _check_out(args.out)
    docs = [args.document(spec, cfg) for spec in specs]
    top = docs[0] if len(docs) == 1 else {"reports": docs}
    _emit(dumps(top) + "\n", args.out)
    return 0


MAX_COUNT = 10 ** 6  # landscape rows are held in memory until output


def cmd_landscape(args) -> int:
    cfg = load_config(args)
    n = args.n_qubits
    if args.count < 1:
        raise ValidationError(f"--count must be at least 1, got {args.count}")
    if args.count > MAX_COUNT:
        raise ValidationError(f"--count must be at most {MAX_COUNT}, got {args.count}")
    if args.family in ("dicke_plane", "product_fill"):
        check_qubits(n, cfg.dimension_cap)
    if args.family == "noise_line":
        spec = load_spec_file(args.spec) if args.spec else StateSpec("ghz", n, "z")
    _check_out(args.out)
    rows = []
    if args.family == "landmarks":
        for name, point in landscape.landmark_points(n).items():
            rows.append((point.p, name))
    elif args.family == "dicke_plane":
        for point in landscape.sample_dicke_plane(n, args.count, cfg.seed):
            rows.append((point.p, point.provenance.label()))
    elif args.family == "product_fill":
        for point in landscape.sample_product_polytope(n, args.count, cfg.seed,
                                                        cfg.eps_rank):
            rows.append((point.p, point.provenance.label()))
    else:  # noise_line; argparse admits no other family
        base = states.from_spec(spec, cap=cfg.dimension_cap)
        if base.n_qubits != n:
            raise ValidationError(f"--n-qubits {n} differs from the spec's {base.n_qubits}")
        grid = np.linspace(0.0, 1.0, max(2, args.count))
        for entry in landscape.noise_line(base, grid, cfg.eps_rank).entries:
            rows.append((entry.measured.p, entry.measured.provenance.label()))
    lines = ["F_x,F_y,F_z,spec_id"]
    for point, label in rows:
        lines.append(",".join(_format_float(float(v)) for v in point) + "," + label)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _measurement_builder(name: str, direction, seed: int):
    """state -> the Measurement a --measurement name picks; an unknown name
    fails here, before any QFI work."""
    meas = interferometer.Measurement
    if name in ("parity-x", "parity-y", "parity-z"):
        return lambda state: meas.parity(name[-1], state.n_qubits)
    if name == "computational":
        return lambda state: meas.computational(state.n_qubits)
    if name == "collective":
        return lambda state: meas.collective(direction, state.n_qubits)
    if name != "random":
        raise ValidationError(f"unknown measurement {name!r}")

    def random_basis(state):
        rng, dim = np.random.default_rng(seed), state.dim
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return meas(np.arange(dim), np.linalg.qr(g)[0])
    return random_basis


def _parse_direction(text: str) -> np.ndarray:
    unit = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    if text in unit:
        return np.array(unit[text])
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"direction must be x, y, z or three comma-separated"
                              f" numbers, got {text!r}") from exc
    if vec.shape != (3,) or not np.all(np.isfinite(vec)) or not vec.any():
        raise ValidationError(f"invalid direction {text!r}")
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        nrm = np.linalg.norm(vec)
    if nrm == 0 or not math.isfinite(nrm):  # the squares under- or overflowed
        vec = vec / np.max(np.abs(vec))
        nrm = np.linalg.norm(vec)
    return vec / nrm


def cmd_crb(args) -> int:
    cfg = load_config(args)
    spec = load_spec_file(args.spec)
    _check_out(args.out)
    state = states.from_spec(spec, cap=cfg.dimension_cap)
    direction = _parse_direction(args.direction)
    setting = interferometer.PhaseSetting(args.theta, tuple(direction))
    build_measurement = _measurement_builder(args.measurement, direction, cfg.seed)
    fq = qfi.qfi_direction(state, direction, eps_rank=cfg.eps_rank)
    doc = {
        "tool": {"name": "spinqfi", "version": __version__},
        "input_spec": spec.to_dict(),
        "direction": [float(v) for v in direction],
        "theta": setting.theta,
        "measurement": args.measurement,
        "fisher_quantum": fq,
    }
    if fq <= cfg.tol_violation:
        doc.update({"fisher_classical": None, "crb": None,
                    "ordering_ok": True, "status": "unbounded-variance"})
    else:
        meas = build_measurement(state)
        detail = interferometer.classical_fisher_report(state, setting, meas)
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


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process. Reuse is sound: parse_args returns a
    fresh namespace, and no action appends or holds a mutable default."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0); argparse wrote the text
        return exc.code
    try:
        return args.func(args)
    except SpinQfiError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc),
                           "exit_code": exc.exit_code}}
        sys.stderr.write(dumps(error) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
