"""Span recording around spinqfi's public functions, from outside the library.

`install` rebinds each traced function to a wrapper that records a span
(name, start, end, parent, op id, attributes). The wrapper replaces the
function in its defining module and in every spinqfi module that imported
it by name (for example `criteria.variance`, `landscape.fisher_triple`,
`interferometer.herm_exp`, `states.eigh`), so calls through either route are
seen. `uninstall` puts the originals back. Spans stay in memory; the caller
writes them out at the end.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
Self time is a span's duration minus the time its child spans cover. The
`*_computed` work counts come from N and the support rank, never from timers.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

START, END, PARENT, OP, ATTRS = 1, 2, 3, 4, 5

STATE_BUILDERS = ("ghz", "dicke", "product_bloch", "even_parity", "dicke_superposition",
                  "excited_dicke", "completely_mixed", "white_noise_mix", "mix",
                  "from_matrix")
SAMPLERS = ("landmark_points", "sample_product_polytope", "sample_dicke_plane", "noise_line")
REALIZERS = ("realize_product_point", "realize_dicke_point")
MEASUREMENT_BUILDERS = ("Measurement.parity", "Measurement.computational",
                        "Measurement.from_observable", "Measurement.__init__")
PARSERS = ("build_parser", "parse_args", "load_config", "load_spec_file")

# Per-layer metrics in report order, with their units. "count" and the
# *_computed metrics must repeat exactly from pass to pass.
METRICS = {
    "qfi.variance_s": "s", "qfi.variance_calls": "count",
    "qfi.variance_gflop_computed": "GFLOP",
    "qfi.qfi_matrix_s": "s", "qfi.qfi_matrix_calls": "count",
    "qfi.gflop_computed": "GFLOP", "qfi.gflops_achieved": "GFLOP/s",
    "states.build_s": "s", "states.spectrum_s": "s",
    "states.support_rank_mean": "count", "states.rho_mb_computed": "MB",
    "collective.build_s": "s", "collective.cache_misses": "count",
    "collective.resident_mb_computed": "MB",
    "matcore.eigh_s": "s", "matcore.eigh_calls": "count",
    "matcore.herm_exp_s": "s", "matcore.herm_exp_calls": "count",
    "interferometer.measurement_s": "s", "interferometer.projectors": "count",
    "interferometer.projector_mb_computed": "MB",
    "interferometer.evolve_s": "s", "interferometer.evolve_calls": "count",
    "interferometer.classical_fisher_self_s": "s",
    "interferometer.excluded_outcomes": "count",
    "criteria.evaluate_all_s": "s", "criteria.self_s": "s", "criteria.rows": "count",
    "landscape.sample_s": "s", "landscape.realize_s": "s",
    "landscape.alpha_for_point_s": "s", "landscape.points": "count",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.parse_s": "s",
    "cli.serialize_s": "s", "cli.output_mb": "MB",
    "trace.overhead_ratio": "ratio", "trace.residual_s": "s",
}
EXACT = tuple(k for k, unit in METRICS.items() if unit in ("count", "MB", "GFLOP"))
MB = 1e6
GFLOP = 1e9


class Recorder:
    """Spans of one process: [name, start, end, parent index, op id, attrs]."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = None
        self._restore: List[tuple] = []

    def wrap(self, name: str, fn: Callable, post: Optional[Callable] = None,
             pre: Optional[Callable] = None, outermost_only: bool = False) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            token = pre() if pre else None
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.op, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = time.perf_counter()
            if post:
                spans[idx][ATTRS] = post(args, result, token)
            return result
        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every traced function wherever spinqfi holds a reference to it."""
        from spinqfi import (cli, collective, criteria, interferometer, landscape,
                             matcore, qfi, states)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "spinqfi" or name.startswith("spinqfi.")]

        def dim_of_state(args, result, token):
            return {"d": args[0].dim}

        def dim_of_result(args, result, token):
            return {"d": result.dim}

        def count(args, result, token):
            return {"points": len(result)}

        plain = [
            (matcore, "eigh", None, None),
            (matcore, "herm_exp", None, None),
            (collective, "collective_j",
             lambda a, r, t: {"key": [a[0], a[1]],
                              "miss": collective._collective_cached.cache_info().misses > t},
             lambda: collective._collective_cached.cache_info().misses),
            (states, "from_spec", None, None),
            (qfi, "qfi_matrix", dim_of_state, None),
            (qfi, "variance", dim_of_state, None),
            (qfi, "fisher_triple", None, None),
            (qfi, "qfi_direction", None, None),
            (criteria, "evaluate_all", lambda a, r, t: {"rows": len(r[0])}, None),
            (criteria, "variance_criterion", None, None),
            (criteria, "depth_lower_bound", None, None),
            (criteria, "spectral_criteria", None, None),
            (interferometer, "evolve", None, None),
            (interferometer, "classical_fisher_report",
             lambda a, r, t: {"excluded": r["excluded_outcomes"]}, None),
            (landscape, "sample_product_polytope", count, None),
            (landscape, "sample_dicke_plane", count, None),
            (landscape, "landmark_points", count, None),
            (landscape, "noise_line", lambda a, r, t: {"points": len(r.entries)}, None),
            (landscape, "realize_product_point", lambda a, r, t: {"points": 1}, None),
            (landscape, "realize_dicke_point", lambda a, r, t: {"points": 1}, None),
            (landscape, "alpha_for_point", None, None),
            (cli, "load_config", None, None),
            (cli, "load_spec_file", None, None),
        ]
        plain += [(states, name, dim_of_result, None) for name in STATE_BUILDERS]
        for module, attr, post, pre in plain:
            original = module.__dict__[attr]
            wrapped = self.wrap(attr, original, post, pre)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, name, wrapped)

        dumps = cli.dumps
        wrapped_dumps = self.wrap("dumps", dumps, lambda a, r, t: {"bytes": len(r)},
                                  outermost_only=True)
        self._rebind(cli, "dumps", wrapped_dumps)

        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.wrap("parse_args", parser.parse_args)
            return parser
        self._rebind(cli, "build_parser", self.wrap("build_parser", traced_build_parser))

        qs = states.QuantumState
        self._rebind(qs, "support", self.wrap(
            "support", qs.support,
            lambda a, r, t: {"rank": int(len(r[0])), "d": int(r[1].shape[0])}))

        meas = interferometer.Measurement

        def measurement_post(args, result, token):
            m = result if result is not None else args[0]
            return {"projectors": len(m.projectors), "d": m.dim}
        for attr in ("parity", "computational", "from_observable"):
            fn = meas.__dict__[attr].__func__
            self._rebind(meas, attr, classmethod(
                self.wrap(f"Measurement.{attr}", fn, measurement_post)))
        self._rebind(meas, "__init__",
                     self.wrap("Measurement.__init__", meas.__init__, measurement_post))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------- aggregation

def _children(spans: List[list]) -> Dict[int, List[int]]:
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        kids[s[PARENT]].append(i)
    return kids


def _dur(s) -> float:
    return s[END] - s[START]


def _self_time(spans, kids, i) -> float:
    return _dur(spans[i]) - sum(_dur(spans[c]) for c in kids.get(i, ()))


def _outermost(spans, names) -> List[int]:
    """Spans named in `names` with no ancestor also named in `names`."""
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[PARENT]
        while p != -1 and spans[p][0] not in names:
            p = spans[p][PARENT]
        if p == -1:
            out.append(i)
    return out


def collective_metrics(spans: List[list]) -> Dict[str, float]:
    """Collective-operator cache behaviour; the cache lives for the whole
    process, so these cover whatever spans are passed in, set-up included."""
    built = [s for s in spans if s[0] == "collective_j" and s[ATTRS]["miss"]]
    keys = {tuple(s[ATTRS]["key"]) for s in spans if s[0] == "collective_j"}
    return {
        "collective.build_s": sum(_dur(s) for s in built),
        "collective.cache_misses": len(built),
        "collective.resident_mb_computed": sum(16 * 4 ** n for _, n in keys) / MB,
    }


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of one pass (spans re-indexed so parents are local)."""
    kids = _children(spans)
    named = defaultdict(list)
    for i, s in enumerate(spans):
        named[s[0]].append(i)

    def total(names) -> float:
        return sum(_dur(spans[i]) for i in _outermost(spans, names))

    def attr_sum(names, key) -> float:
        return sum(spans[i][ATTRS][key] for i in _outermost(spans, names))

    qfi_flop = 0.0
    for i in named["qfi_matrix"]:
        d = spans[i][ATTRS]["d"]
        ranks = [spans[c][ATTRS]["rank"] for c in kids.get(i, ()) if spans[c][0] == "support"]
        r = ranks[0] if ranks else d
        qfi_flop += 24.0 * d * d * r + 24.0 * d * r * r
    qfi_self = sum(_self_time(spans, kids, i) for i in named["qfi_matrix"])
    support_ranks = [spans[i][ATTRS]["rank"] for i in named["support"]]
    criteria_names = ("evaluate_all", "variance_criterion", "depth_lower_bound",
                      "spectral_criteria")
    meas = _outermost(spans, MEASUREMENT_BUILDERS)
    out = {
        "qfi.variance_s": total(("variance",)),
        "qfi.variance_calls": len(named["variance"]),
        "qfi.variance_gflop_computed":
            sum(24.0 * spans[i][ATTRS]["d"] ** 3 for i in named["variance"]) / GFLOP,
        "qfi.qfi_matrix_s": total(("qfi_matrix",)),
        "qfi.qfi_matrix_calls": len(named["qfi_matrix"]),
        "qfi.gflop_computed": qfi_flop / GFLOP,
        "qfi.gflops_achieved": qfi_flop / GFLOP / qfi_self if qfi_self > 0 else 0.0,
        "states.build_s": total(STATE_BUILDERS + ("from_spec",)),
        "states.spectrum_s": total(("support",)),
        "states.support_rank_mean":
            sum(support_ranks) / len(support_ranks) if support_ranks else 0.0,
        "states.rho_mb_computed":
            sum(16 * spans[i][ATTRS]["d"] ** 2 for n in STATE_BUILDERS
                for i in named[n]) / MB,
        "matcore.eigh_s": total(("eigh",)),
        "matcore.eigh_calls": len(named["eigh"]),
        "matcore.herm_exp_s": total(("herm_exp",)),
        "matcore.herm_exp_calls": len(named["herm_exp"]),
        "interferometer.measurement_s": sum(_dur(spans[i]) for i in meas),
        "interferometer.projectors": sum(spans[i][ATTRS]["projectors"] for i in meas),
        "interferometer.projector_mb_computed":
            sum(spans[i][ATTRS]["projectors"] * 16 * spans[i][ATTRS]["d"] ** 2
                for i in meas) / MB,
        "interferometer.evolve_s": total(("evolve",)),
        "interferometer.evolve_calls": len(named["evolve"]),
        "interferometer.classical_fisher_self_s":
            sum(_self_time(spans, kids, i) for i in named["classical_fisher_report"]),
        "interferometer.excluded_outcomes":
            sum(spans[i][ATTRS]["excluded"] for i in named["classical_fisher_report"]),
        "criteria.evaluate_all_s": total(("evaluate_all",)),
        "criteria.self_s": sum(_self_time(spans, kids, i) for n in criteria_names
                               for i in named[n]),
        "criteria.rows": sum(spans[i][ATTRS]["rows"] for i in named["evaluate_all"]),
        "landscape.sample_s": total(SAMPLERS),
        "landscape.realize_s": total(REALIZERS),
        "landscape.alpha_for_point_s": total(("alpha_for_point",)),
        "landscape.points": attr_sum(SAMPLERS + REALIZERS, "points"),
        "cli.parse_s": total(PARSERS),
        "cli.serialize_s": total(("dumps",)),
        "cli.output_mb": attr_sum(("dumps",), "bytes") / MB,
    }
    out.update(collective_metrics(spans))
    return out


def covered(spans: List[list]) -> float:
    """Time covered by top-level spans (no traced parent)."""
    return sum(_dur(s) for s in spans if s[PARENT] == -1)


def local(spans: List[list], start: int, stop: int) -> List[list]:
    """The spans start..stop-1 with parent indices made local to the slice;
    a parent outside the slice becomes -1."""
    return [[s[0], s[START], s[END], s[PARENT] - start if s[PARENT] >= start else -1,
             s[OP], s[ATTRS]] for s in spans[start:stop]]
