"""Byte-for-byte regression of `analyze`, `depth` and `crb` against a recorded corpus.

Each file in golden/specs/ is a state spec; golden/<name>.analyze.json and
golden/<name>.depth.json hold the CLI's stdout for it. The corpus covers
every StateSpec kind plus N = 1 and N = 2 edge cases. CRB_CASES runs `crb`
on some of those specs; golden/<name>.crb-<measurement>-<direction>.json
holds its stdout (theta 0.1). LANDSCAPE_CASES runs `landscape` with fixed
seeds; golden/landscape_<case>.csv holds its stdout. `landmarks` stays out of
the corpus while its excited-Dicke rows are under review (criterion 01). To
re-record after a deliberate output change, run from the repository root:

    for f in tests/golden/specs/*.json; do
      b=$(basename "$f" .json)
      for c in analyze depth; do
        PYTHONPATH=src python -m spinqfi.cli "$c" "$f" > "tests/golden/$b.$c.json"
      done
    done
    PYTHONPATH=src python tests/test_golden.py
"""
import json
from pathlib import Path

import pytest

from spinqfi import states
from spinqfi.cli import main

GOLDEN = Path(__file__).parent / "golden"
SPECS = sorted((GOLDEN / "specs").glob("*.json"))
# (spec stem, phase direction, measurement)
CRB_CASES = [
    ("ghz_n4_z", "z", "parity-x"),
    ("dicke_n6_m3_z", "x", "computational"),
    ("dicke_n5_m1_y", "x", "collective"),
    ("white_noise_ghz_n2", "y", "parity-x"),
    ("white_noise_ghz_n5", "z", "parity-x"),
    ("white_noise_ghz_n5", "z", "parity-y"),
    ("white_noise_dicke_n6", "z", "parity-x"),
]

# (case name, `landscape` arguments)
LANDSCAPE_CASES = [
    ("dicke_plane_n4", ["dicke_plane", "--n-qubits", "4", "--count", "6", "--seed", "3"]),
    ("dicke_plane_n8", ["dicke_plane", "--n-qubits", "8", "--count", "6", "--seed", "7"]),
    ("product_fill_n4", ["product_fill", "--n-qubits", "4", "--count", "6", "--seed", "11"]),
    ("product_fill_n8", ["product_fill", "--n-qubits", "8", "--count", "6", "--seed", "13"]),
    ("noise_line_n4", ["noise_line", "--n-qubits", "4", "--count", "5"]),
    ("noise_line_n8", ["noise_line", "--n-qubits", "8", "--count", "5"]),
    ("noise_line_dicke_n6_m3_z", ["noise_line", "--n-qubits", "6", "--count", "5",
                                  "--spec", str(GOLDEN / "specs" / "dicke_n6_m3_z.json")]),
    ("noise_line_white_noise_ghz_n5", ["noise_line", "--n-qubits", "5", "--count", "5",
                                       "--spec", str(GOLDEN / "specs" / "white_noise_ghz_n5.json")]),
]


def _crb_argv(stem, direction, measurement):
    return ["crb", str(GOLDEN / "specs" / f"{stem}.json"),
            "--direction", direction, "--measurement", measurement]


def _crb_golden(stem, direction, measurement):
    return GOLDEN / f"{stem}.crb-{measurement}-{direction}.json"


def test_corpus_covers_every_kind_and_edge_size():
    docs = [json.loads(p.read_text()) for p in SPECS]
    assert {d["kind"] for d in docs} == states.KNOWN_KINDS
    sizes = {d.get("n_qubits", d.get("inner", {}).get("n_qubits")) for d in docs}
    assert {1, 2} <= sizes


@pytest.mark.parametrize("command", ["analyze", "depth"])
@pytest.mark.parametrize("spec", SPECS, ids=[p.stem for p in SPECS])
def test_golden_output(spec, command, capsys):
    assert main([command, str(spec)]) == 0
    expected = (GOLDEN / f"{spec.stem}.{command}.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("case", CRB_CASES, ids=["-".join(c) for c in CRB_CASES])
def test_golden_crb(case, capsys):
    assert main(_crb_argv(*case)) == 0
    assert capsys.readouterr().out == _crb_golden(*case).read_text()


@pytest.mark.parametrize("name, argv", LANDSCAPE_CASES, ids=[c[0] for c in LANDSCAPE_CASES])
def test_golden_landscape(name, argv, capsys):
    assert main(["landscape"] + argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"landscape_{name}.csv").read_text()


if __name__ == "__main__":
    for case in CRB_CASES:
        assert main(_crb_argv(*case) + ["--out", str(_crb_golden(*case))]) == 0
    for name, argv in LANDSCAPE_CASES:
        assert main(["landscape"] + argv + ["--out", str(GOLDEN / f"landscape_{name}.csv")]) == 0
