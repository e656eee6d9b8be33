"""Byte-for-byte regression of `analyze` and `depth` against a recorded corpus.

Each file in golden/specs/ is a state spec; golden/<name>.analyze.json and
golden/<name>.depth.json hold the CLI's stdout for it. The corpus covers
every StateSpec kind plus N = 1 and N = 2 edge cases. To re-record after a
deliberate output change, run from the repository root:

    for f in tests/golden/specs/*.json; do
      b=$(basename "$f" .json)
      for c in analyze depth; do
        PYTHONPATH=src python -m spinqfi.cli "$c" "$f" > "tests/golden/$b.$c.json"
      done
    done
"""
import json
from pathlib import Path

import pytest

from spinqfi import states
from spinqfi.cli import main

GOLDEN = Path(__file__).parent / "golden"
SPECS = sorted((GOLDEN / "specs").glob("*.json"))


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
