import numpy as np
import pytest

from spinqfi import collective


@pytest.fixture
def doubled_generators(monkeypatch):
    """Every route reads J_a as 2 J_a (and J_a^2 as 4 J_a^2): the table of
    operator entries is doubled, and the memoized dense J are dropped before
    and after, so no route keeps the true ones."""
    entries = collective._entries

    def doubled(op, n_qubits, rows):
        scale = 4.0 if len(op) == 2 else 2.0
        return [(cols, part, scale * np.asarray(values))
                for cols, part, values in entries(op, n_qubits, rows)]

    collective._collective_cached.cache_clear()
    monkeypatch.setattr(collective, "_entries", doubled)
    yield
    collective._collective_cached.cache_clear()
