"""Quantum Fisher information of collective spin operators for N-qubit
states, with multipartite-entanglement certification built on top.

Layers, bottom to top: matcore (dense Hermitian linear algebra), collective
(collective spin operators), states (constructors and specs), qfi (the QFI
matrix and scalar figures), criteria (entanglement bounds and depth),
interferometer (phase estimation and classical Fisher information),
landscape (the (F_x, F_y, F_z) geometry), cli (the command surface).
"""

__version__ = "0.1.0"
