"""Dense conjugations by local unitaries, kept as test references.

The package never conjugates a whole state: it reads rotated quantities
through mode contractions and product vectors. These helpers build U rho
U^dagger the direct way, so tests can compare the package's kernels with it.
Import them with ``from dense_rotation import ...``.
"""

from __future__ import annotations

import numpy as np


def apply_one_qubit(mat: np.ndarray, op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Left-multiply a 2^n x 2^n matrix by ``op`` acting on one qubit."""
    t = mat.reshape((2,) * n + (-1,))
    t = np.moveaxis(t, qubit, 0)
    t = np.tensordot(op, t, axes=(1, 0))
    t = np.moveaxis(t, 0, qubit)
    return t.reshape(mat.shape)


def conjugate_one_qubit(rho: np.ndarray, op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """U rho U^dagger for a single-qubit unitary ``op`` on ``qubit``."""
    left = apply_one_qubit(rho, op, qubit, n)
    return apply_one_qubit(left.conj().T, op, qubit, n).conj().T


def apply_product_unitary(rho: np.ndarray, ops, n: int) -> np.ndarray:
    """(U_1 x ... x U_n) rho (.)^dagger with one 2x2 unitary per qubit."""
    out = rho
    for k, op in enumerate(ops):
        out = conjugate_one_qubit(out, op, k, n)
    return out
