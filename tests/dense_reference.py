"""Dense references for what the package reads from a state's form, kept as test helpers.

The package reads Pauli correlations, GHZ-basis overlaps and GHZ-diagonal
states from the diagonal and anti-diagonal of a form, never from a whole
matrix. These helpers take the direct route: a trace of rho times a Pauli
string, a qubit relabelling of rho, a GHZ basis vector and the X matrix of a
GHZ spectrum, so tests can check the package's reads against them. Import
them with ``from dense_reference import ...``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from dense_rotation import apply_one_qubit
from entbound._linalg import SIGMA
from entbound.errors import ParameterError
from entbound.locc import GHZBasisIndex, GHZDiagonalState
from entbound.pauli import _real_trace
from entbound.qstate import _CERTIFIED, DenseState, _XForm


def expectation(state: DenseState, pauli_string: Sequence[int]) -> float:
    """Tr(rho * sigma_{i_1} x ... x sigma_{i_n}) as a real number.

    The imaginary residue must stay below 1e-10 (it does for Hermitian input).
    """
    string = [int(i) for i in pauli_string]
    if len(string) != state.n:
        raise ParameterError(
            f"pauli string length {len(string)} does not match n={state.n}"
        )
    if any(i not in (0, 1, 2, 3) for i in string):
        raise ParameterError(f"pauli indices must be in 0..3, got {string}")
    mat = state.rho
    for k, i in enumerate(string):
        if i != 0:
            mat = apply_one_qubit(mat, SIGMA[i], k, state.n)
    return _real_trace(np.trace(mat))


def permutation_conjugate(state: DenseState, perm: Sequence[int]) -> DenseState:
    """Relabel qubits of a dense state by the permutation ``perm``.

    ``perm[k]`` is the new position of qubit ``k``.
    """
    n = state.n
    if sorted(perm) != list(range(n)):
        raise ParameterError(f"not a permutation of 0..{n - 1}: {perm}")
    t = state.rho.reshape((2,) * (2 * n))
    axes = [0] * (2 * n)
    for k, p in enumerate(perm):
        axes[p] = k
        axes[n + p] = n + k
    t = np.transpose(t, axes)
    return DenseState(n, t.reshape(state.dim, state.dim))


def ghz_basis_vector(idx: GHZBasisIndex, n: int) -> np.ndarray:
    """Unit vector (|i> + sign * |bitwise complement of i>)/sqrt(2)."""
    if idx.n != n:
        raise ParameterError(f"index is for n={idx.n}, not n={n}")
    v = np.zeros(2**n, dtype=complex)
    flip = 2**n - 1 - idx.i
    v[idx.i] += 1 / math.sqrt(2)
    v[flip] += idx.sign / math.sqrt(2)
    return v


def ghz_dense(spec: GHZDiagonalState) -> DenseState:
    """The state sum_i p_i |beta_i><beta_i| of a GHZ spectrum.

    It is an X matrix: (p_i^+ + p_i^-)/2 at (i, i) and (~i, ~i), and
    (p_i^+ - p_i^-)/2 at (i, ~i) and (~i, i).
    """
    mean = (spec.p[:, 0] + spec.p[:, 1]) / 2
    cross = (spec.p[:, 0] - spec.p[:, 1]) / 2
    diag = np.concatenate([mean, mean[::-1]]).astype(complex)
    anti = np.concatenate([cross, cross[::-1]]).astype(complex)
    return DenseState(spec.n, None, _CERTIFIED, _XForm(diag, anti))
