"""The five distances between density matrices, kept as a test reference.

The package computes every distance it reports from spectra or triples
(``measures.classical_distance``, and the odd-n trace distance |c - x| / 2 of
the octahedron oracle). This module takes eigendecompositions of whole
matrices instead, so tests can check those kernels and the paper's
constructions against the direct definitions. Import it with
``from dense_distance import matrix_distance``.
"""

from __future__ import annotations

import math

import numpy as np

from entbound.errors import ParameterError
from entbound.measures import _EIG_ZERO, _SUPPORT_TOL, DistanceKind
from entbound.qstate import DenseState


def _xlog2(x: float) -> float:
    return 0.0 if x <= 0 else x * math.log2(x)


def _clean_spectrum(w: np.ndarray) -> np.ndarray:
    if w.min() < -1e-9:
        raise ParameterError(f"matrix is not PSD: eigenvalue {w.min():.3e}")
    return np.clip(w, 0.0, None)


def hermitian_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix, or of a stack of them (..., m, m).

    Eigenvalues in (-1e-9, 0) are clamped to 0; anything more negative is a
    caller bug and raises.
    """
    w, v = np.linalg.eigh(mat)
    if w.min() < -1e-9:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def matrix_distance(a: DenseState, b: DenseState, kind: DistanceKind) -> float:
    """One of the five distances between two density matrices.

    Relative entropy returns ``math.inf`` when the support of ``a`` is not
    contained in the support of ``b``.
    """
    if a.n != b.n:
        raise ParameterError(f"qubit counts differ: {a.n} vs {b.n}")
    if kind is DistanceKind.TRACE:
        w = np.linalg.eigvalsh(a.rho - b.rho)
        return 0.5 * float(np.sum(np.abs(w)))
    if kind is DistanceKind.RELATIVE_ENTROPY:
        wa = _clean_spectrum(np.linalg.eigvalsh(a.rho))
        wb, vb = np.linalg.eigh(b.rho)
        wb = _clean_spectrum(wb)
        overlaps = np.real(np.einsum("ij,jk,ki->i", vb.conj().T, a.rho, vb))
        overlaps = np.clip(overlaps, 0.0, None)
        null = wb <= _EIG_ZERO
        if float(np.sum(overlaps[null])) > _SUPPORT_TOL:
            return math.inf
        ent_a = float(np.sum([_xlog2(x) for x in wa]))
        cross = float(np.sum(overlaps[~null] * np.log2(wb[~null])))
        return max(ent_a - cross, 0.0)
    if kind is DistanceKind.SQUARED_HELLINGER:
        sa = hermitian_sqrt(a.rho)
        sb = hermitian_sqrt(b.rho)
        affinity = float(np.real(np.trace(sa @ sb)))
        return max(2.0 * (1.0 - affinity), 0.0)
    # infidelity and squared Bures both go through the Uhlmann fidelity
    sa = hermitian_sqrt(a.rho)
    w = _clean_spectrum(np.linalg.eigvalsh(sa @ b.rho @ sa))
    root_f = min(float(np.sum(np.sqrt(w))), 1.0)
    if kind is DistanceKind.INFIDELITY:
        return max(1.0 - root_f * root_f, 0.0)
    return max(2.0 * (1.0 - root_f), 0.0)
