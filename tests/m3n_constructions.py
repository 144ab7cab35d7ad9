"""Closed-form spectra and closest separable states of triple-correlation states.

The package computes every value and bound from a triple through the
kernels in ``entbound.measures``; it never builds the closest separable state
those values are distances to. These constructions from the paper's proofs
(the spectrum of a triple-correlation state, the separability test, the
common closest state for even n and the Euclidean projection for odd n)
let tests check the closed forms and the oracles' minimisers against them.
Import them with ``from m3n_constructions import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entbound.errors import EntboundError, ParameterError
from entbound.measures import SeparabilityLevel, _odd_branches, octahedron_excess
from entbound.qstate import CorrelationTriple, M3NState, _even_signs

_SEP_TOL = 1e-12


class AlreadySeparableError(EntboundError):
    """A closest-separable-state construction was asked for a separable input."""


@dataclass(frozen=True)
class SpectralLine:
    """One eigenvalue of a triple-correlation state with its degeneracy labels."""

    value: float
    multiplicity: int
    sign: int
    parity: int | None = None


def m3n_spectrum(state: M3NState) -> list[SpectralLine]:
    """Closed-form eigenvalues with sign/parity labels and multiplicities.

    Even n: four lines (sign, parity) with multiplicity 2^(n-2) each.
    Odd n: two lines (1 +/- r)/2^n with multiplicity 2^(n-1) each, r = |c|.
    """
    n = state.n
    if n % 2 == 0:
        s = _even_signs(n)
        vals = 1 + s @ state.c.as_array()
        return [
            SpectralLine(max(math.ldexp(val, -n), 0.0), 2 ** (n - 2), int(sign), int(par < 0))
            for val, (sign, _, par) in zip(vals.tolist(), s)
        ]
    r = float(np.linalg.norm(state.c.as_array()))
    return [
        SpectralLine(math.ldexp(1 + sign * r, -n), 2 ** (n - 1), sign)
        for sign in (+1, -1)
    ]


def is_separable_m3n(state: M3NState, level: SeparabilityLevel) -> bool:
    """Whether a triple-correlation state is separable at the given level."""
    if level.is_trivial(state.n):
        return True
    return state.c.abs_sum <= 1 + _SEP_TOL


def _corner_barycentric(c: CorrelationTriple) -> tuple[float, float, float]:
    """Barycentric weights (p, q, r) of a corner state w.r.t. its face triangle.

    Works on magnitudes only; the corner's sign pattern is handled by the
    caller. The three weights are nonnegative exactly when the triple is
    physical, and p + q + r = 1.
    """
    a, b, d = abs(c.c1), abs(c.c2), abs(c.c3)
    delta = 3.0 - (a + b + d)
    if delta < 1e-12:
        return (1 / 3, 1 / 3, 1 / 3)
    p = (1 - a - b + d) / delta
    q = (1 - a + b - d) / delta
    r = (1 + a - b - d) / delta
    return (max(p, 0.0), max(q, 0.0), max(r, 0.0))


def closest_separable_even(state: M3NState, level: SeparabilityLevel) -> M3NState:
    """The face state closest to an even-n triple under every valid distance.

    It sits on the octahedron face bounding the state's tetrahedron corner,
    on the line through the corner vertex.
    """
    if state.n % 2:
        raise ParameterError("the common closest state exists only for even n")
    if level.is_trivial(state.n):
        raise ParameterError(f"level {level} is trivial for n={state.n}")
    if octahedron_excess(state.c) <= 0:
        raise AlreadySeparableError(f"triple {tuple(state.c)} is already separable")
    signs = [1.0 if x >= 0 else -1.0 for x in state.c]
    p, q, r = _corner_barycentric(state.c)
    out = CorrelationTriple(signs[0] * r, signs[1] * q, signs[2] * p)
    return M3NState(state.n, out)


def closest_separable_odd_trace(state: M3NState) -> M3NState:
    """Euclidean projection of an odd-n triple onto the octahedron boundary.

    The trace distance between odd-n triple-correlation states is half the
    Euclidean distance between their triples, so this is the closest
    separable state under trace distance. Triples on the boundary are
    returned unchanged; interior triples raise.
    """
    if state.n % 2 == 0:
        raise ParameterError("the Euclidean projection applies to odd n")
    c = state.c.as_array()
    total = float(np.sum(np.abs(c)))
    if total < 1 - _SEP_TOL:
        raise AlreadySeparableError(f"triple {tuple(state.c)} is inside the octahedron")
    if total <= 1 + _SEP_TOL:
        return state
    signs = np.where(c >= 0, 1.0, -1.0)
    mags = np.abs(c)
    face = (1 - total + 3 * mags) / 3
    if np.all(face >= -_SEP_TOL) and np.all(face <= 1 + _SEP_TOL):
        s = signs * np.clip(face, 0.0, 1.0)
        return M3NState(state.n, CorrelationTriple(*s))
    # edge case: drop the axis with the smallest projected distance
    k = int(np.argmin(_odd_branches(c)[3]))
    s = np.zeros(3)
    for i in range(3):
        if i != k:
            s[i] = signs[i] * (1 - (total - mags[k] - mags[i]) + mags[i]) / 2
    s = np.clip(np.abs(s), 0.0, 1.0) * np.where(s >= 0, 1.0, -1.0)
    return M3NState(state.n, CorrelationTriple(*s))
