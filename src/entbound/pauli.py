"""Pauli correlations and the one rotation layer.

Local unitaries U_1 x ... x U_n act on a state's correlation tensor only
through its bloch block T[i_1 .. i_n] (every i_k in 1..3), turning mode k by
the SO(3) image O_k of U_k. This module holds that block
(:class:`CorrelationTensor`), the one angle -> SO(3) map
(:func:`so3_from_angles`, batched over leading axes) with its inverse, and
the one mode contraction (:func:`contract_modes`) behind
:func:`rotated_triple` and the optimisers in :mod:`entbound.optimize`.

The correlation-data exchange format used throughout the package is a JSON
object ``{"n": 4, "c": [c1, c2, c3], "sigma": [s1, s2, s3]}`` where ``sigma``
is optional (see :mod:`entbound.estimate` for the reader).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._linalg import pauli_power_entries
from .errors import ParameterError
from .qstate import CorrelationTriple, DenseState

_IMAG_TOL = 1e-10
_TWO_PI = 2 * math.pi


def _real_trace(val: complex) -> float:
    """The real part of a Pauli expectation; the imaginary residue must stay below 1e-10."""
    if abs(val.imag) >= _IMAG_TOL:
        raise ParameterError(f"imaginary residue {val.imag:.3e} in a Pauli expectation")
    return float(val.real)


def correlation_triple(state: DenseState, rot: LocalRotation | None = None) -> CorrelationTriple:
    """The canonical triple (<s1^xn>, <s2^xn>, <s3^xn>) of a state, or of U rho U^dag.

    sigma_j^{xn} has one nonzero entry per column i, so Tr(rho sigma_j^{xn})
    reads only the anti-diagonal rho[i, 2^n - 1 - i] (j = 1, 2) or the
    diagonal (j = 3), both from ``state.lines()``: O(2^n) work, and no dense
    matrix for a built state. With a rotation, the same sums read the lines of
    the rotated state, ``state.lines_under(rot.unitaries(n))``, and each
    component is clamped to [-1, 1] as in :func:`rotated_triple`. A zero
    component is returned as 0.0, never -0.0.
    """
    n = state.n
    diag, anti = state.lines() if rot is None else state.lines_under(rot.unitaries(n))
    values = [
        _real_trace(np.sum(line * pauli_power_entries(j, n))) + 0.0
        for j, line in ((1, anti), (2, anti), (3, diag))
    ]
    if rot is not None:
        values = [min(1.0, max(-1.0, v)) for v in values]
    return CorrelationTriple(*values)


def _contract_bloch(state: DenseState) -> np.ndarray:
    """The real, read-only (3,)*n block of ``state.bloch()``."""
    cur = state.bloch()
    imag = float(np.max(np.abs(cur.imag)))
    if imag > 1e-12:
        raise ParameterError(f"imaginary residue {imag:.3e} in the correlation tensor")
    bloch = np.ascontiguousarray(cur.real)
    bloch.flags.writeable = False
    return bloch


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """The bloch block T[i_1 .. i_n] = Tr(rho sigma_{i_1} x ... x sigma_{i_n}), i_k in 1..3.

    ``bloch`` has shape (3,)*n, axis k indexing qubit k and position j the
    Pauli sigma_{j+1}. Local rotations mix only these indices, so entries with
    an identity factor are not kept.
    """

    n: int
    bloch: np.ndarray

    def diagonal_triple(self) -> CorrelationTriple:
        return CorrelationTriple(*(float(self.bloch[(j,) * self.n]) for j in range(3)))

    def is_symmetric(self) -> bool:
        """True when every transposition of tensor modes leaves the block unchanged.

        Adjacent transpositions generate the full symmetric group.
        """
        t = self.bloch
        for k in range(self.n - 1):
            axes = list(range(self.n))
            axes[k], axes[k + 1] = axes[k + 1], axes[k]
            if not np.allclose(t, np.transpose(t, axes), atol=1e-10):
                return False
        return True


def correlation_tensor(state: DenseState) -> CorrelationTensor:
    """The bloch block of a state's correlation tensor, read from its form."""
    return CorrelationTensor(state.n, _contract_bloch(state))


# -- local rotations ----------------------------------------------------------

def su2_from_angles(angles) -> np.ndarray:
    """The single-qubit unitary parameterised by (theta, psi, phi).

    Angles of shape (..., 3) give unitaries of shape (..., 2, 2).
    """
    a = np.asarray(angles, dtype=float)
    theta, psi, phi = a[..., 0], a[..., 1], a[..., 2]
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.empty(a.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c * np.exp(-0.5j * (psi + phi))
    u[..., 0, 1] = -1j * s * np.exp(-0.5j * (phi - psi))
    u[..., 1, 0] = -1j * s * np.exp(0.5j * (phi - psi))
    u[..., 1, 1] = c * np.exp(0.5j * (psi + phi))
    return u


def so3_from_angles(angles) -> np.ndarray:
    """Image of the (theta, psi, phi) unitary under the adjoint map.

    Returns the orthogonal O with U (n.sigma) U^dag = (O n).sigma, so that
    rotating a state by U^{xn} turns the correlation tensor modes by O.
    Angles of shape (..., 3) give matrices of shape (..., 3, 3).
    """
    a = np.asarray(angles, dtype=float)
    theta, psi, phi = a[..., 0], a[..., 1], a[..., 2]
    ct, st = np.cos(theta), np.sin(theta)
    cps, sps = np.cos(psi), np.sin(psi)
    cph, sph = np.cos(phi), np.sin(phi)
    o = np.empty(a.shape[:-1] + (3, 3))
    # the unitary factors as Rz(phi) Rx(theta) Rz(psi); this is its adjoint
    o[..., 0, 0] = cph * cps - sph * ct * sps
    o[..., 0, 1] = -cph * sps - sph * ct * cps
    o[..., 0, 2] = sph * st
    o[..., 1, 0] = sph * cps + cph * ct * sps
    o[..., 1, 1] = -sph * sps + cph * ct * cps
    o[..., 1, 2] = -cph * st
    o[..., 2, 0] = st * sps
    o[..., 2, 1] = st * cps
    o[..., 2, 2] = ct
    return o


#: so3_to_angles: row k lists, for the quaternion branch led by component k, where
#: each component's numerator sits in [0, o21 - o12, o02 - o20, o10 - o01,
#: o01 + o10, o02 + o20, o12 + o21]
_QUATERNION_NUMERATORS = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])


def so3_to_quaternion(o: np.ndarray) -> np.ndarray:
    """The unit quaternion (w, x, y, z) of each rotation, by Shepperd's method.

    U = w I - i (x s1 + y s2 + z s3) is an SU(2) lift of o: so3_from_angles
    of its angles gives o. Stacks of shape (..., 3, 3) give (..., 4). ``o``
    is not checked; :func:`so3_to_angles` checks it.
    """
    o = np.asarray(o, dtype=float)
    # component k, the largest, is s/2, and each other one a numerator over 2s
    flat = o.reshape(-1, 3, 3)
    tr = np.trace(flat, axis1=1, axis2=2)[:, None]
    cand = np.concatenate([1 + tr, 1 + 2 * np.diagonal(flat, axis1=1, axis2=2) - tr], axis=1)
    k = np.argmax(cand, axis=1)
    s = np.sqrt(np.maximum(cand[np.arange(len(k)), k], 0.0))[:, None]
    numerators = np.concatenate([
        np.zeros((len(k), 1)),
        flat[:, [2, 0, 1], [1, 2, 0]] - flat[:, [1, 2, 0], [2, 0, 1]],
        flat[:, [0, 0, 1], [1, 2, 2]] + flat[:, [1, 2, 2], [0, 0, 1]],
    ], axis=1)
    q = np.take_along_axis(numerators, _QUATERNION_NUMERATORS[k], axis=1) / (2 * s)
    q[np.arange(len(k)), k] = s[:, 0] / 2
    return q.reshape(o.shape[:-2] + (4,))


def so3_to_angles(o: np.ndarray) -> tuple[float, float, float] | np.ndarray:
    """Angles (theta, psi, phi) whose rotation matrix equals ``o``.

    Inverts the adjoint map through the quaternion lift; the returned triple
    satisfies so3_from_angles(angles) == o up to numerical noise. One matrix
    gives a tuple of floats; stacks of shape (..., 3, 3) give angles of shape
    (..., 3), each slice equal to what the matrix alone gives.
    """
    o = np.asarray(o, dtype=float)
    if (o.ndim < 2 or o.shape[-2:] != (3, 3)
            or not np.allclose(o @ np.swapaxes(o, -1, -2), np.eye(3), atol=1e-8)):
        raise ParameterError("not an orthogonal 3x3 matrix")
    if np.any(np.linalg.det(o) < 0):
        raise ParameterError("improper rotation (determinant -1) has no SU(2) lift")
    angles = quaternion_to_angles(so3_to_quaternion(o))
    if o.ndim == 2:
        return tuple(angles.tolist())
    return angles


def quaternion_to_angles(q: np.ndarray) -> np.ndarray:
    """Angles (theta, psi, phi) of the lift U = w I - i (x s1 + y s2 + z s3).

    su2_from_angles of the angles gives U up to a sign, for either sign of the
    unit quaternion q = (w, x, y, z). Stacks (..., 4) give (..., 3), psi and
    phi in [0, 2pi).
    """
    q = np.asarray(q, dtype=float)
    # U matched against the angle template through math's atan2 and hypot,
    # which numpy's do not always equal
    w, x, y, z = q.reshape(-1, 4).T.tolist()
    wz, xy = list(map(math.hypot, w, z)), list(map(math.hypot, x, y))
    theta = 2 * np.array(list(map(math.atan2, xy, wz)))
    half_sum = np.where(np.array(wz) > 1e-15, list(map(math.atan2, z, w)), 0.0)
    half_diff = np.where(np.array(xy) > 1e-15, list(map(math.atan2, y, x)), 0.0)
    turns = np.stack([half_sum - half_diff, half_sum + half_diff], axis=1) % _TWO_PI
    # an angle just below 0 rounds up to 2pi; folding it to 0 flips only the sign of U
    turns[turns == _TWO_PI] = 0.0
    angles = np.concatenate([theta[:, None], turns], axis=1)
    return angles.reshape(q.shape[:-1] + (3,))


def _check_angles(angles: Sequence[float]) -> tuple[float, float, float]:
    if len(angles) != 3:
        raise ParameterError(f"an angle triple needs 3 entries, got {len(angles)}")
    theta, psi, phi = (float(a) for a in angles)
    if not -1e-12 <= theta <= math.pi + 1e-12:
        raise ParameterError(f"theta must lie in [0, pi], got {theta}")
    for name, a in (("psi", psi), ("phi", phi)):
        if not -1e-12 <= a < _TWO_PI + 1e-12:
            raise ParameterError(f"{name} must lie in [0, 2pi), got {a}")
    return (theta, psi, phi)


@dataclass(frozen=True)
class LocalRotation:
    """Per-qubit rotation angles (theta, psi, phi), optionally shared.

    A shared rotation stores a single triple applied to every qubit.
    """

    angles: tuple
    shared: bool = False

    def __post_init__(self):
        angles = tuple(_check_angles(a) for a in self.angles)
        if self.shared and len(angles) != 1:
            raise ParameterError("a shared rotation carries exactly one angle triple")
        if not angles:
            raise ParameterError("at least one angle triple is required")
        object.__setattr__(self, "angles", angles)

    @classmethod
    def identity(cls) -> "LocalRotation":
        return cls(((0.0, 0.0, 0.0),), shared=True)

    @classmethod
    def from_shared(cls, angles: Sequence[float]) -> "LocalRotation":
        return cls((tuple(angles),), shared=True)

    @classmethod
    def from_per_qubit(cls, angle_list: Iterable[Sequence[float]]) -> "LocalRotation":
        return cls(tuple(tuple(a) for a in angle_list), shared=False)

    def triples_for(self, n: int) -> tuple:
        if self.shared:
            return self.angles * n
        if len(self.angles) != n:
            raise ParameterError(
                f"rotation has {len(self.angles)} angle triples but the state has {n} qubits"
            )
        return self.angles

    def unitaries(self, n: int) -> list[np.ndarray]:
        return [su2_from_angles(a) for a in self.triples_for(n)]


def contract_modes(bloch: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Contract mode k of the (3,)*n tensor with rows[b, k] for every k -> (B,).

    ``rows`` has shape (B, n, 3); entry b is the multilinear form
    sum over i_1..i_n of bloch[i_1..i_n] rows[b, 0, i_1] ... rows[b, n-1, i_n].
    """
    count = rows.shape[0]
    cur = rows[:, 0, :] @ bloch.reshape(3, -1)  # (B, 3^(n-1))
    for k in range(1, bloch.ndim):
        cur = np.einsum("bj,bjr->br", rows[:, k, :], cur.reshape(count, 3, -1))
    return cur.reshape(count)


def rotated_triple(tensor: CorrelationTensor, rot: LocalRotation) -> CorrelationTriple:
    """Diagonal entries of the rotated tensor, (T~_{1..1}, T~_{2..2}, T~_{3..3}).

    Row i of every qubit's SO(3) matrix contracts that qubit's mode, O(n 3^n)
    instead of a dense conjugation.
    """
    os = so3_from_angles(rot.triples_for(tensor.n))  # (n, 3, 3)
    values = contract_modes(tensor.bloch, np.swapaxes(os, 0, 1))
    return CorrelationTriple(*(min(1.0, max(-1.0, float(v))) for v in values))


__all__ = [
    "CorrelationTensor",
    "LocalRotation",
    "contract_modes",
    "correlation_tensor",
    "correlation_triple",
    "quaternion_to_angles",
    "rotated_triple",
    "so3_from_angles",
    "so3_to_angles",
    "so3_to_quaternion",
    "su2_from_angles",
]
