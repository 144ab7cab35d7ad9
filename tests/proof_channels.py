"""Channels the paper uses in its proofs, kept as test helpers.

The corner coordinates of an even-n triple-correlation state, the mixing
channel Lambda_pq and the rephasing channel Omega that move a state inside
its corner, and the twirl onto the triple-correlation family. None of them
computes a value or a bound; the tests use them to check the constructions
behind the closed forms. Import them with ``from proof_channels import ...``.
"""

from __future__ import annotations

import math

import numpy as np

from dense_distance import matrix_distance
from dense_reference import ghz_basis_vector
from dense_rotation import apply_product_unitary, conjugate_one_qubit
from entbound._linalg import ID2, SIGMA
from entbound.errors import CapacityError, ParameterError
from entbound.locc import GHZBasisIndex
from entbound.measures import DistanceKind
from entbound.qstate import (
    CorrelationTriple,
    DenseState,
    M3NState,
    StateFamily,
    build_state,
    m3n_density,
)

_OMEGA_CAP = 6


def corner_triple(n: int, p: float, q: float, h: float) -> CorrelationTriple:
    """Triple of the corner state with barycentric (p, q) at excess level h.

    Uses the corner containing the vertex {-1, (-1)^(n/2), -1}; the face
    triangle at level h has vertices V1 = {-h, e h, -1}, V2 = {-h, e, -h},
    V3 = {-1, e h, -h} with e = (-1)^(n/2).
    """
    if n % 2:
        raise ParameterError("corner coordinates exist for even n only")
    e = float((-1) ** (n // 2))
    v1 = np.array([-h, e * h, -1.0])
    v2 = np.array([-h, e, -h])
    v3 = np.array([-1.0, e * h, -h])
    c = p * v1 + q * v2 + (1 - p - q) * v3
    return CorrelationTriple(*c)


def _corner_weights(n: int, c: CorrelationTriple) -> tuple[float, float, float]:
    """Invert corner_triple: (p, q, h) of a state in the reference corner."""
    e = float((-1) ** (n // 2))
    num = c.c1 - e * c.c2 + c.c3
    h = (-1.0 - num) / 2.0
    den = 3.0 + num
    if den < 1e-12:
        return (1 / 3, 1 / 3, h)
    p = (1 + c.c1 - e * c.c2 - c.c3) / den
    q = (1 + c.c1 + e * c.c2 + c.c3) / den
    return (p, q, h)


def _s_unitary(i: int) -> np.ndarray:
    return (ID2 + 1j * SIGMA[i]) / math.sqrt(2)


def _lambda_unitary_factors(n: int) -> tuple[list, list]:
    """Per-qubit factors of the two triangle-rotating product unitaries."""
    s1, s2 = _s_unitary(1), _s_unitary(2)
    half = n // 2 + 1
    u1, u2 = [], []
    for k in range(n):
        f = SIGMA[1] if k < half else ID2
        u1.append(s2 @ s1 @ f)
        u2.append(s1 @ f @ s2)
    return u1, u2


def apply_lambda_pq(state: DenseState, p: float, q: float) -> DenseState:
    """The three-term mixing channel that redistributes corner coordinates.

    Mixes the identity with two product unitaries that cyclically permute the
    face-triangle vertices; applied to the corner-edge state (1, 0, h) it
    produces (p, q, h), and with p = q = 1/3 it maps any corner state to the
    centroid at the same level h.
    """
    if state.n % 2:
        raise ParameterError("the mixing channel is defined for even n")
    if p < 0 or q < 0 or p + q > 1 + 1e-12:
        raise ParameterError(f"need p, q >= 0 with p + q <= 1, got {(p, q)}")
    u1, u2 = _lambda_unitary_factors(state.n)
    rho = np.array(state.rho)
    out = p * rho
    out += q * apply_product_unitary(rho, u1, state.n)
    out += (1 - p - q) * apply_product_unitary(rho, u2, state.n)
    return DenseState(state.n, out)


def check_translation_invariance(
    h: float, pairs, kind: DistanceKind, n: int
) -> float:
    """Max deviation of D((p,q,h),(p,q,0)) from the centroid value over pairs.

    The distance between a corner state and its face shadow depends only on
    h; returns the largest absolute deviation found.
    """
    if n % 2:
        raise ParameterError("translation invariance applies to even n")
    if not 0 <= h < 1:
        raise ParameterError(f"h must lie in [0, 1), got {h}")
    ref = matrix_distance(
        m3n_density(M3NState(n, corner_triple(n, 1 / 3, 1 / 3, h))),
        m3n_density(M3NState(n, corner_triple(n, 1 / 3, 1 / 3, 0.0))),
        kind,
    )
    worst = 0.0
    for p, q in pairs:
        d = matrix_distance(
            m3n_density(M3NState(n, corner_triple(n, p, q, h))),
            m3n_density(M3NState(n, corner_triple(n, p, q, 0.0))),
            kind,
        )
        worst = max(worst, abs(d - ref))
    return worst


_omega_cache: dict = {}


def _omega_parts(n: int):
    """GHZ basis vectors split by z-parity, with the Kraus completeness check."""
    if n in _omega_cache:
        return _omega_cache[n]
    even_idx = [i for i in range(2 ** (n - 1)) if bin(i).count("1") % 2 == 0]
    odd_idx = [i for i in range(2 ** (n - 1)) if bin(i).count("1") % 2 == 1]
    if len(even_idx) != len(odd_idx):
        raise ParameterError(f"parity split failed for n={n}")
    def vecs(idx_list, sign):
        return [ghz_basis_vector(GHZBasisIndex(n, i, sign), n) for i in idx_list]
    parts = (
        vecs(even_idx, +1),
        vecs(even_idx, -1),
        vecs(odd_idx, +1),
        vecs(odd_idx, -1),
    )
    dim = 2**n
    complete = np.zeros((dim, dim), dtype=complex)
    for group in parts:
        for v in group:
            complete += np.outer(v, v.conj())
    if np.max(np.abs(complete - np.eye(dim))) > 1e-12:
        raise RuntimeError("Kraus completeness check failed")
    _omega_cache[n] = parts
    return parts


def apply_omega(state: DenseState) -> DenseState:
    """The global rephasing channel collapsing even-parity GHZ weight onto odd '+'.

    Kraus operators |psi_j+><phi_j+|, |psi_j+><phi_j-|, |psi_j+><psi_j+|,
    |psi_j-><psi_j-| over the z-parity-split GHZ basis; trace preserving by
    basis completeness. Maps the corner centroid (1/3, 1/3, h) to (1, 0, h).
    """
    if state.n % 2:
        raise ParameterError("the rephasing channel is defined for even n")
    if state.n > _OMEGA_CAP:
        raise CapacityError(f"the rephasing channel is capped at n={_OMEGA_CAP}")
    phi_p, phi_m, psi_p, psi_m = _omega_parts(state.n)
    dim = state.dim
    out = np.zeros((dim, dim), dtype=complex)
    rho = state.rho
    for j in range(len(phi_p)):
        weight = 0.0
        for v in (phi_p[j], phi_m[j], psi_p[j]):
            weight += float(np.real(v.conj() @ rho @ v))
        out += weight * np.outer(psi_p[j], psi_p[j].conj())
        wm = float(np.real(psi_m[j].conj() @ rho @ psi_m[j]))
        out += wm * np.outer(psi_m[j], psi_m[j].conj())
    return DenseState(state.n, out)


def _twirl_unitaries(n: int):
    """The 2(n-1) pairwise sigma_x then sigma_y conjugations, as (pauli, qubit) pairs."""
    for j in (1, 2):
        for k in range(n - 1):
            yield j, k


def apply_m3nfication_channel(state: DenseState) -> DenseState:
    """The explicit twirl onto the triple-correlation family.

    Runs the 2(n-1)-step convex iteration rho -> (rho + U rho U^dag)/2 with
    U = sigma_a x sigma_a on adjacent qubit pairs (a = x then y), which equals
    the full 2^(2(n-1))-term mixture of products of those unitaries.
    """
    rho = np.array(state.rho)
    for j, k in _twirl_unitaries(state.n):
        conj = conjugate_one_qubit(rho, SIGMA[j], k, state.n)
        conj = conjugate_one_qubit(conj, SIGMA[j], k + 1, state.n)
        rho = 0.5 * (rho + conj)
    return DenseState(state.n, rho)


def singlet_overlap_check() -> float:
    """Overlap of the four-qubit singlet with the GHZ vector (|0011>+|1100>)/sqrt(2).

    Equals 2/3, above the 1/2 threshold, so the singlet's genuine
    entanglement is certified by a single overlap measurement.
    """
    singlet = build_state(StateFamily.singlet4(), 4)
    beta = ghz_basis_vector(GHZBasisIndex(4, 0b0011, +1), 4)
    return float(np.real(beta.conj() @ singlet.rho @ beta))
