"""Maximise bound quantities over per-qubit rotations.

Two objectives: the rotated-correlation sum |c~1|+|c~2|+|c~3| feeding the
global/partial lower bound, and the largest GHZ-basis overlap feeding the
genuine bound. Both are non-smooth and multimodal, so every search runs from
several starts.

- Per-qubit mode, either objective: closed-form coordinate ascent. With
  every other qubit fixed, the objective is linear in one qubit's SO(3)
  matrix (per sign class, for the correlation sum), so each step takes the
  proper polar factor of a 3x3 matrix.
- Shared mode, either objective: a coarse angle grid, then Nelder-Mead from
  the best grid points. The correlation sum is a degree-n polynomial in the
  rows of the shared SO(3) matrix; the overlap reads rho against two product
  vectors. Neither builds a rotated state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._linalg import SIGMA_STACK, contract_qubit_pairs
from .errors import ParameterError
from .locc import GHZBasisIndex, ghz_diagonalise
from .pauli import (
    CorrelationTensor,
    LocalRotation,
    contract_modes,
    rotated_triple,
    so3_from_angles,
    so3_to_angles,
    su2_from_angles,
)
from .qstate import CorrelationTriple, DenseState

_TWO_PI = 2 * math.pi

#: convergence tolerance of every Nelder-Mead refinement
_REFINE_TOL = 1e-8
#: sweep gain at which both per-qubit ascents stop; a 1e-8 stop left them up to
#: 3.1e-8 below what the same starts reach, this ends them within about 1e-12
_ASCENT_TOL = 1e-12
#: sweep cap of both per-qubit ascents
_MAX_SWEEPS = 500
#: Nelder-Mead settings shared by the triple and overlap refinements
_NELDER_MEAD = {"xatol": _REFINE_TOL, "fatol": _REFINE_TOL, "maxiter": 10 * _MAX_SWEEPS}
#: GHZ basis indices whose rotation angles the overlap search refines
_OVERLAP_CANDIDATES = 4

#: sign classes for the per-qubit closed-form update; -s duplicates s under |.|
_SIGN_CLASSES = np.array(
    [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]], dtype=float
)


@dataclass(frozen=True)
class OptimisationOptions:
    """Search-strategy knobs; defaults reproduce every reported table row."""

    mode: str = "shared"
    restarts: int = 32
    grid_density: int = 12
    seed: int = 0
    check_symmetry: bool = True

    def __post_init__(self):
        if self.mode not in ("shared", "per_qubit"):
            raise ParameterError(f"mode must be 'shared' or 'per_qubit', got {self.mode!r}")
        if self.restarts < 1:
            raise ParameterError(f"restarts must be >= 1, got {self.restarts}")
        if self.grid_density < 2:
            raise ParameterError(f"grid_density must be >= 2, got {self.grid_density}")


def _shared_grid(density: int) -> np.ndarray:
    thetas = np.linspace(0.0, math.pi, density)
    psis = np.linspace(0.0, _TWO_PI, density, endpoint=False)
    phis = np.linspace(0.0, _TWO_PI, density, endpoint=False)
    grid = np.array(np.meshgrid(thetas, psis, phis, indexing="ij")).reshape(3, -1).T
    return np.vstack([[0.0, 0.0, 0.0], grid])


# -- correlation-sum objective ----------------------------------------------------

def _shared_polynomial(bloch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T(o, ..., o) = sum_alpha c_alpha o_1^a1 o_2^a2 o_3^a3 as (c, exponents).

    c_alpha sums the bloch entries whose indices hold a1 ones, a2 twos and a3
    threes; there are C(n+2, 2) of them. No symmetry of the tensor is assumed.
    Returns c of shape (K,) and the exponents of shape (3, K).
    """
    n = bloch.ndim
    digits = np.arange(bloch.size)
    ones = np.zeros(bloch.size, dtype=np.intp)
    twos = np.zeros(bloch.size, dtype=np.intp)
    for _ in range(n):
        ones += digits % 3 == 1
        twos += digits % 3 == 2
        digits //= 3
    coef = np.bincount(ones * (n + 1) + twos, weights=bloch.ravel(), minlength=(n + 1) ** 2)
    a2, a3 = np.divmod(np.arange((n + 1) ** 2), n + 1)
    keep = a2 + a3 <= n
    return coef[keep], np.stack([n - a2 - a3, a2, a3])[:, keep]


def _shared_objective(poly: tuple[np.ndarray, np.ndarray], angles: np.ndarray) -> np.ndarray:
    """|c~1|+|c~2|+|c~3| with one (theta, psi, phi) triple on every qubit.

    c~_i is the polynomial at row i of the shared SO(3) matrix. Angles of
    shape (..., 3) give values of shape (...).
    """
    coef, exps = poly
    rows = so3_from_angles(angles)  # rows[..., i, :] is row i of O
    powers = rows[..., None] ** np.arange(exps.max() + 1)
    terms = powers[..., 0, exps[0]] * powers[..., 1, exps[1]] * powers[..., 2, exps[2]]
    return np.abs(terms @ coef).sum(axis=-1)


def _polar_rotation(m: np.ndarray) -> np.ndarray:
    """The O in SO(3) maximising Tr(O m): the proper polar factor of m^T."""
    u, _, vt = np.linalg.svd(m)
    o = (u @ vt).T
    if np.linalg.det(o) < 0:
        o = (u @ np.diag([1.0, 1.0, -1.0]) @ vt).T
    return o


def _best_rotation_for_matrix(b: np.ndarray) -> tuple[np.ndarray, float]:
    """argmax over O in SO(3) of sum_i |sum_j O_ij b_ij|, in closed form.

    For each sign class the signed objective is a linear functional of O,
    maximised by a sign-corrected polar factor.
    """
    best_o, best_val = None, -np.inf
    for s in _SIGN_CLASSES:
        o = _polar_rotation(b.T * s[None, :])  # objective = Tr(O B^T diag(s))
        val = float(np.sum(np.abs(np.einsum("ij,ij->i", o, b))))
        if val > best_val:
            best_o, best_val = o, val
    return best_o, best_val


def _random_rotations(rng: np.random.Generator, count: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    q[np.linalg.det(q) < 0, :, 0] *= -1
    return q


def _per_qubit_ascent(bloch: np.ndarray, starts: list) -> tuple[np.ndarray, float]:
    """Coordinate ascent over qubits on (n, 3, 3) rotation stacks."""
    n = bloch.ndim
    best_os, best_val = None, -np.inf
    for os_init in starts:
        os = os_init.copy()
        val = -np.inf
        for _ in range(_MAX_SWEEPS):
            for k in range(n):
                # b[i, j]: row i of every other qubit's rotation, unit row e_j on qubit k
                rows = np.broadcast_to(np.swapaxes(os, 0, 1)[:, None], (3, 3, n, 3)).copy()
                rows[:, :, k] = np.eye(3)
                b = contract_modes(bloch, rows.reshape(9, n, 3))
                os[k], _ = _best_rotation_for_matrix(b.reshape(3, 3))
            new_val = float(np.abs(contract_modes(bloch, np.swapaxes(os, 0, 1))).sum())
            if new_val <= val + _ASCENT_TOL:
                val = max(val, new_val)
                break
            val = new_val
        if val > best_val:
            best_os, best_val = os, val
    return best_os, best_val


def optimise_triple(
    tensor: CorrelationTensor, opts: OptimisationOptions | None = None
) -> tuple[LocalRotation, CorrelationTriple, float]:
    """Maximise |c~1|+|c~2|+|c~3| over local rotations of the correlation tensor.

    Shared mode optimises one angle triple applied to all qubits (optimal for
    permutation-invariant states); per-qubit mode runs alternating closed-form
    updates qubit by qubit. The identity rotation is always among the starts,
    so the objective never drops below the unrotated value.
    """
    opts = opts or OptimisationOptions()
    n = tensor.n
    bloch = tensor.bloch
    rng = np.random.default_rng(opts.seed)

    if opts.mode == "shared":
        if opts.check_symmetry and not tensor.is_symmetric():
            raise ParameterError(
                "shared-angle optimisation expects a permutation-symmetric tensor; "
                "use per_qubit mode or disable check_symmetry"
            )
        poly = _shared_polynomial(bloch)
        grid = _shared_grid(opts.grid_density)
        values = _shared_objective(poly, grid)
        order = np.argsort(values)[::-1]
        starts = [grid[0]] + [grid[i] for i in order[: opts.restarts]]

        def neg(angles):
            return -_shared_objective(poly, angles)

        best_angles, best_val = grid[0], values[0]
        for start in starts:
            res = minimize(neg, start, method="Nelder-Mead", options=_NELDER_MEAD)
            if -res.fun > best_val + 1e-15:
                best_angles, best_val = res.x, -res.fun
        canonical = so3_to_angles(so3_from_angles(best_angles))
        rotation = LocalRotation.from_shared(canonical)
    else:
        starts = [np.tile(np.eye(3), (n, 1, 1))]
        for _ in range(opts.restarts - 1):
            starts.append(_random_rotations(rng, n))
        best_os, _ = _per_qubit_ascent(bloch, starts)
        rotation = LocalRotation.from_per_qubit([so3_to_angles(o) for o in best_os])

    triple = rotated_triple(tensor, rotation)
    objective = triple.abs_sum
    identity_val = tensor.diagonal_triple().abs_sum
    if objective < identity_val - 1e-12:
        rotation = LocalRotation.identity()
        triple = tensor.diagonal_triple()
        objective = triple.abs_sum
    return rotation, triple, objective


# -- GHZ-overlap objective --------------------------------------------------------
#
# A GHZ basis vector is beta = (|x> + s|~x>)/sqrt(2), ~x the complement of the
# bit pattern x. Rotating the state by U = U_1 x ... x U_n gives the overlap
# <beta|U rho U^dag|beta> = <v|rho|v> with v = U^dag beta = (a + s b)/sqrt(2),
# a = (x)_k U_k^dag|x_k> and b = (x)_k U_k^dag|~x_k>: two product vectors.

def _ghz_bits(idx: GHZBasisIndex) -> np.ndarray:
    """Bit x_k of the index on each qubit, qubit 0 leftmost."""
    return (idx.i >> np.arange(idx.n - 1, -1, -1)) & 1


def _product_vector(factors) -> np.ndarray:
    """Kronecker product of 2-vectors, qubit 0 leftmost."""
    out = np.ones(1, dtype=complex)
    for f in factors:
        out = (out[:, None] * f[None, :]).ravel()
    return out


def _rotated_beta(bits: np.ndarray, sign: int, unitaries) -> np.ndarray:
    """U^dag beta for beta = (|x> + sign |~x>)/sqrt(2); U^dag|y> is row y of conj(U)."""
    a = _product_vector([u[x].conj() for u, x in zip(unitaries, bits)])
    b = _product_vector([u[1 - x].conj() for u, x in zip(unitaries, bits)])
    return (a + sign * b) / math.sqrt(2)


def _overlap(rho: np.ndarray, bits: np.ndarray, sign: int, unitaries) -> float:
    """<beta| U rho U^dag |beta> for the product unitary U = U_1 x ... x U_n."""
    v = _rotated_beta(bits, sign, unitaries)
    return float(np.real(np.vdot(v, rho @ v)))


def _overlap_step(rho: np.ndarray, bits: np.ndarray, sign: int, unitaries, k: int):
    """The best U_k with every other qubit fixed, and the overlap it reaches.

    With w = (x)_{j != k} U_j^dag beta, the overlap is
    c + sum_lm O_k[l, m] G[l, m], G[l, m] = 1/2 Re <w|sigma_l x R_m|w>,
    R_m = Tr_k[sigma_m rho]: linear in O_k, so the polar factor of G is exact.
    """
    n = len(bits)
    fixed = list(unitaries)
    fixed[k] = np.eye(2)
    w = _rotated_beta(bits, sign, fixed).reshape(2**k, 2, -1)
    # column (b, d) of basis: w's qubit-k component b placed on qubit k = d
    basis = np.zeros((2**k, 2, w.shape[2], 2, 2), dtype=complex)
    for d in (0, 1):
        basis[:, d, :, :, d] = np.swapaxes(w, 1, 2)
    basis = basis.reshape(2**n, 4)
    # gram[a, c, b, d] = sum conj(w_a) rho[(c, .), (d, .)] w_b
    gram = (basis.conj().T @ (rho @ basis)).reshape(2, 2, 2, 2)
    paulis = SIGMA_STACK[1:]
    g = 0.5 * np.einsum("lab,mdc,acbd->lm", paulis, paulis, gram).real
    const = 0.5 * np.einsum("acac->", gram).real
    o = _polar_rotation(g.T)
    angles = so3_to_angles(o)
    return angles, const + float(np.sum(o * g))


def _overlap_ascent(rho: np.ndarray, bits: np.ndarray, sign: int, start: np.ndarray):
    """Coordinate ascent over qubits from per-qubit angles of shape (n, 3)."""
    angles = [tuple(a) for a in start]
    unitaries = [su2_from_angles(a) for a in angles]
    val = _overlap(rho, bits, sign, unitaries)
    for _ in range(_MAX_SWEEPS):
        for k in range(len(bits)):
            angles[k], new_val = _overlap_step(rho, bits, sign, unitaries, k)
            unitaries[k] = su2_from_angles(angles[k])
        if new_val <= val + _ASCENT_TOL:
            break
        val = new_val
    return angles, _overlap(rho, bits, sign, unitaries)


def _screen_overlaps(rho: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """GHZ-basis overlaps of u^{xn} rho u^{dag xn}, flat in ghz_diagonalise's order.

    Reads only the diagonal and the anti-diagonal of the rotated state.
    """
    diag = contract_qubit_pairs(rho, [u[:, :, None] * u.conj()[:, None, :]] * n, n)
    anti = contract_qubit_pairs(rho, [u[:, :, None] * u[::-1].conj()[:, None, :]] * n, n)
    half = 2 ** (n - 1)
    diag, anti = diag.real.reshape(-1), anti.real.reshape(-1)[:half]
    mean = 0.5 * (diag[:half] + diag[::-1][:half])
    return np.stack([mean + anti, mean - anti], axis=1).reshape(-1)


def optimise_ghz_overlap(
    state: DenseState, opts: OptimisationOptions | None = None
) -> tuple[LocalRotation, GHZBasisIndex, float]:
    """Maximise the overlap with a GHZ basis vector over local rotations.

    Scans all 2^n basis indices against a shared-angle grid, then refines the
    rotation for the best few candidate indices: Nelder-Mead on one shared
    angle triple in shared mode, closed-form coordinate ascent over qubits in
    per-qubit mode. The result is never below the unrotated maximum overlap.
    """
    opts = opts or OptimisationOptions()
    n = state.n
    rho = np.asarray(state.rho)
    shared = opts.mode == "shared"
    rng = np.random.default_rng(opts.seed)

    # coarse screen: every basis index against a shared-angle grid, because
    # the best index at the identity need not be the best one after rotation
    grid = _shared_grid(max(4, opts.grid_density // 2))
    seeds = []  # (value, grid position, flat index)
    for g, angles in enumerate(grid):
        overlaps = _screen_overlaps(rho, su2_from_angles(angles), n)
        pos = int(np.argmax(overlaps))
        seeds.append((float(overlaps[pos]), g, pos))
    seeds.sort(key=lambda t: (-t[0], t[1]))
    picked, seen = [], set()
    for val, g, pos in seeds:
        if pos not in seen or len(picked) < opts.restarts // 4:
            picked.append((val, g, pos))
            seen.add(pos)
        if len(picked) >= _OVERLAP_CANDIDATES:
            break

    base = ghz_diagonalise(state)
    best = (LocalRotation.identity(), base.argmax(), base.p_max)
    for _, g, pos in picked:
        idx = GHZBasisIndex(n, pos // 2, +1 if pos % 2 == 0 else -1)
        bits = _ghz_bits(idx)
        if shared:

            def neg(x):
                return -_overlap(rho, bits, idx.sign, [su2_from_angles(x)] * n)

            for start in (np.zeros(3), grid[g]):
                res = minimize(neg, start, method="Nelder-Mead", options=_NELDER_MEAD)
                if -res.fun > best[2] + 1e-13:
                    canonical = so3_to_angles(so3_from_angles(res.x))
                    best = (LocalRotation.from_shared(canonical), idx, float(-res.fun))
        else:
            starts = [np.zeros((n, 3)), np.tile(grid[g], (n, 1))]
            starts += [rng.uniform(0, math.pi, size=(n, 3)) for _ in range(opts.restarts // 4)]
            for start in starts:
                angles, val = _overlap_ascent(rho, bits, idx.sign, start)
                if val > best[2] + 1e-13:
                    best = (LocalRotation.from_per_qubit(angles), idx, val)
    return best


__all__ = [
    "OptimisationOptions",
    "optimise_ghz_overlap",
    "optimise_triple",
]
