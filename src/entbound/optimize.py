"""Maximise bound quantities over per-qubit rotations.

Two objectives: the rotated-correlation sum |c~1|+|c~2|+|c~3| feeding the
global/partial lower bound, and the largest GHZ-basis overlap feeding the
genuine bound. Both objectives are non-smooth and multimodal, so the search
is derivative-free: a coarse angle grid (shared mode) or closed-form
coordinate ascent over qubits (per-qubit mode), refined with Nelder-Mead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._linalg import apply_product_to_vector, apply_product_unitary
from .errors import ParameterError
from .locc import GHZBasisIndex, ghz_basis_vector, ghz_diagonalise
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

#: convergence tolerance of the per-qubit ascent and of every Nelder-Mead refinement
_REFINE_TOL = 1e-8
#: sweep cap of the per-qubit ascent
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


def _shared_objective_batch(bloch: np.ndarray, angles: np.ndarray, n: int) -> np.ndarray:
    """|c~1|+|c~2|+|c~3| with one (theta, psi, phi) row on every qubit, shape (G,)."""
    os = np.swapaxes(so3_from_angles(angles), 0, 1)  # (3, G, 3): row i of each O
    rows = np.broadcast_to(os[:, :, None, :], os.shape[:2] + (n, 3))
    values = contract_modes(bloch, rows.reshape(-1, n, 3)).reshape(3, -1)
    return np.abs(values).sum(axis=0)


def _best_rotation_for_matrix(b: np.ndarray) -> tuple[np.ndarray, float]:
    """argmax over O in SO(3) of sum_i |sum_j O_ij b_ij|, in closed form.

    For each sign class the signed objective is a linear functional of O,
    maximised by a sign-corrected polar factor from the SVD.
    """
    best_o, best_val = None, -np.inf
    for s in _SIGN_CLASSES:
        m = b.T * s[None, :]  # (B^T diag(s)), objective = Tr(O m)
        u, _, vt = np.linalg.svd(m)
        o = (u @ vt).T
        if np.linalg.det(o) < 0:
            o = (u @ np.diag([1.0, 1.0, -1.0]) @ vt).T
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
            if new_val <= val + _REFINE_TOL:
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
        grid = _shared_grid(opts.grid_density)
        # three slices keep the (3G, 3^(n-1)) intermediate near (G, 3^(n-1))
        values = np.concatenate(
            [_shared_objective_batch(bloch, part, n) for part in np.array_split(grid, 3)]
        )
        order = np.argsort(values)[::-1]
        starts = [grid[0]] + [grid[i] for i in order[: opts.restarts]]

        def neg(angles):
            return -_shared_objective_batch(bloch, np.asarray(angles)[None, :], n)[0]

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


# -- GHZ-overlap optimisation ---------------------------------------------------

def _overlap(state: DenseState, beta: np.ndarray, unitaries) -> float:
    """<beta| U rho U^dag |beta> computed as <U^dag beta| rho |U^dag beta>."""
    back = apply_product_to_vector(beta, [u.conj().T for u in unitaries], state.n)
    return float(np.real(back.conj() @ state.rho @ back))


def _overlap_objective(state: DenseState, beta: np.ndarray, angles: np.ndarray, shared: bool) -> float:
    n = state.n
    if shared:
        us = [su2_from_angles(angles)] * n
    else:
        us = [su2_from_angles(a) for a in angles.reshape(n, 3)]
    return _overlap(state, beta, us)


def optimise_ghz_overlap(
    state: DenseState, opts: OptimisationOptions | None = None
) -> tuple[LocalRotation, GHZBasisIndex, float]:
    """Maximise the overlap with a GHZ basis vector over local rotations.

    Scans all 2^n basis indices at the identity rotation, then refines the
    rotation angles for the best few candidate indices. The result is never
    below the unrotated maximum overlap.
    """
    opts = opts or OptimisationOptions()
    n = state.n
    shared = opts.mode == "shared"
    rng = np.random.default_rng(opts.seed)

    # coarse screen: every basis index against a shared-angle grid, because
    # the best index at the identity need not be the best one after rotation
    grid = _shared_grid(max(4, opts.grid_density // 2))
    seeds = []  # (value, grid position, flat index)
    for g, angles in enumerate(grid):
        u = su2_from_angles(angles)
        rotated = apply_product_unitary(np.array(state.rho), [u] * n, n)
        overlaps = ghz_diagonalise(DenseState(n, rotated)).flat()
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
        beta = ghz_basis_vector(idx, n)

        def neg(x):
            return -_overlap_objective(state, beta, x, shared)

        if shared:
            starts = [np.zeros(3), grid[g]]
        else:
            starts = [np.zeros(3 * n), np.tile(grid[g], n)]
            starts += [rng.uniform(0, math.pi, size=3 * n) for _ in range(opts.restarts // 4)]
        for start in starts:
            res = minimize(neg, start, method="Nelder-Mead", options=_NELDER_MEAD)
            val = -res.fun
            if val > best[2] + 1e-13:
                if shared:
                    canonical = so3_to_angles(so3_from_angles(res.x))
                    rot = LocalRotation.from_shared(canonical)
                else:
                    rot = LocalRotation.from_per_qubit(
                        [so3_to_angles(so3_from_angles(a)) for a in res.x.reshape(n, 3)]
                    )
                best = (rot, idx, float(val))
    return best


__all__ = [
    "OptimisationOptions",
    "optimise_ghz_overlap",
    "optimise_triple",
]
