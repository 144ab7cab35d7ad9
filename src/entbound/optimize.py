"""Maximise bound quantities over per-qubit rotations.

Two objectives: the rotated-correlation sum |c~1|+|c~2|+|c~3| feeding the
global/partial lower bound, and the largest GHZ-basis overlap feeding the
genuine bound. Both are non-smooth and multimodal, so every search runs from
several starts, and all starts of a search run in lockstep: one batched
objective call per step covers every start still running.

Before any search work, once every check that can refuse the call has run,
the unrotated value is compared with a bound no local rotation can beat; when
it meets the bound, the identity is returned with no screen, no
:func:`minimize` and no ascent. Each bound is one read:

- Correlation sum: the ceiling min(3, sum_J |T_J|), the l1 term at n >= 2
  only. Each c~_i is the mean of a product of +-1-valued observables, so
  |c~_i| <= 1 and the sum is at most 3; ``rotated_triple`` clips every entry
  to [-1, 1], so no rotation prints more. For the l1 norm of the (3,)^n
  block: c~_i = sum_J T_J prod_k O_k[i, j_k], and by AM-GM and
  |x|^n <= x^2, sum_i prod_k |O_k[i, j_k]| <= (1/n) sum_k sum_i O_k[i, j_k]^2
  = 1, for shared and per-qubit rotations alike. Triple-correlation states,
  whose block holds only c on its diagonal, meet the l1 norm, and GHZ and
  Dicke(n/2) at even n, with c = (+-1, +-1, +-1), meet 3. At n = 1 the l1
  norm fails: rotating T = e_1 reaches sqrt(3).
- GHZ overlap: <beta|U rho U^dag|beta> <= lambda_max(rho), as U^dag beta is a
  unit vector; ``DenseState.top_eigenvalue`` reads lambda_max from the form.
  States whose top GHZ vector is a top eigenvector, GHZ-diagonal ones
  included, meet it.

- Per-qubit mode, either objective: closed-form coordinate ascent. With
  every other qubit fixed, the objective is linear in one qubit's SO(3)
  matrix (per sign class, for the correlation sum). Both ascents step every
  start at once. The correlation sum's step takes the proper polar factor of
  a 3x3 matrix, one batched SVD per qubit shared by its four sign classes.
  The overlap's step takes the top eigenvector of a symmetric 4x4 matrix in
  the unit quaternion, one batched eigensolve per qubit; that eigenvector
  is the qubit's SU(2) unitary itself. The correlation-sum ascent stops
  every start, and runs no further chunk, once one start's sweep reaches the
  ceiling above. Each correlation-sum sweep carries the tensor contracted by
  the rows already updated, one mode further per qubit, so a step contracts
  only the qubits still to come (O(3^n) per sweep and start, not O(n 3^n)),
  in the order a full contraction takes. Each overlap run keeps the product
  factors of its GHZ vector's two halves across a sweep, and a step reads
  the state once, through ``DenseState.qubit_gram``, against the products
  before its qubit (grown one factor a step) and after it (formed once a
  sweep).
- Shared mode, either objective: a coarse angle-grid screen, then
  :func:`minimize`, an in-package Nelder-Mead that runs every start
  together, scipy's path run by run. Its one batched objective call per
  step holds all four candidate points of every run still going, so both
  objectives compute each row on its own: a row's value does not depend on
  the other rows of its call. The correlation sum is a degree-n polynomial
  in the rows of the shared SO(3) matrix, read through a table of their
  powers; its zero coefficients are dropped. The overlap with one GHZ
  vector is A + Re(C exp(-i m phi)), m = n - 2|x|, with A and C functions
  of (theta, psi) alone, so its refinement runs over (theta, psi) on
  A + |C| and solves for phi. A and C are read through a table of the
  powers of cos(theta/2) and sin(theta/2), from the state compressed once
  per index to the (n0 + 1)(n1 + 1) weight classes of the qubits where x is
  0 and where it is 1. Neither builds a rotated state.
- The overlap search reads the state only through its form. The screen of
  both modes takes the diagonal and anti-diagonal of u^{xn} rho u^{dag xn}
  from ``DenseState.lines_under``: with u = Rz(phi) Rx(theta) Rz(psi), the
  last Rz(phi)^{xn} keeps the diagonal and only turns each anti-diagonal
  entry by a phase, so the grid's phis share one read per (theta, psi). A
  read applies u^{xn} with ``_linalg.kron_apply``, one 2x2 product over the
  whole line per qubit and row: O(n 2^n) a row. The phases take n values
  per phi on the half of the anti-diagonal that is read, so each is computed
  once. The shared refinement compresses the state through
  ``DenseState.sandwich`` of the d class columns (O(d 2^n) on a pure form,
  O(d^2 2^n) on an X or mixed one), the per-qubit ascent's start and end
  values read it against product vectors through the same read, and its
  steps through ``DenseState.qubit_gram``. A built state never builds rho
  here.

The shared grid is density theta planes of density^2 (psi, phi) rows, the
identity first; seeds and starts index its rows in that order. Both screens
walk it by whole theta planes and keep only what their search reads: each
row's correlation sum, or each row's largest GHZ overlap and its index. The
correlation-sum screen reads one plane at a time; the overlap screen reads
as many planes at once as keep their overlaps within
``_linalg.CHUNK_ENTRIES``: the default grid is one read up to n = 12, and
the largest grid at n = 12 one plane a read. The per-qubit ascents run their
starts in chunks of at most ``_linalg.CHUNK_ENTRIES`` matrix entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import SIGMA_STACK, _frozen, check_budget, chunk_rows, chunks, hamming_weights
from .errors import ParameterError
from .locc import GHZBasisIndex, ghz_diagonalise, ghz_overlaps
from .pauli import (
    CorrelationTensor,
    LocalRotation,
    quaternion_to_angles,
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
#: a correlation sum this close to its ceiling min(3, l1) is taken as the
#: ceiling: the identity fallback's margin, inside which a gain is rounding
_CEILING_TOL = 1e-12
#: sweep cap of both per-qubit ascents
_MAX_SWEEPS = 500
#: iteration cap of every Nelder-Mead run
_NM_MAXITER = 10 * _MAX_SWEEPS
#: GHZ basis indices whose rotation angles the overlap search refines
_OVERLAP_CANDIDATES = 4
#: bytes the per-qubit overlap search charges each run per qubit, for the whole
#: search (start, angles and bits; tracemalloc reads about 100 a qubit at n = 3
#: and 5), and each run of the ascent chunk in hand, per qubit (rotations,
#: lifts, factors and the angle read; about 700) and per amplitude (the kept
#: products and one step's temporaries; at n = 6..10 about 70 on a pure or
#: mixed state, 130 on an X state and 380 on a dense one, whose read builds
#: the four vectors)
_OVERLAP_RUN_BYTES_PER_QUBIT = 128
_OVERLAP_CHUNK_BYTES_PER_QUBIT = 1024
_OVERLAP_CHUNK_BYTES_PER_AMPLITUDE = 512
#: screen overlaps this close to a row's largest, and top overlaps this close
#: to the next row's, tie
_TIE_TOL = 1e-12

#: largest grid_density, the CLI's documented 2..29 range. A screen holds one
#: plane or one read of whole planes, not its grid, so the cap bounds time: the
#: grid has density^3 points, and at density 29 one CLI run (imports
#: included, 2-core Xeon VM) takes 0.9-1.1 s for the W GHZ-overlap search at
#: n = 12, nearly all of it the screen, and 0.4 s for the W correlation-sum
#: search at n = 10.
MAX_GRID_DENSITY = 29

#: sign classes for the per-qubit closed-form update; -s duplicates s under |.|
_SIGN_CLASSES = np.array(
    [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]], dtype=float
)


@dataclass(frozen=True)
class OptimisationOptions:
    """Search-strategy knobs; defaults reproduce every reported table row.

    ``grid_density`` runs from 2 to MAX_GRID_DENSITY. A screen's time grows
    with its grid, density^3 points; its working set is one theta plane, or
    for the overlap screen at most ``_linalg.CHUNK_ENTRIES`` overlaps of
    whole planes.
    """

    mode: str = "shared"
    restarts: int = 32
    grid_density: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("shared", "per_qubit"):
            raise ParameterError(f"mode must be 'shared' or 'per_qubit', got {self.mode!r}")
        if self.restarts < 1:
            raise ParameterError(f"restarts must be >= 1, got {self.restarts}")
        if not 2 <= self.grid_density <= MAX_GRID_DENSITY:
            raise ParameterError(
                f"grid_density must be in 2..{MAX_GRID_DENSITY}, got {self.grid_density}"
            )


def _shared_grid(density: int) -> np.ndarray:
    """The shared (theta, psi, phi) grid as density theta planes, shape (density, density^2, 3).

    Plane t holds theta_t; its row j * density + k holds (psi_j, phi_k), so
    each psi's first row has phi = 0, and row 0 of the theta = 0 plane is the
    identity. Flattened, the planes are the grid's density^3 rows in order.
    """
    thetas = np.linspace(0.0, math.pi, density)
    psis = np.linspace(0.0, _TWO_PI, density, endpoint=False)
    phis = np.linspace(0.0, _TWO_PI, density, endpoint=False)
    grid = np.stack(np.meshgrid(thetas, psis, phis, indexing="ij"), axis=-1)
    return grid.reshape(density, density**2, 3)


# -- lockstep Nelder-Mead ---------------------------------------------------------

#: scipy's non-adaptive coefficients: reflection, expansion, contraction, shrink
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
#: initial simplex: each coordinate grows by 5%, or becomes 0.00025 when zero
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025


#: a step's four candidate points a * xbar - b * worst, rows (a, b) in scipy's
#: coefficients: reflection, expansion, outside and inside contraction. scipy
#: forms the inside one as (1 - psi) xbar + psi worst, the same bits as b = -psi
_NM_STEPS = np.array([
    [1 + _NM_RHO, _NM_RHO],
    [1 + _NM_RHO * _NM_CHI, _NM_RHO * _NM_CHI],
    [1 + _NM_PSI * _NM_RHO, _NM_PSI * _NM_RHO],
    [1 - _NM_PSI, -_NM_PSI],
])[:, :, None, None]


@dataclass(frozen=True)
class MinimizeResult:
    """Best vertex ``x`` (S, dim) and value ``fun`` (S,) of every run.

    ``nfev`` counts the points scipy's Nelder-Mead evaluates on the same path
    and ``nit`` its iterations, summed over the runs. :func:`minimize` also
    evaluates each step's candidates that a run does not take, which ``nfev``
    leaves out.
    """

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    nit: int


def _ordered(sim, fsim, rows):
    """Each run's simplex (S, dim + 1, dim) and values (S, dim + 1) in np.argsort
    order; ``rows`` is np.arange(S)."""
    order = np.argsort(fsim, axis=1)
    return sim[rows[:, None], order], fsim[rows[:, None], order]


def minimize(fun, starts) -> MinimizeResult:
    """Minimise from every start at once; ``fun(run_ids, points)`` gives one value per row.

    Row by row this is scipy's non-adaptive Nelder-Mead: the same initial
    simplex, steps and np.argsort ordering. A run stops once its simplex
    and its values each span at most _REFINE_TOL (scipy's xatol and fatol),
    or at _NM_MAXITER iterations. Each iteration calls ``fun`` once on all
    four candidate points of every run still going (reflection, expansion,
    outside and inside contraction) and picks scipy's branch from the
    reflection's value; a shrink takes one more call. So a row's value must
    not depend on the other rows of its call. The runs still going keep
    their simplices in arrays of their own, and a run's result is written
    when it stops.
    """
    x0 = np.array(starts, dtype=float)
    runs, dim = x0.shape
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        sim[:, k + 1, k] = np.where(x0[:, k] != 0, (1 + _NM_NONZDELT) * x0[:, k], _NM_ZDELT)
    fsim = np.asarray(fun(np.repeat(np.arange(runs), dim + 1), sim.reshape(-1, dim)), dtype=float)
    live = rows = np.arange(runs)
    # scipy sorts the first simplex twice; with ties the second sort may reorder
    sim, fsim = _ordered(*_ordered(sim, fsim.reshape(runs, dim + 1), rows), rows)
    x, best = np.empty((runs, dim)), np.empty(runs)
    ids = np.tile(live, 4)
    nfev, nit = runs * (dim + 1), 0
    for it in range(1, _NM_MAXITER + 1):
        # the values are sorted, so their largest spread |f_0 - f_j| is f_dim - f_0
        done = fsim[:, -1] - fsim[:, 0] <= _REFINE_TOL
        if it == _NM_MAXITER or np.count_nonzero(done):
            if it < _NM_MAXITER:
                done &= np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _REFINE_TOL
            else:
                done[:] = True
            x[live[done]], best[live[done]] = sim[done, 0], fsim[done].min(axis=1)
            nit += it * int(np.count_nonzero(done))
            going = ~done
            live, sim, fsim = live[going], sim[going], fsim[going]
            if not live.size:
                break
            ids, rows = np.tile(live, 4), np.arange(len(live))
        worst = sim[:, -1].copy()
        points = _NM_STEPS[:, 0] * (np.add.reduce(sim[:, :-1], 1) / dim) - _NM_STEPS[:, 1] * worst
        values = np.asarray(fun(ids, points.reshape(-1, dim)), dtype=float).reshape(4, -1)
        fxr, fxe = values[:2]
        expand = fxr < fsim[:, 0]
        reflect = expand | (fxr < fsim[:, -2])
        outside = fxr < fsim[:, -1]
        # scipy's branch: 0 reflect, 1 expand, 2 outside and 3 inside contraction
        step = np.where(reflect, expand & (fxe < fxr), np.where(outside, 2, 3))
        fnew = values[step, rows]
        shrink = ~(reflect | np.where(outside, fnew <= fxr, fnew < fsim[:, -1]))
        nfev += 2 * len(live) + int(np.count_nonzero(expand)) - int(np.count_nonzero(reflect))
        sim[:, -1], fsim[:, -1] = points[step, rows], fnew
        shrunk = np.flatnonzero(shrink)
        if shrunk.size:
            # a shrink keeps the worst vertex, and every value it moves is evaluated again
            sim[shrunk, -1] = worst[shrunk]
            top = sim[shrunk, :1]
            sim[shrunk, 1:] = top + _NM_SIGMA * (sim[shrunk, 1:] - top)
            fsim[shrunk, 1:] = np.asarray(fun(
                np.repeat(live[shrunk], dim), sim[shrunk, 1:].reshape(-1, dim)), dtype=float
            ).reshape(-1, dim)
            nfev += dim * len(shrunk)
        sim, fsim = _ordered(sim, fsim, rows)
    return MinimizeResult(x, best, nfev, nit)


# -- correlation-sum objective ----------------------------------------------------

def _shared_polynomial(bloch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T(o, ..., o) = sum_alpha c_alpha o_1^a1 o_2^a2 o_3^a3 as (c, positions).

    c_alpha sums the bloch entries whose indices hold a1 ones, a2 twos and a3
    threes; there are C(n+2, 2) of them. No symmetry of the tensor is assumed.
    Those that are 0 are dropped: their terms would add only zeros, which no
    |c~_i| sees (W at n = 8 keeps 3 of 45). Returns the K kept c_alpha and,
    shape (3, K), where o_j^aj sits in a table of powers whose rows are
    (power, j) flattened: 3 aj + j.
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
    keep = (a2 + a3 <= n) & (coef != 0)
    exps = np.stack([n - a2 - a3, a2, a3])[:, keep]
    return coef[keep], 3 * exps + np.arange(3)[:, None]


def _shared_objective(poly: tuple[np.ndarray, np.ndarray], angles: np.ndarray) -> np.ndarray:
    """|c~1|+|c~2|+|c~3| with one (theta, psi, phi) triple on every qubit.

    c~_i is the polynomial at row i of the shared SO(3) matrix. Angles of
    shape (..., 3) give values of shape (...). Every step runs entry by entry
    along the angle rows, and c~_i sums its terms in order, so a row's value
    does not depend on the other rows of the call.
    """
    coef, positions = poly
    angles = np.asarray(angles, dtype=float)
    lead = angles.shape[:-1]
    # entries[j, i, r] = O[i, j] of angle row r
    entries = so3_from_angles(angles.reshape(-1, 3)).T
    # powers[d, j] = entries[j] ** d up to the largest power a term takes, by
    # repeated products rather than a float pow per entry
    powers = np.empty((positions.max(initial=0) // 3 + 1,) + entries.shape)
    powers[0] = 1.0
    powers[1:2] = entries
    for d in range(2, len(powers)):
        np.multiply(powers[d - 1], powers[1], out=powers[d])
    terms = np.multiply.reduce(powers.reshape(-1, entries[0].size)[positions], axis=0)
    sums = np.add.reduce(terms * coef[:, None], axis=0).reshape(3, -1)
    return np.abs(sums).sum(axis=0).reshape(lead)


def _proper_polar(u: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """The O in SO(3) maximising Tr(O m) for m = u diag(sv) vt, sv the singular values.

    That is (u vt)^T, or (u diag(1, 1, -1) vt)^T where (u vt)^T is improper.
    Stacks of shape (..., 3, 3) give one factor per pair.
    """
    o = np.swapaxes(u @ vt, -1, -2)
    flipped = np.swapaxes(u @ np.diag([1.0, 1.0, -1.0]) @ vt, -1, -2)
    return np.where((np.linalg.det(o) < 0)[..., None, None], flipped, o)


def _best_rotation_for_matrix(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """argmax over O in SO(3) of sum_i |sum_j O_ij b_ij|, in closed form.

    For each sign class the signed objective is a linear functional of O,
    maximised by a sign-corrected polar factor; the first best class wins.
    Stacks of shape (..., 3, 3) give rotations (..., 3, 3) and values (...).
    """
    # objective of class s = Tr(O B^T diag(s)); B^T = U S V^T makes
    # B^T diag(s) = U S (diag(s) V)^T, so one SVD serves all four classes
    u, _, vt = np.linalg.svd(np.swapaxes(b, -1, -2))
    os = _proper_polar(u[..., None, :, :], vt[..., None, :, :] * _SIGN_CLASSES[:, None, :])
    vals = np.abs(np.einsum("...ij,...ij->...i", os, b[..., None, :, :])).sum(axis=-1)
    best = np.argmax(vals, axis=-1)[..., None]
    return (
        np.take_along_axis(os, best[..., None, None], axis=-3)[..., 0, :, :],
        np.take_along_axis(vals, best, axis=-1)[..., 0],
    )


def _random_rotations(rng: np.random.Generator, count: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    q[np.linalg.det(q) < 0, :, 0] *= -1
    return q


def _qubit_matrix(left: np.ndarray, os: np.ndarray, k: int) -> np.ndarray:
    """b[s, i, j]: row i of every other qubit's rotation, unit row e_j on qubit k.

    ``os`` of shape (S, n, 3, 3) holds each start's rotations, and ``left``
    is the sweep cache at qubit k: bloch with modes 0..k-1 contracted by row
    i of os[s, m], shape (S * 3, 3^(n-k)) in (s, i) order, or bloch itself at
    k = 0. Modes k+1..n-1 are contracted here in the order of
    ``pauli.contract_modes``, a sum over three terms each, so b equals that
    contraction over the 9 rows bit for bit, signs of zeros included. A
    contraction sums into zeros, so neither its result nor the cache past
    k = 0 holds a -0.0, whatever the signs of its input's zeros. Only at
    n = 1, where b is bloch itself, can b hold one, and ``+ 0.0`` turns it
    into 0.0 as the unit row e_j does; so the cache is read in place.
    """
    count, n = os.shape[:2]
    cur = left.reshape(-1, 3, 3 ** (n - k - 1))  # (S * 3 or 1, j, modes k+1..)
    for m in range(k + 1, n):
        rows = os[:, m].reshape(-1, 3)
        cur = np.einsum("bl,bjlr->bjr", rows, cur.reshape(len(cur), 3, 3, -1))
    # at n = 1 nothing was contracted and every (s, i) reads bloch itself
    return np.broadcast_to(cur, (count * 3, 3, 1)).reshape(count, 3, 3) + 0.0


def _per_qubit_ascent(
    bloch: np.ndarray, starts, ceiling: float = np.inf
) -> tuple[np.ndarray, float]:
    """Coordinate ascent over qubits on (n, 3, 3) rotation stacks, every start in lockstep.

    Each start sweeps until a sweep gains at most _ASCENT_TOL (or for
    _MAX_SWEEPS sweeps) and is then frozen; starts run in chunks under
    CHUNK_ENTRIES (at n <= 8 the 32 default starts fit in one). Once a
    sweep brings any start within _CEILING_TOL of ``ceiling``, a value no
    start can beat, every start stops and no further chunk runs. A sweep
    carries bloch contracted by the rows already updated, one mode further
    per qubit, so each qubit's step contracts only the qubits still to come,
    and the last update leaves the sweep's value.
    Returns the first best start's stack and its value.
    """
    n = bloch.ndim
    os = np.array(starts, dtype=float)
    vals = np.full(len(os), -np.inf)
    for chunk in chunks(len(os), 9 * 3 ** (n - 1)):
        if vals.max() >= ceiling - _CEILING_TOL:
            break
        live = np.arange(len(os))[chunk]
        for _ in range(_MAX_SWEEPS):
            cur = os[live]
            left = bloch
            for k in range(n):
                cur[:, k] = _best_rotation_for_matrix(_qubit_matrix(left, cur, k))[0]
                # one more mode by the steps of pauli.contract_modes, so the
                # sweep's value equals that contraction bit for bit
                rows = cur[:, k].reshape(-1, 3)
                if k == 0:
                    left = rows @ bloch.reshape(3, -1)
                else:
                    left = np.einsum("bj,bjr->br", rows, left.reshape(len(left), 3, -1))
            new = np.abs(left).reshape(-1, 3).sum(axis=1)
            os[live] = cur
            stop = new <= vals[live] + _ASCENT_TOL
            vals[live] = np.where(stop, np.maximum(vals[live], new), new)
            live = live[~stop]
            if not live.size or new.max() >= ceiling - _CEILING_TOL:
                break
    best = int(np.argmax(vals))
    return os[best], float(vals[best])


def optimise_triple(
    tensor: CorrelationTensor, opts: OptimisationOptions | None = None
) -> tuple[LocalRotation, CorrelationTriple, float]:
    """Maximise |c~1|+|c~2|+|c~3| over local rotations of the correlation tensor.

    Shared mode optimises one angle triple applied to all qubits (optimal for
    permutation-invariant states); per-qubit mode runs alternating closed-form
    updates qubit by qubit. The identity rotation is always among the starts,
    so the objective never drops below the unrotated value. No rotation
    beats the ceiling min(3, l1 norm of the block), the l1 term at n >= 2
    only: every |c~_i| <= 1, being the mean of a +-1-valued product, and the
    l1 proof is in the module docstring. When the unrotated value meets it,
    as on every triple-correlation tensor and on GHZ and Dicke(n/2) at even
    n, the identity returns at once: one zero triple, shared, in shared
    mode, and n zero triples in per-qubit mode. The per-qubit ascent stops
    every start once one of them reaches it.
    """
    opts = opts or OptimisationOptions()
    n = tensor.n
    bloch = tensor.bloch
    shared = opts.mode == "shared"
    rng = np.random.default_rng(opts.seed)

    if not shared:
        check_budget(8 * opts.restarts * n * 9,
                     f"the per-qubit start stack of {opts.restarts} restarts")
    elif not tensor.is_symmetric():
        raise ParameterError(
            "shared-angle optimisation expects a permutation-symmetric tensor; "
            "use per_qubit mode"
        )
    identity_val = tensor.diagonal_triple().abs_sum
    ceiling = min(3.0, float(np.abs(bloch).sum())) if n >= 2 else 3.0
    if identity_val >= ceiling - _CEILING_TOL:
        rotation = (LocalRotation.identity() if shared
                    else LocalRotation.from_per_qubit([(0.0, 0.0, 0.0)] * n))
        triple = rotated_triple(tensor, rotation)
        return rotation, triple, triple.abs_sum

    if shared:
        poly = _shared_polynomial(bloch)
        planes = _shared_grid(opts.grid_density)
        # one theta plane at a time, so one plane's terms are held at once
        values = np.concatenate([_shared_objective(poly, plane) for plane in planes])
        grid = planes.reshape(-1, 3)
        order = np.argsort(-values, kind="stable")
        starts = [grid[0]] + [grid[i] for i in order[: opts.restarts]]
        res = minimize(lambda _, angles: -_shared_objective(poly, angles), starts)
        best_angles, best_val = grid[0], values[0]
        for x, neg in zip(res.x, res.fun):
            if -neg > best_val + 1e-15:
                best_angles, best_val = x, -neg
        canonical = so3_to_angles(so3_from_angles(best_angles))
        rotation = LocalRotation.from_shared(canonical)
    else:
        starts = np.concatenate([
            np.tile(np.eye(3), (1, n, 1, 1)),
            _random_rotations(rng, (opts.restarts - 1) * n).reshape(-1, n, 3, 3),
        ])
        best_os, _ = _per_qubit_ascent(bloch, starts, ceiling)
        rotation = LocalRotation.from_per_qubit(so3_to_angles(best_os))

    triple = rotated_triple(tensor, rotation)
    objective = triple.abs_sum
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


def _product_factors(bits: np.ndarray, us: np.ndarray) -> np.ndarray:
    """factors[r, k]: rows U_k^dag|x_k> and U_k^dag|~x_k>, qubit k's factors of a and b.

    U_k^dag|y> is row y of conj(U_k), so the factors are conj(U_k) with its
    rows swapped where x_k = 1. bits (R, n) and unitaries us (R, n, 2, 2)
    give (R, n, 2, 2).
    """
    conj = np.conj(us)
    return np.where(bits[:, :, None, None] == 1, conj[:, :, ::-1], conj)


def _rotated_betas(bits: np.ndarray, signs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """U^dag beta per row, for beta = (|x> + sign |~x>)/sqrt(2) and U = (x)_k us[r, k].

    bits (R, n), signs (R,) and unitaries us (R, n, 2, 2) give (R, 2^n). The
    two product vectors grow together from :func:`_product_factors`, qubit 0
    leftmost.
    """
    factors = _product_factors(bits, us)
    ab = factors[:, 0]
    for k in range(1, bits.shape[1]):
        ab = (ab[..., :, None] * factors[:, k, :, None, :]).reshape(len(ab), 2, -1)
    return (ab[:, 0] + signs[:, None] * ab[:, 1]) / math.sqrt(2)


def _overlaps(state: DenseState, bits: np.ndarray, signs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """<beta|U rho U^dag|beta> per row, in the arguments of :func:`_rotated_betas`."""
    v = _rotated_betas(bits, signs, us)
    return state.sandwich(v[..., None])[..., 0, 0].real


#: E_mu of the lift U = sum_mu q_mu E_mu = w I - i (x s1 + y s2 + z s3) of a unit
#: quaternion q = (w, x, y, z), the lift ``pauli.so3_to_quaternion`` reads and
#: ``pauli.quaternion_to_angles`` turns into angles
_QUATERNION_BASIS = np.concatenate([np.eye(2)[None], -1j * SIGMA_STACK[1:]])
#: F[l, m] with O[l, m] = q^T F[l, m] q = 1/2 Tr(s_l U s_m U^dag), the rotation of
#: that lift: U s_m U^dag = sum_l O[l, m] s_l. Entries are 0 and +-1
_QUATERNION_FORMS = 0.5 * np.einsum(
    "lab,mbc,jcd,nad->ljmn", SIGMA_STACK[1:], _QUATERNION_BASIS, SIGMA_STACK[1:],
    _QUATERNION_BASIS.conj()).real


def _quaternion_step(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit quaternion q whose rotation O maximises sum_lm O[l, m] g[l, m], and that maximum.

    On unit quaternions O[l, m] = q^T F[l, m] q (``_QUATERNION_FORMS``), so the
    objective is q^T K q with K = sum_lm g[l, m] F[l, m], symmetric 4x4: its
    maximum over SO(3) is K's top eigenvalue, reached at its eigenvector
    (Davenport's q-method; Horn, J. Opt. Soc. Am. A 4, 629 (1987)). q is the
    SU(2) lift of O itself, up to a sign no overlap sees. Stacks (..., 3, 3)
    give quaternions (..., 4) and maxima (...), one eigensolve per matrix.
    """
    evals, evecs = np.linalg.eigh(np.einsum("lmab,...lm->...ab", _QUATERNION_FORMS, g))
    return evecs[..., -1], evals[..., -1]


def _su2_from_quaternion(q: np.ndarray) -> np.ndarray:
    """U = w I - i (x s1 + y s2 + z s3); quaternions (..., 4) give (..., 2, 2)."""
    return np.einsum("...m,mab->...ab", q, _QUATERNION_BASIS)


def _ascent_row_entries(n: int) -> int:
    """Entries a run of :func:`_overlap_ascent` counts against CHUNK_ENTRIES: its
    four 2^n-vectors, as the Gram read of the dense form builds them."""
    return 4 * 2**n


def _overlap_ascent(state: DenseState, bits: np.ndarray, signs: np.ndarray, starts):
    """Coordinate ascent over qubits from per-qubit angles, every run in lockstep.

    Run r reads the GHZ basis vector of bits[r] (bits (R, n)) and signs[r]
    from the angles starts[r] (starts (R, n, 3)). With w = (x)_{j != k}
    U_j^dag beta, qubit k's step sees the overlap
    c + sum_lm O_k[l, m] G[l, m], G[l, m] = 1/2 Re <w|sigma_l x R_m|w>,
    R_m = Tr_k[sigma_m rho]: linear in O_k, so the top eigenvector of a 4x4
    quaternion matrix built from G (:func:`_quaternion_step`) is exact, and is
    U_k itself; the sweep's value is c plus its eigenvalue. G and c come from
    the Gram block of the four vectors w_b x |d> (b, d in {0, 1}; w_b is w
    with qubit-k component b), one ``DenseState.qubit_gram`` read for every
    run still going. Each w_b is a product vector: a's factors off qubit k
    over sqrt(2), or sign times b's, so each run keeps the factors of a and b
    on every qubit; a sweep forms their products after each qubit (the tails)
    once, and grows the products before it (the heads) by one factor a step.
    The angles are read from the quaternions once, after the last sweep. A run
    stops once a sweep gains at most _ASCENT_TOL (or after _MAX_SWEEPS sweeps)
    and is then frozen; runs go in chunks under CHUNK_ENTRIES.
    Returns the angles (R, n, 3) and each run's overlap at them (R,).
    """
    n = state.n
    angles = np.array(starts, dtype=float)
    vals = np.empty(len(angles))
    paulis = SIGMA_STACK[1:]
    for chunk in chunks(len(angles), _ascent_row_entries(n)):
        flips, signs_c = bits[chunk] == 1, signs[chunk]
        us = su2_from_angles(angles[chunk])
        # each run's value at its last sweep, for the stop rule
        reached = _overlaps(state, bits[chunk], signs_c, us)
        factors = _product_factors(bits[chunk], us)
        quats = np.empty(us.shape[:2] + (4,))
        # w's part from a weighs 1/sqrt(2), from b sign/sqrt(2): the heads start there
        weights = np.stack([np.ones(len(signs_c)), signs_c], axis=1)[:, :, None] / math.sqrt(2)
        live = np.arange(len(reached))
        for _ in range(_MAX_SWEEPS):
            cur = factors[live]
            tails = [np.ones((len(live), 2, 1), dtype=complex)]
            for k in range(n - 1, 0, -1):
                tails.append((cur[:, k, :, :, None] * tails[-1][:, :, None, :]).reshape(
                    len(live), 2, -1))
            heads = weights[live].astype(complex)
            for k in range(n):
                gram = state.qubit_gram(heads, tails.pop())
                # the read's halves are a's and b's, and a has component x_k on
                # qubit k: gram[r, a, c, b, d] = <w_a c| rho |w_b d>
                flip = flips[live, k][:, None, None]
                gram = np.where(flip[..., None, None], gram[:, ::-1, :, ::-1], gram)
                g = 0.5 * np.einsum("lab,mdc,racbd->rlm", paulis, paulis, gram).real
                quats[live, k], gain = _quaternion_step(g)
                u = _su2_from_quaternion(quats[live, k]).conj()
                cur[:, k] = np.where(flip, u[:, ::-1], u)
                if k < n - 1:
                    heads = (heads[:, :, :, None] * cur[:, k, :, None, :]).reshape(len(live), 2, -1)
            # the sweep's value, as the last qubit's step reached it
            new = 0.5 * np.einsum("racac->r", gram).real + gain
            factors[live] = cur
            stop = new <= reached[live] + _ASCENT_TOL
            reached[live[~stop]] = new[~stop]
            live = live[~stop]
            if not live.size:
                break
        angles[chunk] = quaternion_to_angles(quats)
        vals[chunk] = _overlaps(state, bits[chunk], signs_c, su2_from_angles(angles[chunk]))
    return angles, vals


def _overlap_search_bytes(n: int, restarts: int) -> int:
    """Bytes the per-qubit overlap search of ``restarts`` holds: every run of every
    candidate for the whole search, and one :func:`_overlap_ascent` chunk's runs."""
    runs = _OVERLAP_CANDIDATES * (2 + restarts // 4)
    rows = min(runs, chunk_rows(_ascent_row_entries(n)))
    return (runs * _OVERLAP_RUN_BYTES_PER_QUBIT * (n + 1)
            + rows * (_OVERLAP_CHUNK_BYTES_PER_QUBIT * n + _OVERLAP_CHUNK_BYTES_PER_AMPLITUDE * 2**n))


def _screen_overlaps(state: DenseState, planes: np.ndarray) -> np.ndarray:
    """GHZ-basis overlaps of u^{xn} rho u^{dag xn} at each row of whole ``_shared_grid`` planes.

    u = su2_from_angles(row); planes (P, d^2, 3) give overlaps (P d^2, 2^n),
    rows in grid order, each in ghz_diagonalise's order. Reads only the
    diagonal and the anti-diagonal of each rotated state. As u = Rz(phi) v,
    with v the same angles at phi = 0, and Rz(phi)^{xn} keeps the diagonal and
    turns anti-diagonal entry (i, ~i) by exp(-i phi (n - 2|i|)), one read of
    the state's lines per (theta, psi) serves every phi, all in one batch:
    the planes' rows at phi = 0, every d-th.
    """
    n, d = state.n, math.isqrt(planes.shape[1])
    diag, anti = state.lines_under([su2_from_angles(planes[:, ::d])] * n)
    half = 2 ** (n - 1)
    phis = planes[..., 2:].reshape(len(planes), d, d, 1)
    # a turn n - 2|i| takes only n values on the first half (|i| < n), so each phi's
    # n phases are computed once and gathered; ghz_overlaps reads only that half
    phases = np.take(np.exp(-1j * phis * np.arange(n, -n, -2)), hamming_weights(n)[:half],
                     axis=-1)
    anti = np.multiply(anti[:, :, None, :half], phases, out=phases)
    return ghz_overlaps(diag[:, :, None], anti).reshape(-1, 2**n)


def _screen_tops(state: DenseState, grid: np.ndarray):
    """Each row's largest :func:`_screen_overlaps` entry, and the first flat index within
    _TIE_TOL of it.

    Overlaps that tie in exact arithmetic differ in their last bits, so the
    index is picked on a tolerance, not by those bits. A ``_shared_grid`` is
    screened by whole theta planes, as many at once as keep their 2^n
    overlaps a row within CHUNK_ENTRIES (at least one), and a read's overlaps
    are dropped before the next read, so one read's overlaps are held at
    once. Returns values and indices, one per grid row in order.
    """

    def top(overlaps):
        tops = overlaps.max(axis=1)
        return tops, np.argmax(overlaps >= tops[:, None] - _TIE_TOL, axis=1)

    reads = chunks(len(grid), grid.shape[1] * 2**state.n)
    tops, pos = zip(*(top(_screen_overlaps(state, grid[r])) for r in reads))
    return np.concatenate(tops), np.concatenate(pos)


# -- shared GHZ-overlap refinement ------------------------------------------------
#
# One u = Rz(phi) v, v = Rx(theta) Rz(psi), on every qubit. Row y of u is row y of
# v times exp(-i phi/2) (y = 0) or exp(i phi/2) (y = 1), so a = exp(i m phi/2) a_v
# and b = exp(-i m phi/2) b_v, with m = n - 2|x| and a_v, b_v the product vectors
# of v. The overlap is A + Re(C exp(-i m phi)), with A = (<a_v|rho|a_v> +
# <b_v|rho|b_v>)/2 and C = sign <a_v|rho|b_v> functions of (theta, psi) alone: its
# largest value over phi is A + |C|, at phi = arg(C)/m, or A + Re C at m = 0,
# where phi has no effect. a_v puts one row of conj(v) on every qubit where x is 0
# and the other on every qubit where x is 1, and b_v the reverse, so both lie in
# the product of those two sets' symmetric subspaces (Toth and Guhne, PRL 102,
# 170503 (2009)): the span of the index's weight-class indicators.

def _class_columns(bits: np.ndarray) -> np.ndarray:
    """P (2^n, d): the normalised indicators of the weight classes of the index ``bits`` (n,).

    The index splits the qubits into the n0 where x is 0 and the n1 where x is
    1; class (w0, w1), column w0 (n1 + 1) + w1, holds the strings of weight w0
    on the first set and w1 on the second, so d = (n0 + 1)(n1 + 1).
    """
    n = len(bits)
    ones = int(bits.sum())
    weights = hamming_weights(n)
    w1 = weights[np.arange(2**n) & int(bits @ (1 << np.arange(n - 1, -1, -1)))]
    label = (weights - w1) * (ones + 1) + w1
    sizes = np.bincount(label)
    cols = np.zeros((2**n, len(sizes)))
    cols[np.arange(2**n), label] = 1 / np.sqrt(sizes[label])
    return cols


@functools.cache
def _class_coefficients(zeros: int, ones: int):
    """Per weight class (w0, w1): the constant factors of a_v's and b_v's coordinates,
    the power q of s in a_v's, and n - 2(w0 + w1), the power of e in both.

    With c = cos(theta/2), s = sin(theta/2) and e = exp(i psi/2), the rows of conj(v)
    are (c e, i s conj(e)) and (i s e, c conj(e)). k qubits that all take the row r
    have the coordinate sqrt(C(k, w)) r_0^(k-w) r_1^w on their Dicke vector of weight
    w. a_v takes row 0 on the n0 zeros and row 1 on the n1 ones, so its coordinate is
    sqrt(C(n0, w0) C(n1, w1)) i^q c^(n-q) s^q e^(n-2w0-2w1), q = w0 + n1 - w1; b_v
    takes the other rows, which turns q into n - q.
    """
    w0, w1 = np.divmod(np.arange((zeros + 1) * (ones + 1)), ones + 1)
    roots = np.sqrt([math.comb(zeros, a) * math.comb(ones, b) for a, b in zip(w0, w1)])
    n, sines = zeros + ones, w0 + ones - w1
    return tuple(_frozen(a) for a in (roots * 1j**sines, roots * 1j ** (n - sines), sines,
                                      n - 2 * (w0 + w1)))


def _class_terms(block: np.ndarray, bits: np.ndarray, sign: int):
    """The function of (theta, psi) giving A and C of the overlap, read from the compressed
    state P^dag rho P.

    ``block`` is rho compressed to the :func:`_class_columns` of ``bits``;
    the function takes angles (R, 2) to A (R,) and C (R,). a_v's and b_v's
    coordinates (:func:`_class_coefficients`) are read from a table of the
    powers c^(n-q) s^q, q = 0..n, and take one phase e^(n-2w0-2w1). What does
    not depend on the angles is formed here, once per index, and every step
    runs row by row, so a row's A and C do not depend on the other rows.
    """
    n, ones = len(bits), int(bits.sum())
    const_a, const_b, sines, turns = _class_coefficients(n - ones, ones)
    # a_v's coordinates then b_v's, as one gather from the table
    consts, columns = np.concatenate([const_a, const_b]), np.concatenate([sines, n - sines])
    q = np.arange(n + 1)
    cosines = n - q

    def terms(angles):
        half = 0.5 * angles
        table = np.cos(half[:, :1]) ** cosines * np.sin(half[:, :1]) ** q
        ab = (consts * table[:, columns]).reshape(len(angles), 2, -1)
        ab *= np.exp(1j * half[:, 1:] * turns)[:, None, :]
        gram = ab.conj() @ block @ np.swapaxes(ab, 1, 2)
        return 0.5 * (gram[:, 0, 0] + gram[:, 1, 1]).real, sign * gram[:, 0, 1]

    return terms


def _shared_refinement(state: DenseState, idxs, starts: np.ndarray):
    """Nelder-Mead over (theta, psi) on the overlap maximised over phi, every run in lockstep.

    Run r refines the overlap with idxs[r] from starts[r] (R, 2). Each distinct
    index compresses the state once, through one ``DenseState.sandwich`` of its
    class columns. Returns each run's angles (R, 3), phi = arg(C)/m, and the
    overlap there, A + |C| (R,).
    """
    n = state.n
    distinct = list(dict.fromkeys(idxs))
    which = np.array([distinct.index(idx) for idx in idxs])
    readers, turns = [], []
    for idx in distinct:
        bits = _ghz_bits(idx)
        ones = int(bits.sum())
        # the columns and the read's temporaries: tracemalloc reads at most 73 bytes
        # a column entry on an X form at n = 8 and 10, 42 dense and 25 pure
        check_budget(80 * (n - ones + 1) * (ones + 1) * 2**n,
                     f"the weight-class columns of {idx.key}")
        readers.append(_class_terms(state.sandwich(_class_columns(bits)), bits, idx.sign))
        turns.append(n - 2 * ones)

    def profile(k, angles):  # the overlap maximised over phi, and C
        a, c = readers[k](angles)
        return a + (np.abs(c) if turns[k] else c.real), c

    def fun(ids, points):
        values = np.empty(len(ids))
        runs_of = which[ids]
        for k in range(len(readers)):
            rows = runs_of == k
            if rows.any():
                values[rows] = -profile(k, points[rows])[0]
        return values

    res = minimize(fun, starts)
    angles = np.pad(res.x, ((0, 0), (0, 1)))
    for k, m in enumerate(turns):
        if m:
            rows = which == k
            angles[rows, 2] = np.angle(profile(k, res.x[rows])[1]) / m
    return angles, -res.fun


def optimise_ghz_overlap(
    state: DenseState, opts: OptimisationOptions | None = None
) -> tuple[LocalRotation, GHZBasisIndex, float]:
    """Maximise the overlap with a GHZ basis vector over local rotations.

    Scans all 2^n basis indices against a shared-angle grid, then refines the
    rotation for the best few candidate indices. Shared mode runs Nelder-Mead
    over (theta, psi), from the identity and from each candidate's grid row,
    on the overlap already maximised over phi in closed form, A + |C| (module
    docstring); each candidate compresses the state once, to its weight
    classes. Per-qubit mode runs closed-form coordinate ascent over qubits.
    The result is never below the unrotated maximum overlap.
    When that overlap meets ``state.top_eigenvalue()`` (see the module
    docstring), as on GHZ-diagonal states, the identity and the unrotated
    best index return at once, in either mode.
    """
    opts = opts or OptimisationOptions()
    n = state.n
    shared = opts.mode == "shared"
    rng = np.random.default_rng(opts.seed)

    if not shared:
        # every candidate's runs: the identity, its grid point and restarts // 4
        # random starts. The pick below takes _OVERLAP_CANDIDATES whenever
        # restarts // 4 >= _OVERLAP_CANDIDATES, as any refused stack needs
        check_budget(_overlap_search_bytes(n, opts.restarts),
                     f"the per-qubit start stack of {opts.restarts} restarts and its ascent")
    base = ghz_diagonalise(state)
    best = (LocalRotation.identity(), base.argmax(), base.p_max)
    # a run replaces the best only when it gains more than 1e-13, so with the
    # bound within 1e-13 no run can
    if base.p_max + 1e-13 >= state.top_eigenvalue():
        return best

    # coarse screen: every basis index against a shared-angle grid, because
    # the best index at the identity need not be the best one after rotation
    planes = _shared_grid(max(4, opts.grid_density // 2))
    tops, best_pos = _screen_tops(state, planes)
    grid = planes.reshape(-1, 3)
    # (grid row, flat index) by falling top overlap; rows whose tops lie within
    # _TIE_TOL of the next one tie, and tied rows go in grid order
    order = np.argsort(-tops, kind="stable")
    tied = np.concatenate([[0], np.cumsum(-np.diff(tops[order]) > _TIE_TOL)])
    picked, seen = [], set()
    for g in order[np.lexsort((order, tied))]:
        pos = int(best_pos[g])
        if pos not in seen or len(picked) < opts.restarts // 4:
            picked.append((g, pos))
            seen.add(pos)
        if len(picked) >= _OVERLAP_CANDIDATES:
            break

    candidates = [GHZBasisIndex(n, pos // 2, +1 if pos % 2 == 0 else -1) for _, pos in picked]
    if shared:
        # two runs per candidate, from the identity's and its grid point's
        # (theta, psi), as phi is solved for; a run repeating an earlier (index,
        # start) would end where it does and, coming later, never win, so it is
        # not run
        runs = {}
        for (g, pos), idx in zip(picked, candidates):
            for x in (np.zeros(2), grid[g, :2]):
                runs.setdefault((pos, *x), (idx, x))
        idxs, starts = zip(*runs.values())
        angles, vals = _shared_refinement(state, idxs, np.array(starts))
        for idx, x, val in zip(idxs, angles, vals):
            if val > best[2] + 1e-13:
                canonical = so3_to_angles(so3_from_angles(x))
                best = (LocalRotation.from_shared(canonical), idx, float(val))
        return best
    # every candidate's runs in one lockstep ascent: the identity, its grid
    # point tiled over the qubits, and restarts // 4 random starts each
    per = 2 + opts.restarts // 4
    starts = np.empty((len(picked), per, n, 3))
    for (g, _), row in zip(picked, starts):
        row[0], row[1] = 0.0, grid[g]
        row[2:] = rng.uniform(0, math.pi, size=(opts.restarts // 4, n, 3))
    bits = np.repeat([_ghz_bits(idx) for idx in candidates], per, axis=0)
    signs = np.repeat([idx.sign for idx in candidates], per)
    angles, vals = _overlap_ascent(state, bits, signs, starts.reshape(-1, n, 3))
    for run, (run_angles, val) in enumerate(zip(angles, vals)):
        if val > best[2] + 1e-13:
            best = (LocalRotation.from_per_qubit(run_angles), candidates[run // per], float(val))
    return best


__all__ = [
    "MAX_GRID_DENSITY",
    "OptimisationOptions",
    "optimise_ghz_overlap",
    "optimise_triple",
]
