"""Brute-force verification of the closed formulas.

The octahedron oracle minimises a distance over a refined grid of separable
triples. Every m3n density splits into 2x2 blocks on the index pairs
(i, 2^n - 1 - i); the oracle builds the few distinct ones from the nonzero
entries of sigma_j^{xn}, never a 2^n x 2^n matrix. At even n the blocks are
diagonal in the GHZ pair basis, and every distance is a classical distance
between GHZ-basis spectra; at odd n only trace distance has a closed form to
check, and it is a sum of closed-form 2x2 eigenvalues over the blocks. Grid
points and grid states are built entry-major, (entries, points), and handed to
the distance kernels as ``.T`` views, so each reduction over a point's few
entries adds whole contiguous rows; row-major, numpy runs a short inner loop
per point, and at even n the distances took two to three times as long. Each
round builds one barycentric lattice for all the face windows it scores (the
coarse round one window, which every face scales by its signs), in chunks of
as many windows as fit CHUNK_ENTRIES, and scores each window on its own. The
GHZ-diagonal oracle minimises a classical distance over capped-simplex
spectra in one certified step: it computes the KKT point min(1/2, t p),
checks that it is feasible and that its Frank-Wolfe duality gap is at most
1e-12, and raises if either check fails. Neither oracle touches the closed
forms it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import GRID_BUDGET, QUBIT_CAP, _frozen, chunks, pauli_power_entries
from .errors import CapacityError, EntboundError, ParameterError, UnsupportedDistanceError
from .locc import GHZDiagonalState
from .measures import DistanceKind, classical_distance, octahedron_excess
from .qstate import M3NState

#: deviation between a closed form and its oracle that counts as agreement
_TOLERANCE = 1e-6
#: largest entry that still counts as zero where a 2x2 pair block is certified
#: diagonal in the GHZ pair basis: off its diagonal, or imaginary on it
_DIAGONAL_TOL = 1e-12
#: largest Frank-Wolfe gap, and deviation of the entry sum from 1, of a certified
#: GHZ-diagonal candidate
_GAP_TOL = _SUM_TOL = 1e-12
#: bound on the bytes a grid point takes while its distances are evaluated, for
#: every supported distance kind. The most measured with tracemalloc at
#: resolution 100 is 393, trace distance at n = 3 and 5; at even n, where one
#: lattice holds a round's eight windows (24 B a point) beside the window being
#: scored, relative entropy takes 294 at n = 4 and 329 at n = 6. A build holds
#: at most CHUNK_ENTRIES // (r + 1)^2 windows: all eight up to r = 361, and
#: one from r = 724 on. Apart from the grid, the first call at each n runs
#: ``_pair_block_classes``, whose O(2^n) working set before the blocks are
#: merged is at most 410 * 2^n bytes with tracemalloc at n = 10..16 (13 MB at
#: n = 15); it is freed before the grid is evaluated and its result is cached,
#: so a call peaks at the larger of the two
_POINT_BYTES = 800
#: largest grid_resolution: a grid of resolution r holds (r + 1)^2 points, and
#: 819^2 points of _POINT_BYTES fit GRID_BUDGET, 820^2 do not
MAX_GRID_RESOLUTION = 818
#: largest refine_rounds: the window's half-width shrinks 4x a round, and after
#: 26 it is 0.5 * 4^-26 = 1.1e-16, one ulp of a coordinate in [0.5, 1); on the
#: oracle-check octahedron cases rounds 26, 40 and 60 give the same value bit for bit
MAX_REFINE_ROUNDS = 26
#: sign patterns of the eight octahedron faces
_FACES = _frozen(np.array(list(itertools.product((1.0, -1.0), repeat=3))))


@dataclass(frozen=True)
class OracleConfig:
    """Octahedron-grid knobs; ``grid_resolution`` runs from 4 to MAX_GRID_RESOLUTION,
    which keeps one grid within GRID_BUDGET (512 MiB), and ``refine_rounds`` from 0
    to MAX_REFINE_ROUNDS."""

    grid_resolution: int = 60
    refine_rounds: int = 3

    def __post_init__(self):
        if not 4 <= self.grid_resolution <= MAX_GRID_RESOLUTION:
            raise ParameterError(
                f"grid_resolution must be in 4..{MAX_GRID_RESOLUTION}, got {self.grid_resolution}"
            )
        if not 0 <= self.refine_rounds <= MAX_REFINE_ROUNDS:
            raise ParameterError(
                f"refine_rounds must be in 0..{MAX_REFINE_ROUNDS}, got {self.refine_rounds}"
            )


# -- distances over m3n grids on 2x2 pair blocks ------------------------------

@functools.cache
def _pair_block_classes(n: int) -> np.ndarray:
    """Distinct 2x2 blocks of (I, sigma_1^{xn}, sigma_2^{xn}, sigma_3^{xn}), shape (4, K, 2, 2).

    Every one of the four is the direct sum of its blocks on the index pairs
    (i, 2^n - 1 - i), read here off ``pauli_power_entries``. Pairs whose four
    blocks agree are merged, and each distinct tuple is scaled by its share
    count / 2^n of the pairs: within a class rho and every grid state are
    equal, so a distance's sum over the class is its term on the scaled block.
    Cached per n and read-only.
    """
    dim = 2**n
    low = np.arange(dim // 2)
    pairs = np.stack([low, dim - 1 - low], axis=1)
    blocks = np.zeros((dim // 2, 4, 2, 2), dtype=complex)
    blocks[:, 0] = np.eye(2)
    for j in (1, 2, 3):  # column i's entry sits in row i (j = 3) or row 2^n - 1 - i
        rows = [0, 1] if j == 3 else [1, 0]
        blocks[:, j, rows, [0, 1]] = pauli_power_entries(j, n)[pairs]
    # complex unique sorts several times slower than on the float view
    flat = blocks.reshape(dim // 2, -1).view(float)
    _, first, counts = np.unique(flat, axis=0, return_index=True, return_counts=True)
    scaled = blocks[first] * (counts / dim)[:, None, None, None]
    return _frozen(scaled.swapaxes(0, 1))


def _ghz_pair_spectra(blocks: np.ndarray):
    """Diagonals (..., 2) of Hermitian 2x2 ``blocks`` in the GHZ pair basis, or None.

    The basis is (|i> +/- |2^n - 1 - i>) / sqrt(2). None when any block has an
    off-diagonal or imaginary entry above 1e-12 there, as at odd n, where
    sigma_3^{xn} swaps the two GHZ vectors of each pair.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    conj = h @ blocks @ h
    diag = np.diagonal(conj, axis1=-2, axis2=-1)
    off = conj[..., [0, 1], [1, 0]]
    if max(np.abs(off).max(), np.abs(diag.imag).max()) > _DIAGONAL_TOL:
        return None
    return diag.real


def _batch_trace_distance(rho: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Trace distances from one block-diagonal state to a stack of them.

    ``rho`` holds the K diagonal 2x2 blocks of the state, shape (K, 2, 2), and
    ``batch`` those of G states, shape (G, K, 2, 2). The distance is half the
    sum of the absolute eigenvalues of the Hermitian block differences, taken
    in closed form, so no 2^n x 2^n matrix is formed.
    """
    diff = batch - rho[None]
    a, d = diff[..., 0, 0].real, diff[..., 1, 1].real
    mean = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), np.abs(diff[..., 0, 1]))
    return 0.5 * np.sum(np.abs(mean - radius) + np.abs(mean + radius), axis=1)


@functools.cache
def _steps(resolution: int) -> np.ndarray:
    """The r + 1 grid steps from 0 to 1 of resolution r; cached per r and read-only."""
    return _frozen(np.linspace(0.0, 1.0, resolution + 1))


def _face_windows(centers, halfwidth: float, resolution: int) -> tuple[np.ndarray, list]:
    """Barycentric lattices (u, v, w) of several face windows in one build.

    Window k spans ``centers[k]`` +/- ``halfwidth`` in u and in v, on the
    steps of ``resolution``, cut to the face (u, v, w >= -1e-12, w clipped at
    0). Returns one entry-major (3, N) buffer holding every window's points,
    each window row-major in (u, v), and the slice of each window in it. A
    face's points are the lattice times its signs.
    """
    axes = (np.asarray(centers) - halfwidth)[:, :, None] + 2 * halfwidth * _steps(resolution)
    u, v = axes[:, 0, :, None], axes[:, 1, None, :]
    w = 1.0 - u - v
    keep = (w >= -1e-12) & (u >= -1e-12) & (v >= -1e-12)
    counts = np.count_nonzero(keep, axis=(1, 2)).tolist()
    ends = np.cumsum(counts).tolist()
    lattice = np.empty((3, ends[-1]))
    lattice[0] = np.broadcast_to(u, w.shape)[keep]
    lattice[1] = np.broadcast_to(v, w.shape)[keep]
    np.clip(w[keep], 0.0, None, out=lattice[2])
    return lattice, [slice(end - count, end) for end, count in zip(ends, counts)]


def brute_min_over_octahedron(
    state: M3NState, kind: DistanceKind, cfg: OracleConfig | None = None
) -> float:
    """Minimum distance from a triple-correlation state to the octahedron.

    Evaluates distances on a barycentric grid over all eight faces, then
    shrinks the grid by a factor 4 per refinement round around each refined
    face's best point. One lattice serves the eight coarse grids, and each
    round builds one lattice for all its windows (in chunks of CHUNK_ENTRIES
    entries at (resolution + 1)^2 a window), then scores each window with one
    distance call, so the scoring working set is one window's. Rho and the grid
    states are held as their distinct, share-scaled 2x2 pair blocks (two at
    every n >= 2), so the cost does not grow with 2^n past building them.
    At even n the blocks are diagonal in the GHZ pair basis, the distances
    are classical distances between spectra, and every face is refined around
    its own coarse minimum. At odd n only trace distance is supported, as in
    ``entanglement_m3n``; it is a sum over the blocks, and only the
    incumbent's face is refined. Separable inputs return 0 (the state itself
    is feasible).
    """
    cfg = cfg or OracleConfig()
    odd = state.n % 2 == 1
    if odd and kind is not DistanceKind.TRACE:
        raise UnsupportedDistanceError(
            f"the octahedron oracle supports only trace distance at odd n, got {kind.value}"
        )
    if state.n > QUBIT_CAP:
        raise CapacityError(f"the octahedron oracle is capped at n={QUBIT_CAP}")
    if octahedron_excess(state.c) <= 0:
        return 0.0
    blocks = _pair_block_classes(state.n)
    rho_blocks = blocks[0] + np.tensordot(state.c.as_array(), blocks[1:], axes=1)
    if odd:
        identity, paulis = blocks[0].reshape(-1, 1), blocks[1:].reshape(3, -1).T

        def distances(pts):
            batch = (paulis @ pts.T + identity).reshape(rho_blocks.shape + (-1,))
            return _batch_trace_distance(rho_blocks, np.moveaxis(batch, -1, 0))
    else:
        spectra = _ghz_pair_spectra(np.concatenate([rho_blocks[None], blocks]))
        if spectra is None:
            raise EntboundError(f"the pair blocks at even n={state.n} are not GHZ-diagonal")
        p, identity = spectra[0].ravel(), spectra[1].reshape(-1, 1)
        d = spectra[2:].reshape(3, -1).T

        def distances(pts):
            return classical_distance(p, (identity + d @ pts.T).T, kind)

    # the coarse lattice is the same on every face; a face's points are its signs times it
    lattice, _ = _face_windows([(0.5, 0.5)], 0.5, cfg.grid_resolution)
    faces = []  # [value, signs, barycentric (u, v) of the value's point]
    for signs in _FACES:
        vals = distances((lattice * signs[:, None]).T)
        g = int(np.argmin(vals))
        faces.append([float(vals[g]), signs, lattice[:2, g].copy()])
    del lattice
    if odd:  # refine the incumbent's face only
        faces = [min(faces, key=lambda f: f[0])]
    # each round shrinks the windows 4x around the faces' best points, in one build
    # for as many windows as fit CHUNK_ENTRIES; a face whose window is empty stops
    refining, halfwidth, window_points = faces, 0.5, (cfg.grid_resolution + 1) ** 2
    for _ in range(cfg.refine_rounds):
        halfwidth /= 4.0
        batches = [refining[chunk] for chunk in chunks(len(refining), window_points)]
        refining = []
        for batch in batches:
            lattice, windows = _face_windows([f[2] for f in batch], halfwidth, cfg.grid_resolution)
            for face, window in zip(batch, windows):
                if window.start == window.stop:
                    continue
                vals = distances((lattice[:, window] * face[1][:, None]).T)
                g = int(np.argmin(vals))
                if vals[g] < face[0]:
                    face[0], face[2] = float(vals[g]), lattice[:2, window.start + g].copy()
                refining.append(face)
            del lattice
    return min(f[0] for f in faces)


# -- GHZ-diagonal oracle ---------------------------------------------------------

def _analytic_candidate(p: np.ndarray) -> np.ndarray:
    """The KKT point min(1/2, t p): 1/2 at the largest entry, the rest scaled to sum 1/2.

    The remainder is the sum of the other entries (1 - p_max cancels near
    p_max = 1), and each entry is divided by it before the factor 1/2 (1/2
    over a subnormal remainder overflows). Only when every other entry is 0 is
    1/2 spread evenly. Every entry lies in [0, 1/2] by construction.
    """
    q = np.array(p, dtype=float)
    k = int(np.argmax(q))
    others = np.arange(q.size) != k
    rest = float(q[others].sum())
    q[others] = q[others] / rest * 0.5 if rest > 0 else 0.5 / (q.size - 1)
    q[k] = 0.5
    return q


def _fw_gap(q: np.ndarray, g: np.ndarray) -> float:
    """Frank-Wolfe duality gap at q with gradient g over the capped simplex.

    The gap max_v <g, q - v> bounds f(q) - min f for convex f. The linear
    minimiser v puts 1/2 on the two smallest gradient entries.
    """
    return float(g @ q - 0.5 * np.sum(np.partition(g, 1)[:2]))


def _surrogate_gradient(p: np.ndarray, q: np.ndarray, kind: DistanceKind) -> np.ndarray:
    """(Sub)gradient at q of the convex function of q that a distance minimises.

    Trace and relative entropy are minimised directly; trace takes the
    subgradient (1/2) sign(q - p), with +1/2 at a tie, where any value in
    [-1/2, 1/2] is a subgradient. Infidelity, squared Bures and squared
    Hellinger all decrease with the affinity sum sqrt(p q), so they minimise
    its negative. Entries of q are floored at 1e-14 where p is positive.
    """
    if kind is DistanceKind.TRACE:
        return np.where(q >= p, 0.5, -0.5)
    support = p > 0
    qs = np.maximum(q[support], 1e-14)
    g = np.zeros_like(q)
    if kind is DistanceKind.RELATIVE_ENTROPY:
        g[support] = -p[support] / (qs * math.log(2))
    else:
        g[support] = -0.5 * np.sqrt(p[support] / qs)
    return g


def brute_min_biseparable_ghz(state: GHZDiagonalState, kind: DistanceKind) -> float:
    """Minimum classical distance from a GHZ spectrum to the biseparable set.

    The biseparable GHZ-diagonal spectra are exactly those with every entry
    at most 1/2. Every distance is minimised through a convex function of q:
    trace distance and relative entropy themselves, or the affinity for the
    fidelity-based kinds. For p_max > 1/2 the KKT point min(1/2, t p) is the
    minimiser, and the oracle checks it from p, the (sub)gradient and the
    feasible set alone: its entries must lie in [0, 1/2] and sum to 1 within
    1e-12, and its Frank-Wolfe gap, which bounds its distance above the
    minimum, must be at most 1e-12. A failed check is a fault and raises
    ``EntboundError``.
    """
    p = state.flat()
    if p.max() <= 0.5 + 1e-15:
        return 0.0
    q = _analytic_candidate(p)
    gap = _fw_gap(q, _surrogate_gradient(p, q, kind))
    if q.min() < 0 or q.max() > 0.5 or abs(q.sum() - 1) > _SUM_TOL or gap > _GAP_TOL:
        raise EntboundError(
            f"the GHZ-spectrum oracle's candidate is not certified: entries in [{q.min():.3g}, "
            f"{q.max():.3g}], sum {q.sum():.17g}, Frank-Wolfe gap {gap:.3g}"
        )
    return classical_distance(p, q, kind)


def oracle_report(formula_value: float, oracle_value: float, cfg: OracleConfig) -> dict:
    return {
        "formula_value": formula_value,
        "oracle_value": oracle_value,
        "deviation": abs(formula_value - oracle_value),
        "config": {
            "grid_resolution": cfg.grid_resolution,
            "refine_rounds": cfg.refine_rounds,
            "tolerance": _TOLERANCE,
        },
    }


__all__ = [
    "MAX_GRID_RESOLUTION",
    "MAX_REFINE_ROUNDS",
    "OracleConfig",
    "brute_min_biseparable_ghz",
    "brute_min_over_octahedron",
    "oracle_report",
]
