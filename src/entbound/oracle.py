"""Brute-force verification of the closed formulas.

The octahedron oracle minimises a distance from an m3n state rho(c) =
(I + c . sigma^{xn}) / 2^n over the separable triples x, |x|_1 <= 1, and it
reads each distance off the two triples, never a 2^n x 2^n matrix. At even n
the sigma_j^{xn} commute, so rho(x) has the four eigenvalues (1 + s . x) / 2^n
over the rows s of one 4x3 sign matrix S, and every distance is a classical one
between the spectra p = (1 + S c) / 4 and q = (1 + S x) / 4. The rows of S and
their negatives are the eight sign vectors, so the octahedron's eight facets
are q_k <= 1/2 and q_k >= 0: x -> q maps it onto the capped simplex
{sum q = 1, 0 <= q_k <= 1/2}, the feasible set of the GHZ-diagonal oracle, and
the even-n oracle takes that oracle's certified step. At odd n they
anticommute, so the trace distance is |c - x| / 2, and only trace distance has
a closed form to check; the odd-n oracle minimises it over a refined grid of
the octahedron's faces. Grid points are built entry-major, (entries, points),
and handed to the distance kernel as ``.T`` views, so each reduction over a
point's three entries adds whole contiguous rows instead of running a short
inner loop per point. Each round builds one barycentric lattice for all the
face windows it scores (the coarse round one window, which every face scales
by its signs), in chunks of as many windows as fit CHUNK_ENTRIES, and scores
each window on its own.

The certified step minimises a classical distance from a spectrum p with
p_max > 1/2 over the capped simplex: it computes the KKT point min(1/2, t p),
checks that it is feasible and that its Frank-Wolfe duality gap (M. Jaggi,
ICML 2013) is at most 1e-12, and raises if either check fails. Neither oracle
touches the closed forms it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import GRID_BUDGET, _frozen, chunks
from .errors import EntboundError, ParameterError, UnsupportedDistanceError
from .locc import GHZDiagonalState
from .measures import DistanceKind, classical_distance, octahedron_excess
from .qstate import M3NState, _even_signs

#: deviation between a closed form and its oracle that counts as agreement
_TOLERANCE = 1e-6
#: largest Frank-Wolfe gap, and deviation of the entry sum from 1, of a certified
#: capped-simplex candidate
_GAP_TOL = _SUM_TOL = 1e-12
#: bound on the bytes a grid point takes while its distances are evaluated; the
#: grid runs at odd n only, for trace distance. The most measured with tracemalloc
#: at resolutions 100 to 818 is 112, with one face refined, where a round's lattice
#: (24 B a point) sits beside the window being scored; two faces tied on their
#: shared edge took 102. Each further window in a build adds at most 24 B a point,
#: and a build holds at most CHUNK_ENTRIES // (r + 1)^2 windows: all eight up to
#: r = 361, and one from r = 724 on. Nothing else grows with the grid or with n
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
    """Octahedron-grid knobs, used at odd n; ``grid_resolution`` runs from 4 to
    MAX_GRID_RESOLUTION, which keeps one grid within GRID_BUDGET (512 MiB), and
    ``refine_rounds`` from 0 to MAX_REFINE_ROUNDS."""

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


# -- distances over m3n grids, from the triples --------------------------------

def _odd_trace_distances(c: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Trace distances from rho(c) to the grid states rho(x) of the rows x of ``pts``, odd n.

    The sigma_j^{xn} anticommute at odd n, so (c - x) . sigma^{xn} has the
    eigenvalues +/- |c - x|, and the distance is |c - x| / 2. ``pts`` is (N, 3);
    passed as the ``.T`` of an entry-major (3, N) buffer, the sum over the three
    entries adds whole contiguous rows.
    """
    diff = pts.T - c[:, None]
    return 0.5 * np.sqrt(np.sum(diff * diff, axis=0))


@functools.cache
def _steps(resolution: int) -> np.ndarray:
    """The r + 1 grid steps from 0 to 1 of resolution r; cached per r and read-only."""
    return _frozen(np.linspace(0.0, 1.0, resolution + 1))


def _face_windows(centers, halfwidth: float, resolution: int) -> tuple[np.ndarray, list]:
    """Barycentric lattices (u, v, w) of several face windows in one build.

    Window k spans ``centers[k]`` +/- ``halfwidth`` in u and in v, on the
    steps of ``resolution``, cut to the face (u, v, w >= -1e-12, then each
    clipped at 0). Returns one entry-major (3, N) buffer holding every window's
    points, each window row-major in (u, v), and the slice of each window in it.
    A face's points are the lattice times its signs.
    """
    axes = (np.asarray(centers) - halfwidth)[:, :, None] + 2 * halfwidth * _steps(resolution)
    u, v = axes[:, 0, :, None], axes[:, 1, None, :]
    w = 1.0 - u - v
    keep = (w >= -1e-12) & (u >= -1e-12) & (v >= -1e-12)
    counts = np.count_nonzero(keep, axis=(1, 2)).tolist()
    ends = np.cumsum(counts).tolist()
    lattice = np.empty((3, ends[-1]))
    for row, coord in enumerate((u, v, w)):
        np.clip(np.broadcast_to(coord, w.shape)[keep], 0.0, None, out=lattice[row])
    return lattice, [slice(end - count, end) for end, count in zip(ends, counts)]


def brute_min_over_octahedron(
    state: M3NState, kind: DistanceKind, cfg: OracleConfig | None = None
) -> float:
    """Minimum distance from a triple-correlation state to the octahedron.

    Even n: the sigma_j^{xn} commute, and the octahedron's spectra (1 + S x) / 4
    are exactly the capped simplex {sum q = 1, 0 <= q_k <= 1/2}, so the
    minimum is the certified capped-simplex step (``_capped_simplex_min``)
    from p = (1 + S c) / 4, clipped at 0 (an entry that rounds to -6e-17 on a
    tetrahedron face would fail the candidate's feasibility check). ``cfg`` is
    not used.
    Odd n: the sigma_j^{xn} anticommute, so the trace distance is |c - x| / 2;
    only trace distance is supported, as in ``entanglement_m3n``. It is
    evaluated on a barycentric grid over all eight faces, and the grid then
    shrinks by a factor 4 per refinement round around the best point of every
    face that holds the least coarse value: two faces tie at a point of their
    shared edge, and the minimum may lie inside either. One lattice serves the
    eight coarse grids, and each round builds one lattice for all its windows
    (in chunks of CHUNK_ENTRIES entries at (resolution + 1)^2 a window), then
    scores each window with one distance call, so the scoring working set is
    one window's.
    Each distance comes from c and the separable triple alone, so the cost
    does not grow with n. Separable inputs return 0 (the state itself is
    feasible).
    """
    cfg = cfg or OracleConfig()
    odd = state.n % 2 == 1
    if odd and kind is not DistanceKind.TRACE:
        raise UnsupportedDistanceError(
            f"the octahedron oracle supports only trace distance at odd n, got {kind.value}"
        )
    if octahedron_excess(state.c) <= 0:
        return 0.0
    c = state.c.as_array()
    if not odd:
        return _capped_simplex_min(np.clip((1 + _even_signs(state.n) @ c) / 4, 0.0, None), kind)
    # the coarse lattice is the same on every face; a face's points are its signs times it
    lattice, _ = _face_windows([(0.5, 0.5)], 0.5, cfg.grid_resolution)
    faces = []  # [value, signs, barycentric (u, v, w) of the value's point]
    for signs in _FACES:
        vals = _odd_trace_distances(c, (lattice * signs[:, None]).T)
        g = int(np.argmin(vals))
        faces.append([float(vals[g]), signs, lattice[:, g].copy()])
    del lattice
    least = min(f[0] for f in faces)
    # each round shrinks the windows 4x around the tied faces' best points, in one build
    # for as many windows as fit CHUNK_ENTRIES; a face whose window is empty stops
    refining = [f for f in faces if f[0] == least]
    halfwidth, window_points = 0.5, (cfg.grid_resolution + 1) ** 2
    for _ in range(cfg.refine_rounds):
        if not refining:
            break
        halfwidth /= 4.0
        batches = [refining[chunk] for chunk in chunks(len(refining), window_points)]
        refining = []
        for batch in batches:
            lattice, windows = _face_windows([f[2][:2] for f in batch], halfwidth,
                                             cfg.grid_resolution)
            for face, window in zip(batch, windows):
                if window.start == window.stop:
                    continue
                vals = _odd_trace_distances(c, (lattice[:, window] * face[1][:, None]).T)
                g = int(np.argmin(vals))
                if vals[g] < face[0]:
                    face[0], face[2] = float(vals[g]), lattice[:, window.start + g].copy()
                refining.append(face)
            del lattice
    return min(f[0] for f in faces)


# -- the certified capped-simplex step, and the GHZ-diagonal oracle ---------------

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

    Trace distance is minimised directly, with the subgradient (1/2) sign(q - p),
    +1/2 at a tie, where any value in [-1/2, 1/2] is one; relative entropy
    directly too, with gradient -p / (q ln 2). Infidelity, squared Bures and
    squared Hellinger all decrease with the affinity sum sqrt(p q), so they
    minimise its negative, with gradient -sqrt(p / q) / 2. Entries of q are
    floored at 1e-14, except for trace distance, and entries where p is 0 are 0.
    """
    if kind is DistanceKind.TRACE:
        return np.where(q >= p, 0.5, -0.5)
    qs = np.maximum(q, 1e-14)
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return np.where(p > 0, -p / (qs * math.log(2)), 0.0)
    return 0.5 * np.where(p > 0, -np.sqrt(p / qs), 0.0)


def _capped_simplex_min(p: np.ndarray, kind: DistanceKind) -> float:
    """Minimum classical distance from a spectrum p with p_max > 1/2 to the capped
    simplex {sum q = 1, 0 <= q_k <= 1/2}, certified.

    Every distance is minimised through a convex function of q: trace
    distance and relative entropy themselves, or the affinity for the
    fidelity-based kinds. The KKT point min(1/2, t p) is the minimiser, and it
    is checked from p, the (sub)gradient and the feasible set alone: its
    entries must lie in [0, 1/2] and sum to 1 within 1e-12, and its
    Frank-Wolfe gap, which bounds its distance above the minimum, must be at
    most 1e-12. A failed check is a fault and raises ``EntboundError``.
    """
    q = _analytic_candidate(p)
    gap = _fw_gap(q, _surrogate_gradient(p, q, kind))
    if q.min() < 0 or q.max() > 0.5 or abs(q.sum() - 1) > _SUM_TOL or gap > _GAP_TOL:
        raise EntboundError(
            f"the oracle's capped-simplex candidate is not certified: entries in "
            f"[{q.min():.3g}, {q.max():.3g}], sum {q.sum():.17g}, Frank-Wolfe gap {gap:.3g}"
        )
    return classical_distance(p, q, kind)


def brute_min_biseparable_ghz(state: GHZDiagonalState, kind: DistanceKind) -> float:
    """Minimum classical distance from a GHZ spectrum to the biseparable set.

    The biseparable GHZ-diagonal spectra are exactly those with every entry
    at most 1/2, the capped simplex. A spectrum inside it returns 0;
    otherwise the minimum is the certified step ``_capped_simplex_min``.
    """
    p = state.flat()
    if p.max() <= 0.5 + 1e-15:
        return 0.0
    return _capped_simplex_min(p, kind)


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
