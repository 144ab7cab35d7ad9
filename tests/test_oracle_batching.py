"""The octahedron oracle's working set and memory layout.

It keeps its working set to a few MB at grid resolution 60, and it builds its
grid entry-major with the same bits as the row-major grid it replaced: one
lattice per round for every face window the round scores, in chunks.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import random_m3n_outside_octahedron
from entbound import _linalg, estimate, oracle
from entbound.errors import StateValidityError
from entbound.estimate import TripleEstimate, bound_with_uncertainty
from entbound.measures import (
    ALL_DISTANCES,
    DistanceKind,
    SeparabilityLevel,
    _bound_values,
    classical_distance,
    octahedron_excess,
)
from entbound.oracle import OracleConfig, brute_min_over_octahedron
from entbound.qstate import CorrelationTriple, M3NState, _even_signs


@pytest.mark.parametrize("n", [4, 12])
def test_octahedron_oracle_working_set_is_bounded(n):
    # the n=4 grid at resolution 60 holds 1891 points a face; one batch of
    # them took about 31 MB of arrays, the reused work arrays take a few MB.
    # At n=12 one dense 4096 x 4096 complex matrix alone would be 256 MB.
    state = M3NState(n, CorrelationTriple(-0.441524, 0.444112, -0.753098))
    cfg = OracleConfig(grid_resolution=60, refine_rounds=0)
    tracemalloc.start()
    try:
        brute_min_over_octahedron(state, DistanceKind.SQUARED_HELLINGER, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [5, 11])
def test_odd_octahedron_oracle_working_set_is_bounded(n):
    # a face of 1891 grid states is 1891 triples at any n; as dense 32 x 32
    # matrices at n=5 it would be 31 MB
    state = M3NState(n, CorrelationTriple(-0.695964, -0.320874, -0.547274))
    cfg = OracleConfig(grid_resolution=60, refine_rounds=0)
    tracemalloc.start()
    try:
        brute_min_over_octahedron(state, DistanceKind.TRACE, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- entry-major grids ----------------------------------------------------------

def row_major_face_points(signs, center, halfwidth, resolution):
    """The face grid as the oracle once built it: filtered meshgrid, (N, 3) rows."""
    steps = np.linspace(0.0, 1.0, resolution + 1)
    u = center[0] - halfwidth + 2 * halfwidth * steps
    v = center[1] - halfwidth + 2 * halfwidth * steps
    uu, vv = np.meshgrid(u, v, indexing="ij")
    uu, vv = uu.reshape(-1), vv.reshape(-1)
    ww = 1.0 - uu - vv
    keep = (uu >= -1e-12) & (vv >= -1e-12) & (ww >= -1e-12)
    uu, vv, ww = (np.clip(x[keep], 0.0, None) for x in (uu, vv, ww))
    verts = np.diag(np.asarray(signs, dtype=float))
    return np.stack([uu, vv, ww], axis=1) @ verts, np.stack([uu, vv], axis=1)


def row_major_oracle(state, kind, cfg):
    """The octahedron oracle with every grid held row-major, (points, entries)."""
    if octahedron_excess(state.c) <= 0:
        return 0.0
    odd = state.n % 2 == 1
    c = state.c.as_array()
    if odd:
        def distances(pts):
            diff = pts - c
            return 0.5 * np.sqrt(np.sum(diff * diff, axis=1))
    else:
        s = _even_signs(state.n)
        p, quarter = (1 + s @ c) / 4, s / 4

        def distances(pts):
            return classical_distance(p, 0.25 + pts @ quarter.T, kind)

    minima = []
    for signs in oracle._FACES:
        pts, bary = row_major_face_points(signs, (0.5, 0.5), 0.5, cfg.grid_resolution)
        vals = distances(pts)
        g = int(np.argmin(vals))
        minima.append((float(vals[g]), signs, bary[g]))
    if odd:
        minima = [min(minima, key=lambda m: m[0])]
    best = []
    for val, signs, bary in minima:
        halfwidth = 0.5
        for _ in range(cfg.refine_rounds):
            halfwidth /= 4.0
            pts, grid = row_major_face_points(signs, bary, halfwidth, cfg.grid_resolution)
            if pts.shape[0] == 0:
                break
            vals = distances(pts)
            g = int(np.argmin(vals))
            if vals[g] < val:
                val, bary = float(vals[g]), grid[g]
        best.append(val)
    return min(best)


@pytest.mark.parametrize(
    "center, halfwidth",
    [((0.5, 0.5), 0.5), ((0.0, 0.0), 0.125), ((0.0, 0.7), 0.125), ((0.6, 0.4), 0.125),
     ((1.0, 0.0), 0.03125), ((0.3, 0.3), 0.0078125), ((0.999, 0.0), 0.001)],
)
@pytest.mark.parametrize("resolution", [4, 7, 60])
def test_face_points_match_the_row_major_grid(center, halfwidth, resolution):
    # windows around a corner, across the u = 0 and w = 0 edges, and inside the face,
    # built in one lattice with windows at the face's corners, its middle and outside it
    centers = [(1.0, 0.0), center, (2.0, 2.0), (0.0, 1.0), (0.5, 0.5), (0.0, 0.0)]
    lattice, windows = oracle._face_windows(centers, halfwidth, resolution)
    assert lattice.shape[0] == 3 and lattice.flags.c_contiguous
    assert [w.start for w in windows] == [0] + [w.stop for w in windows[:-1]]
    assert windows[-1].stop == lattice.shape[1]
    assert windows[2].start == windows[2].stop
    for c, window in zip(centers, windows):
        for signs in oracle._FACES:
            pts = (lattice[:, window] * signs[:, None]).T
            want_pts, want_bary = row_major_face_points(signs, c, halfwidth, resolution)
            assert np.array_equal(pts, want_pts)
            assert np.array_equal(lattice[:2, window].T, want_bary)


def _oracle_cases(n, rng):
    kinds = ALL_DISTANCES if n % 2 == 0 else (DistanceKind.TRACE,)
    settings = itertools.cycle(itertools.product([4, 9, 24, 60], range(4)))
    for kind in kinds:
        for _ in range(4):
            resolution, rounds = next(settings)
            state = random_m3n_outside_octahedron(n, rng)
            yield state, kind, OracleConfig(resolution, rounds)


@pytest.mark.parametrize("n", range(2, 11))
def test_oracle_equals_row_major_oracle_bit_for_bit(n, rng):
    for state, kind, cfg in _oracle_cases(n, rng):
        assert brute_min_over_octahedron(state, kind, cfg) == row_major_oracle(state, kind, cfg)


#: the triple on which the squared-Bures oracle once missed the closed form
KNOWN_MISS = (-0.511822, 0.935388, -0.447535)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("resolution, rounds", [(60, 3), (24, 1), (4, 0)])
def test_oracle_equals_row_major_oracle_on_a_known_miss(n, resolution, rounds):
    state = M3NState(n, CorrelationTriple(*KNOWN_MISS))
    cfg = OracleConfig(resolution, rounds)
    for kind in ALL_DISTANCES:
        assert brute_min_over_octahedron(state, kind, cfg) == row_major_oracle(state, kind, cfg)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_oracle_equals_row_major_oracle_to_the_last_round(n, rng):
    # refinement down to MAX_REFINE_ROUNDS, with best points at a corner or on an edge
    # of their face, so the windows are clipped by one or two of the face's edges. A
    # deep window at a corner holds points up to 1e-12 outside the face, which both
    # grids clip onto it
    triples = [(0.98, 0.02, 0.02), (0.3, 0.3, 0.9), (0.6, 0.0, 0.6), (0.2, -0.2, 1.0)]
    states = [random_m3n_outside_octahedron(n, rng) for _ in range(2)]
    for c in triples:
        try:
            states.append(M3NState(n, CorrelationTriple(*c)))
        except StateValidityError:
            pass
    kinds = ALL_DISTANCES if n % 2 == 0 else (DistanceKind.TRACE,)
    configs = [OracleConfig(8, oracle.MAX_REFINE_ROUNDS), OracleConfig(24, 13), OracleConfig(7, 6)]
    for state, kind, cfg in itertools.product(states, kinds, configs):
        assert brute_min_over_octahedron(state, kind, cfg) == row_major_oracle(state, kind, cfg)


def _kept_faces(monkeypatch):
    """Record, per round, how many faces the floors leave to refine."""
    inner = oracle._face_floors
    kept = []

    def recorded(p, s, kind, faces):
        floors = inner(p, s, kind, faces)
        incumbent = min(f[0] for f in faces)  # the incumbent's face is among them
        kept.append(int(np.sum(~(floors > incumbent))))
        return floors

    monkeypatch.setattr(oracle, "_face_floors", recorded)
    return kept


def test_one_lattice_build_per_round(monkeypatch, rng):
    # the coarse lattice serves all eight faces; each round then builds every window
    # it refines at once: at even n those of the faces whose floor does not lie above
    # the least value so far, at odd n the incumbent's
    builds = _layout_guard(monkeypatch, oracle, "_face_windows", 0, len)
    kept = _kept_faces(monkeypatch)
    cfg = OracleConfig()
    for n, kind in [(4, DistanceKind.RELATIVE_ENTROPY), (6, DistanceKind.TRACE)]:
        builds.clear()
        kept.clear()
        brute_min_over_octahedron(random_m3n_outside_octahedron(n, rng), kind, cfg)
        assert len(kept) == cfg.refine_rounds and max(kept) < 8
        assert builds == [1] + kept
    # the benchmark's n=4 relative-entropy triple refines one face a round; on its
    # squared-Bures miss, whose faces' best points lie on edges where a spectral entry
    # vanishes, the floors taken just inside those faces leave two
    re_triple = (0.537799, -0.42312, -0.884021)
    for c, kind, want in [(re_triple, DistanceKind.RELATIVE_ENTROPY, [1, 1, 1]),
                          (KNOWN_MISS, DistanceKind.SQUARED_BURES, [2, 2, 2])]:
        builds.clear()
        brute_min_over_octahedron(M3NState(4, CorrelationTriple(*c)), kind, OracleConfig(40, 3))
        assert builds == [1] + want
    for n in (3, 5):
        builds.clear()
        brute_min_over_octahedron(random_m3n_outside_octahedron(n, rng), DistanceKind.TRACE, cfg)
        assert builds == [1] * (1 + cfg.refine_rounds)


def test_lattice_builds_run_in_chunks(monkeypatch):
    # a build holds as many windows as fit CHUNK_ENTRIES at (resolution + 1)^2 a
    # window; on this n=2 triple the four faces that share the vertex e_3 all find
    # their best point there, with one value, so all four survive each round
    builds = _layout_guard(monkeypatch, oracle, "_face_windows", 0, len)
    cfg = OracleConfig(24, 2)
    state = M3NState(2, CorrelationTriple(0.2, -0.2, 1.0))
    want = brute_min_over_octahedron(state, DistanceKind.INFIDELITY, cfg)
    assert builds == [1, 4, 4]
    for per_build, batches in [(3, [3, 1]), (2, [2, 2]), (1, [1] * 4), (8, [4])]:
        monkeypatch.setattr(_linalg, "CHUNK_ENTRIES", per_build * 25**2)
        builds.clear()
        assert brute_min_over_octahedron(state, DistanceKind.INFIDELITY, cfg) == want
        assert builds == [1] + batches * cfg.refine_rounds


def _on_tetrahedron_boundary(n, rng):
    """A triple outside the octahedron scaled out to the even-n tetrahedron's boundary."""
    c = random_m3n_outside_octahedron(n, rng).c.as_array()
    lo, hi = 1.0, 1.0 / np.abs(c).max()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            M3NState(n, CorrelationTriple(*(mid * c)))
            lo = mid
        except StateValidityError:
            hi = mid
    return M3NState(n, CorrelationTriple(*(lo * c)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_oracle_equals_row_major_oracle_near_face_edges(n, rng):
    # the closest face point of a triple on the tetrahedron's boundary (even n),
    # or of one with a zero or tiny entry (odd n), lies on an edge of its face, so
    # the refinement windows around it cross that edge and the grid filter cuts them
    if n % 2:
        kinds = (DistanceKind.TRACE,)
        states = [M3NState(n, CorrelationTriple(*c)) for small in (0.0, 1e-13, 0.01)
                  for c in ([small, 0.7, 0.7], [-0.79, small, -0.6], [0.7, 0.6, small])]
    else:
        kinds = ALL_DISTANCES
        states = [_on_tetrahedron_boundary(n, rng) for _ in range(3)]
    for state, kind in itertools.product(states, kinds):
        for cfg in (OracleConfig(60, 3), OracleConfig(7, 3)):
            assert brute_min_over_octahedron(state, kind, cfg) == row_major_oracle(state, kind, cfg)


def _row_major_bootstrap(est, n, level, kind, seed):
    rng = np.random.default_rng(seed)
    samples = rng.normal(est.c.as_array(), est.sigma, size=(estimate._BOOTSTRAP_SAMPLES, 3))
    return float(np.std(_bound_values(np.clip(samples, -1.0, 1.0), n, level, kind), ddof=1))


def _bootstrapped_estimate(n, rng):
    """A triple outside the octahedron with errors wide enough to need the bootstrap."""
    while True:
        c = random_m3n_outside_octahedron(n, rng).c
        est = TripleEstimate(c, tuple(rng.uniform(0.02, 0.4, 3)))
        if estimate._needs_bootstrap_triple(est, n):
            return est


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_bootstrap_equals_row_major_bootstrap(n, rng):
    kinds = ALL_DISTANCES if n % 2 == 0 else (DistanceKind.TRACE,)
    level = SeparabilityLevel(m=n)
    for seed, kind in enumerate(kinds):
        for _ in range(2):
            est = _bootstrapped_estimate(n, rng)
            report = bound_with_uncertainty(est, n, level, kind, seed=seed)
            assert report.meta["method"] == "bootstrap"
            assert report.uncertainty == _row_major_bootstrap(est, n, level, kind, seed)


def _layout_guard(monkeypatch, module, name, arg, probe):
    """Wrap ``module.name`` to record ``probe`` of its positional argument ``arg``."""
    inner = getattr(module, name)
    seen = []

    def guarded(*args):
        seen.append(probe(args[arg]))
        return inner(*args)

    monkeypatch.setattr(module, name, guarded)
    return seen


def test_grids_and_draws_reach_the_kernels_entry_major(monkeypatch, rng):
    # spectra (N, 4), odd-n grid points (N, 3) and draws (N, 3) hold their last
    # axis slowest in memory
    def last_slowest(a):
        return a.T.flags.c_contiguous

    spectra = _layout_guard(monkeypatch, oracle, "classical_distance", 1, last_slowest)
    points = _layout_guard(monkeypatch, oracle, "_odd_trace_distances", 1, last_slowest)
    draws = _layout_guard(monkeypatch, estimate, "_bound_values", 0, last_slowest)
    cfg = OracleConfig(24, 2)
    for kind in ALL_DISTANCES:
        brute_min_over_octahedron(random_m3n_outside_octahedron(4, rng), kind, cfg)
    brute_min_over_octahedron(random_m3n_outside_octahedron(5, rng), DistanceKind.TRACE, cfg)
    for n in (4, 5):
        bound_with_uncertainty(_bootstrapped_estimate(n, rng), n, SeparabilityLevel(m=n),
                               DistanceKind.TRACE)
    assert len(spectra) >= 5 * 8 and all(spectra)
    assert len(points) >= 8 and all(points)
    assert draws == [True, True]
