"""The octahedron oracle's working set and memory layout.

It keeps its working set to a few MB at grid resolution 60. At odd n it
builds its grid entry-major with the same bits as the row-major grid it
replaced: one lattice per round for every face window the round scores, in
chunks. At even n it takes one certified step and builds no grid.
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
    octahedron_excess,
)
from entbound.oracle import OracleConfig, brute_min_over_octahedron
from entbound.qstate import CorrelationTriple, M3NState


@pytest.mark.parametrize("n", [4, 12])
def test_octahedron_oracle_working_set_is_bounded(n):
    # the certified step holds a few four-entry spectra at any n; at n=12 one dense
    # 4096 x 4096 complex matrix alone would be 256 MB
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


def row_major_oracle(state, cfg):
    """The odd-n octahedron oracle with every grid held row-major, (points, entries)."""
    if octahedron_excess(state.c) <= 0:
        return 0.0
    c = state.c.as_array()

    def distances(pts):
        diff = pts - c
        return 0.5 * np.sqrt(np.sum(diff * diff, axis=1))

    minima = []
    for signs in oracle._FACES:
        pts, bary = row_major_face_points(signs, (0.5, 0.5), 0.5, cfg.grid_resolution)
        vals = distances(pts)
        g = int(np.argmin(vals))
        minima.append((float(vals[g]), signs, bary[g]))
    least = min(m[0] for m in minima)
    best = []
    for val, signs, bary in (m for m in minima if m[0] == least):
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


def _odd(state, cfg):
    """The octahedron oracle's trace-distance value at odd n."""
    return brute_min_over_octahedron(state, DistanceKind.TRACE, cfg)


@pytest.mark.parametrize("n", range(3, 20, 2))
def test_oracle_equals_row_major_oracle_bit_for_bit(n, rng):
    for resolution, rounds in itertools.product([4, 9, 24, 60], range(4)):
        state = random_m3n_outside_octahedron(n, rng)
        cfg = OracleConfig(resolution, rounds)
        assert _odd(state, cfg) == row_major_oracle(state, cfg)


#: odd-n triples whose coarse minimum two faces share: the first ties at resolutions
#: 40 and 60 on an edge point, and c3 = 0 makes the second's faces (+,+,+) and (+,+,-)
#: mirror images, tied at every resolution
TIED_FACES = [(-0.201255, 0.799276, -0.014865), (0.6, 0.7, 0.0)]


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("resolution, rounds", [(60, 3), (24, 1), (4, 0)])
def test_oracle_equals_row_major_oracle_on_tied_faces(n, resolution, rounds):
    cfg = OracleConfig(resolution, rounds)
    for c in TIED_FACES:
        state = M3NState(n, CorrelationTriple(*c))
        assert _odd(state, cfg) == row_major_oracle(state, cfg)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
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
    configs = [OracleConfig(8, oracle.MAX_REFINE_ROUNDS), OracleConfig(24, 13), OracleConfig(7, 6)]
    for state, cfg in itertools.product(states, configs):
        assert _odd(state, cfg) == row_major_oracle(state, cfg)


def test_one_lattice_build_per_round(monkeypatch, rng):
    # the coarse lattice serves all eight faces; each round then builds the windows of
    # every face tied at the least coarse value at once, and at even n no lattice is built
    builds = _layout_guard(monkeypatch, oracle, "_face_windows", 0, len)
    cfg = OracleConfig()
    for n in (3, 5):
        builds.clear()
        _odd(random_m3n_outside_octahedron(n, rng), cfg)
        assert builds == [1] * (1 + cfg.refine_rounds)
    for c in TIED_FACES:
        builds.clear()
        _odd(M3NState(5, CorrelationTriple(*c)), OracleConfig(40, 3))
        assert builds == [1, 2, 2, 2]
    builds.clear()
    for n, kind in [(4, DistanceKind.RELATIVE_ENTROPY), (6, DistanceKind.TRACE)]:
        brute_min_over_octahedron(random_m3n_outside_octahedron(n, rng), kind, cfg)
    assert builds == []


def test_lattice_builds_run_in_chunks(monkeypatch):
    # a build holds as many windows as fit CHUNK_ENTRIES at (resolution + 1)^2 a
    # window; on this n=3 triple with c3 = 0 the faces (+,+,+) and (+,+,-) are mirror
    # images, so both hold the least value in every round
    builds = _layout_guard(monkeypatch, oracle, "_face_windows", 0, len)
    cfg = OracleConfig(24, 2)
    state = M3NState(3, CorrelationTriple(*TIED_FACES[1]))
    want = _odd(state, cfg)
    assert builds == [1, 2, 2]
    for per_build, batches in [(1, [1, 1]), (2, [2]), (8, [2])]:
        monkeypatch.setattr(_linalg, "CHUNK_ENTRIES", per_build * 25**2)
        builds.clear()
        assert _odd(state, cfg) == want
        assert builds == [1] + batches * cfg.refine_rounds


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_oracle_equals_row_major_oracle_near_face_edges(n):
    # the closest face point of a triple with a zero or tiny entry lies on an edge of
    # its face, so the refinement windows around it cross that edge and the grid
    # filter cuts them
    states = [M3NState(n, CorrelationTriple(*c)) for small in (0.0, 1e-13, 0.01)
              for c in ([small, 0.7, 0.7], [-0.79, small, -0.6], [0.7, 0.6, small])]
    for state in states:
        for cfg in (OracleConfig(60, 3), OracleConfig(7, 3)):
            assert _odd(state, cfg) == row_major_oracle(state, cfg)


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
    # odd-n grid points (N, 3) and draws (N, 3) hold their last axis slowest in memory
    def last_slowest(a):
        return a.T.flags.c_contiguous

    points = _layout_guard(monkeypatch, oracle, "_odd_trace_distances", 1, last_slowest)
    draws = _layout_guard(monkeypatch, estimate, "_bound_values", 0, last_slowest)
    cfg = OracleConfig(24, 2)
    for n in (3, 5, 7):
        _odd(random_m3n_outside_octahedron(n, rng), cfg)
    _odd(M3NState(3, CorrelationTriple(*TIED_FACES[1])), cfg)
    for n in (4, 5):
        bound_with_uncertainty(_bootstrapped_estimate(n, rng), n, SeparabilityLevel(m=n),
                               DistanceKind.TRACE)
    assert len(points) >= 4 * 8 + 2 * 2 and all(points)
    assert draws == [True, True]
