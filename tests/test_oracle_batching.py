"""The octahedron oracle evaluates its grid in fixed-size batches."""

import tracemalloc

import numpy as np

from conftest import random_m3n_inside_tetra
from entbound.measures import ALL_DISTANCES, DistanceKind
from entbound.oracle import (
    OracleConfig,
    _batch_distance,
    _batch_m3n,
    _face_points,
    _grid_distances,
    brute_min_over_octahedron,
)
from entbound.qstate import CorrelationTriple, M3NState, m3n_density


def test_grid_batches_match_one_batch(rng):
    # batching the grid through reused work arrays leaves every distance
    # bit-identical to one batch over all points, and the batch unmodified
    pts, _ = _face_points((1, -1, 1), (0.5, 0.5), 0.5, 12)
    for n in (2, 3, 4):
        rho = np.array(m3n_density(random_m3n_inside_tetra(n, rng)).rho)
        batch = _batch_m3n(pts, n)
        for kind in ALL_DISTANCES:
            want = _batch_distance(rho, batch, kind)
            for step in (1, 5, pts.shape[0]):
                work = np.empty((3, step) + rho.shape, dtype=complex)
                assert np.array_equal(_grid_distances(rho, pts, n, kind, work), want)
        assert np.array_equal(batch, _batch_m3n(pts, n))


def test_octahedron_oracle_working_set_is_bounded():
    # the n=4 grid at resolution 60 holds 1891 points a face; one batch of
    # them took about 31 MB of arrays, the reused work arrays take a few MB
    state = M3NState(4, CorrelationTriple(-0.441524, 0.444112, -0.753098))
    cfg = OracleConfig(grid_resolution=60, refine_rounds=0)
    tracemalloc.start()
    try:
        brute_min_over_octahedron(state, DistanceKind.SQUARED_HELLINGER, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
