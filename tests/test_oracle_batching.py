"""The octahedron oracle keeps its working set to a few MB at grid resolution 60."""

import tracemalloc

import pytest

from entbound.measures import DistanceKind
from entbound.oracle import OracleConfig, brute_min_over_octahedron
from entbound.qstate import CorrelationTriple, M3NState


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
    # a face of 1891 grid states is 1891 x 2 merged pair blocks of 2x2 at any
    # n; as dense 32 x 32 matrices at n=5 it would be 31 MB
    state = M3NState(n, CorrelationTriple(-0.695964, -0.320874, -0.547274))
    cfg = OracleConfig(grid_resolution=60, refine_rounds=0)
    tracemalloc.start()
    try:
        brute_min_over_octahedron(state, DistanceKind.TRACE, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
