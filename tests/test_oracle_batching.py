"""The octahedron oracle keeps its working set to a few MB at grid resolution 60."""

import tracemalloc

from entbound.measures import DistanceKind
from entbound.oracle import OracleConfig, brute_min_over_octahedron
from entbound.qstate import CorrelationTriple, M3NState


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


def test_odd_octahedron_oracle_working_set_is_bounded():
    # at n=5 a face of 1891 grid states is 1891 x 16 pair blocks of 2x2,
    # about 2 MB; as dense 32x32 matrices it would be 31 MB
    state = M3NState(5, CorrelationTriple(-0.695964, -0.320874, -0.547274))
    cfg = OracleConfig(grid_resolution=60, refine_rounds=0)
    tracemalloc.start()
    try:
        brute_min_over_octahedron(state, DistanceKind.TRACE, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
