"""The even-n octahedron oracle's certified step never lies above the grid it replaced.

At even n the oracle minimises over the capped simplex in one certified step
instead of refining a grid over the octahedron's faces. Every grid value is a
distance to a feasible separable state, so it bounds the minimum from above.
These tests compare the certified value with ``oracle_reference``'s loop,
which refines every face, on seeded triples: random ones, ones on or near a
tetrahedron face, ones near an edge between two faces, and the benchmark's
n=4 triples.
"""

import numpy as np
import pytest

from conftest import random_m3n_outside_octahedron
from entbound.errors import ParameterError, StateValidityError
from entbound.measures import (
    _SUPPORT_TOL,
    ALL_DISTANCES,
    DistanceKind,
    SeparabilityLevel,
    entanglement_m3n,
    octahedron_excess,
)
from entbound.oracle import OracleConfig, brute_min_over_octahedron
from entbound.qstate import CorrelationTriple, M3NState, _even_signs
from oracle_reference import refine_every_face, refined_faces

#: the variant-0 n=4 triples of the benchmark's oracle-check workload; the
#: squared-Bures one is its KNOWN_ORACLE_MISSES triple
CATALOG_N4 = [
    (0.537799, -0.42312, -0.884021),
    (-0.68798, -0.361814, 0.345884),
    (0.429044, 0.21591, 0.507779),
    (-0.511822, 0.935388, -0.447535),
    (-0.441524, 0.444112, -0.753098),
]


def _state(n, c, min_excess=0.01):
    try:
        state = M3NState(n, CorrelationTriple(*c))
    except (ParameterError, StateValidityError):  # an entry above 1, or outside the tetrahedron
        return None
    return state if octahedron_excess(state.c) > min_excess else None


def _with_a_small_entry(n, rng):
    """A triple outside the octahedron with |c_j| < 0.03 for one j.

    At even n a valid triple with c_j = 0 lies inside the octahedron, so a small
    entry stands in for it: the closest separable state then lies near the edge
    c_j = 0 between two faces whose minima nearly tie.
    """
    while True:
        c = rng.uniform(-1, 1, 3)
        c[rng.integers(3)] = rng.uniform(-0.03, 0.03)
        state = _state(n, c, min_excess=0.0)
        if state is not None:
            return state


def _on_tetrahedron_face(n, rng):
    """A dyadic triple outside the octahedron with one spectral entry exactly 0."""
    s = _even_signs(n)
    while True:
        c = np.round(rng.uniform(-1, 1, 3) * 1024) / 1024
        k, j = rng.integers(4), rng.integers(3)
        # 1 + s_k . c = 0, solved for c_j; dyadic, so exact
        c[j] = s[k, j] * (-1 - (s[k] @ c - s[k, j] * c[j]))
        state = _state(n, c)
        if state is not None:
            assert 1 + s[k] @ c == 0
            return state, s[k]


def _triples(n, rng):
    """Random triples, triples on or within 1e-13 of a tetrahedron face (a spectral
    entry 0, or between 0 and _SUPPORT_TOL), triples with a small entry, and the
    benchmark's n=4 triples where they are states at this n."""
    states = [random_m3n_outside_octahedron(n, rng) for _ in range(3)]
    for _ in range(3):
        state, row = _on_tetrahedron_face(n, rng)
        states.append(state)
        for shift in (4e-14, 1e-13, -1e-13):  # -1e-13: just outside, within _TRIPLE_TOL
            states.append(_state(n, state.c.as_array() + shift / 3 * row))
    states += [_with_a_small_entry(n, rng) for _ in range(3)]
    states += [_with_an_edge_best_point(n, rng)[0] for _ in range(2)]
    states += [_state(n, c) for c in CATALOG_N4]
    return [state for state in states if state is not None]


#: the kinds whose gradient is infinite where q_k = 0 < p_k and whose value is finite there
AFFINITY_KINDS = (DistanceKind.INFIDELITY, DistanceKind.SQUARED_BURES,
                  DistanceKind.SQUARED_HELLINGER)


def _edge_faces(state, kind, faces):
    """Which faces' best points lie on an edge where a spectral entry q_k is 0 and p_k is
    not, off the face with signs -s_k (on which q_k is 0 throughout)."""
    s = _even_signs(state.n)
    p = (1 + s @ state.c.as_array()) / 4
    signs = np.array([f[1] for f in faces])
    q = np.clip(0.25 + (signs * np.array([f[2] for f in faces])) @ (s / 4).T, 0.0, None)
    return ((q == 0) & (p > 0) & (signs @ s.T != -3)).any(axis=1)


def _with_an_edge_best_point(n, rng):
    """A triple outside the octahedron, and an affinity kind, for which a face's coarse
    best point lies on an edge where a spectral entry vanishes (a gradient entry is
    infinite there); about one random triple in twenty has one."""
    while True:
        state = random_m3n_outside_octahedron(n, rng)
        for kind in AFFINITY_KINDS:
            if _edge_faces(state, kind, refined_faces(state, kind, OracleConfig(24, 0))).any():
                return state, kind


@pytest.mark.parametrize("n", [2, 4, 6])
def test_certified_value_never_lies_above_the_refined_grid(n, rng):
    # every grid value is a distance to a feasible state, so the certified minimum lies
    # at or below it, and on the closed form. One exception of the kernel: relative
    # entropy drops an entry 0 < p_k <= _SUPPORT_TOL where q_k <= 1e-12, so on a triple
    # within 1e-13 of a tetrahedron face a grid point with q_k = 0 undercuts the exact
    # minimum (by 1.4e-14 on one of these triples); there the grid bound takes 1e-12
    level = SeparabilityLevel(m=n)
    calls = 0
    for state in _triples(n, rng):
        p = (1 + _even_signs(n) @ state.c.as_array()) / 4
        dropped = bool(np.any((p > 0) & (p <= _SUPPORT_TOL)))
        for kind in ALL_DISTANCES:
            slack = 1e-12 if dropped and kind is DistanceKind.RELATIVE_ENTROPY else 1e-15
            closed_form = entanglement_m3n(state, level, kind).value
            for _ in range(2):
                cfg = OracleConfig(int(rng.integers(4, 61)), int(rng.integers(0, 7)))
                got = brute_min_over_octahedron(state, kind, cfg)
                assert got <= refine_every_face(state, kind, cfg) + slack, (state.c, kind, cfg)
                assert abs(got - closed_form) <= 1e-12, (state.c, kind)
                calls += 1
    assert calls >= 140
