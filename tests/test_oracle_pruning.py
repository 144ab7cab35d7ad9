"""The even-n octahedron oracle refines only the faces that can still hold the minimum.

Every distance is convex in the separable triple, so a face's best point and
the gradient there give a floor under every value the grid can score on that
face; a face whose floor lies above the least value so far is not refined.
These tests check that the floors hold for the values the kernel computes and
that the pruned oracle returns the float of the loop that refines every face.
"""

import itertools

import numpy as np
import pytest

from conftest import random_m3n_outside_octahedron
from entbound import oracle
from entbound.errors import ParameterError, StateValidityError
from entbound.measures import (
    _SUPPORT_TOL,
    ALL_DISTANCES,
    DistanceKind,
    SeparabilityLevel,
    classical_distance,
    entanglement_m3n,
    octahedron_excess,
)
from entbound.oracle import OracleConfig, brute_min_over_octahedron
from entbound.qstate import CorrelationTriple, M3NState, _even_signs
from m3n_constructions import closest_separable_even
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
def test_pruned_oracle_equals_refine_every_face_bit_for_bit(n, rng):
    calls = 0
    for state in _triples(n, rng):
        for kind in ALL_DISTANCES:
            for _ in range(2):
                cfg = OracleConfig(int(rng.integers(4, 61)), int(rng.integers(0, 7)))
                want = refine_every_face(state, kind, cfg)
                assert brute_min_over_octahedron(state, kind, cfg) == want, (state.c, kind, cfg)
                calls += 1
    assert calls >= 140


def _coarse_points(state, kind, resolution):
    """[kernel value, signs, barycentric point] of every coarse grid point of every face."""
    s = _even_signs(state.n)
    p = (1 + s @ state.c.as_array()) / 4
    lattice, _ = oracle._face_windows([(0.5, 0.5)], 0.5, resolution)
    points = []
    for signs in oracle._FACES:
        pts = (lattice * signs[:, None]).T
        vals = classical_distance(p, (0.25 + (s / 4) @ pts.T).T, kind)
        points += [[float(v), signs, b] for v, b in zip(vals, lattice.T)]
    return p, s, points


@pytest.mark.parametrize("kind", ALL_DISTANCES, ids=lambda k: k.value)
def test_face_floors_lie_below_the_fine_grid_and_the_closed_form(kind, rng):
    for n in (2, 4, 6):
        states = [random_m3n_outside_octahedron(n, rng) for _ in range(2)]
        states += [_on_tetrahedron_face(n, rng)[0], _with_a_small_entry(n, rng),
                   _with_an_edge_best_point(n, rng)[0]]
        for state in states:
            p, s, points = _coarse_points(state, kind, 8)
            floors = oracle._face_floors(p, s, kind, points).reshape(8, -1)
            fine = refined_faces(state, kind, OracleConfig(200, 2))
            for face_floors, face in zip(floors, fine):
                assert face_floors.max() <= face[0], (n, state.c, face[1])
            # the face that holds the closest separable state reaches the closed form
            level = SeparabilityLevel(m=n)
            closest = closest_separable_even(state, level).c.as_array()
            signs = np.where(state.c.as_array() >= 0, 1.0, -1.0)
            assert np.all(closest * signs >= 0)
            face = next(i for i, f in enumerate(oracle._FACES) if np.array_equal(f, signs))
            assert floors[face].max() <= entanglement_m3n(state, level, kind).value


def test_edge_best_points_take_finite_floors_below_the_fine_grid(rng):
    # a face whose best point lies on an edge where q_k = 0 < p_k has an infinite
    # gradient there; its floor, taken just inside the face, is finite and still lies
    # below the face's fine-grid minimum and, on the closest face, below the closed form
    cases = [(M3NState(4, CorrelationTriple(*CATALOG_N4[3])), DistanceKind.SQUARED_BURES)]
    cases += [_with_an_edge_best_point(n, rng) for n in (2, 4, 6) for _ in range(3)]
    edges = 0
    for state, kind in cases:
        s = _even_signs(state.n)
        p = (1 + s @ state.c.as_array()) / 4
        fine = refined_faces(state, kind, OracleConfig(200, 2))
        closest = tuple(np.where(state.c.as_array() >= 0, 1.0, -1.0))
        value = entanglement_m3n(state, SeparabilityLevel(m=state.n), kind).value
        for rounds in range(3):
            faces = refined_faces(state, kind, OracleConfig(24, rounds))
            on_edge = _edge_faces(state, kind, faces)
            floors = oracle._face_floors(p, s, kind, faces)
            assert np.all(np.isfinite(floors[on_edge])), (state.c, kind, rounds)
            for face, floor, refined in zip(faces, floors, fine):
                assert floor <= refined[0], (state.c, kind, face[1])
                if tuple(face[1]) == closest:
                    assert floor <= value
            edges += int(on_edge.sum())
    assert edges >= 20


@pytest.mark.parametrize("kind", ALL_DISTANCES, ids=lambda k: k.value)
def test_the_closest_face_is_never_pruned(kind, monkeypatch, rng):
    # in every round the face holding the closest separable state is handed to the
    # floors, and its floor lies at or below the value the oracle returns, so at or
    # below the least value of every round
    seen = []
    inner = oracle._face_floors

    def recorded(p, s, kind, faces):
        floors = inner(p, s, kind, faces)
        seen.append({tuple(f[1]): floor for f, floor in zip(faces, floors.tolist())})
        return floors

    monkeypatch.setattr(oracle, "_face_floors", recorded)
    for n, state in [(n, random_m3n_outside_octahedron(n, rng)) for n in (2, 4, 6, 4, 4)]:
        seen.clear()
        cfg = OracleConfig(40, 4)
        value = brute_min_over_octahedron(state, kind, cfg)
        closest = tuple(np.where(state.c.as_array() >= 0, 1.0, -1.0))
        assert len(seen) == cfg.refine_rounds
        for floors in seen:
            assert floors[closest] <= value


def test_relative_entropy_floor_is_inf_where_a_supported_entry_vanishes(rng):
    # the face with signs -s_k holds q_k = 0 throughout, so the kernel returns inf on it
    # when p_k exceeds _SUPPORT_TOL; an entry at or below it is dropped instead
    for n in (2, 4):
        for state in (random_m3n_outside_octahedron(n, rng), _on_tetrahedron_face(n, rng)[0]):
            p, s, points = _coarse_points(state, DistanceKind.RELATIVE_ENTROPY, 6)
            floors = oracle._face_floors(p, s, DistanceKind.RELATIVE_ENTROPY, points)
            values = np.array([v for v, _, _ in points])
            for (_, signs, _), floor, value in zip(points, floors, values):
                rows = [k for k in range(4) if np.array_equal(signs, -s[k])]
                dead = any(p[k] > _SUPPORT_TOL for k in rows)
                assert (floor == np.inf) == dead
                assert (value == np.inf) >= dead


def test_floors_raise_no_floating_point_warnings(rng):
    # zero spectrum entries divide by zero inside the floors; none of it may surface
    state, _ = _on_tetrahedron_face(4, rng)
    with np.errstate(all="raise"):
        for kind in ALL_DISTANCES:
            p, s, points = _coarse_points(state, kind, 6)
            oracle._face_floors(p, s, kind, points)


def test_gradient_matches_finite_differences(rng):
    # the gradient in q of each kind against central differences at interior spectra
    for kind, _ in itertools.product(ALL_DISTANCES, range(3)):
        p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        if kind is DistanceKind.TRACE and np.min(np.abs(p - q)) < 1e-3:
            continue
        g = oracle._distance_gradient(p, q, kind)
        step = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = step
            # classical_distance needs sums of 1, so difference the unnormalised formulas
            want = (_unnormalised(p, q + e, kind) - _unnormalised(p, q - e, kind)) / (2 * step)
            assert g[k] == pytest.approx(want, rel=1e-5, abs=1e-7), (kind, k)


def _unnormalised(p, q, kind):
    if kind is DistanceKind.TRACE:
        return 0.5 * np.sum(np.abs(p - q))
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return np.sum(p * np.log2(p / q))
    root_f = np.sum(np.sqrt(p * q))
    return 1 - root_f**2 if kind is DistanceKind.INFIDELITY else 2 * (1 - root_f)
