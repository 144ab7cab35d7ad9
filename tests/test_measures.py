import math

import numpy as np
import pytest

from conftest import random_density, random_ghz_spectrum, random_m3n_outside_octahedron
from dense_distance import matrix_distance
from dense_rotation import conjugate_one_qubit
from entbound._linalg import SIGMA
from entbound.errors import ParameterError, UnsupportedDistanceError
from entbound.locc import GHZDiagonalState
from entbound.measures import (
    ALL_DISTANCES,
    DistanceKind,
    SeparabilityLevel,
    classical_distance,
    entanglement_m3n,
    genuine_from_overlap,
    genuine_ghz_diag,
    lower_bound_from_triple,
    octahedron_excess,
)
from entbound.qstate import (
    CorrelationTriple,
    DenseState,
    M3NState,
    StateFamily,
    build_state,
    m3n_density,
)
from m3n_constructions import (
    AlreadySeparableError,
    closest_separable_even,
    closest_separable_odd_trace,
    is_separable_m3n,
    m3n_spectrum,
)

TR = DistanceKind.TRACE
RE = DistanceKind.RELATIVE_ENTROPY
FID = DistanceKind.INFIDELITY
BU = DistanceKind.SQUARED_BURES
HE = DistanceKind.SQUARED_HELLINGER


def test_octahedron_excess_examples():
    assert octahedron_excess(CorrelationTriple(1, 1, 1)) == pytest.approx(1.0)
    assert octahedron_excess(CorrelationTriple(0.401, 0.362, 0.397)) == pytest.approx(0.08)
    assert octahedron_excess(CorrelationTriple(0, 0, 0)) == pytest.approx(-0.5)


def _even_value(c, kind, n=4):
    """The even-n value of a triple at level M = n, through the public route."""
    return lower_bound_from_triple(CorrelationTriple(*c), n, SeparabilityLevel(m=n), kind).value


def test_excess_closed_form_examples():
    # h = 0.08, 1 and 0.5; the even-n value is the genuine closed form at p = (1 + h)/2
    assert _even_value((0.401, 0.362, 0.397), TR) == pytest.approx(0.040)
    assert _even_value((1, 1, 1), FID) == pytest.approx(0.5)
    # 0.5*(0.5*log2(0.5) + 1.5*log2(1.5))
    assert _even_value((1, 0.5, 0.5), RE) == pytest.approx(0.18872187554086717, abs=1e-12)
    assert genuine_from_overlap(0.75, RE) == pytest.approx(0.18872187554086717, abs=1e-12)
    # on the octahedron (h = 0) and inside it
    assert _even_value((0.5, -0.5, 0.0), TR) == 0.0
    assert _even_value((0.2, 0.3, -0.1), RE) == 0.0


def test_overlap_closed_form_examples():
    assert genuine_from_overlap(0.97, TR) == pytest.approx(0.470)
    assert genuine_from_overlap(0.97, FID) == pytest.approx(0.3294, abs=5e-5)
    assert genuine_from_overlap(0.97, RE) == pytest.approx(0.8056, abs=5e-5)
    with pytest.raises(ParameterError):
        genuine_from_overlap(0.5, TR)


@pytest.mark.parametrize("kind", ALL_DISTANCES)
def test_closed_forms_monotone(kind):
    hs = np.linspace(1e-6, 1.0, 1000)
    fv = [_even_value(np.full(3, (1 + 2 * h) / 3), kind) for h in hs]
    assert np.all(np.diff(fv) > 0)
    assert fv[0] < 1e-5
    ps = np.linspace(0.5 + 1e-6, 1.0, 1000)
    gv = [genuine_from_overlap(p, kind) for p in ps]
    assert np.all(np.diff(gv) > 0)
    assert gv[0] < 1e-5


def test_bures_hellinger_closed_forms_coincide():
    for h in np.linspace(0.01, 1.0, 100):
        c = np.full(3, (1 + 2 * h) / 3)
        assert _even_value(c, BU) == _even_value(c, HE)
    for p in np.linspace(0.51, 1.0, 100):
        assert genuine_from_overlap(p, BU) == genuine_from_overlap(p, HE)


def test_entanglement_even_vertex_states():
    # the n=4 all-plus vertex and the n=6 all-minus vertex both carry h = 1
    r = entanglement_m3n(M3NState(4, CorrelationTriple(1, 1, 1)), SeparabilityLevel(m=3), TR)
    assert r.value == pytest.approx(0.5)
    assert r.kind == "exact"
    r = entanglement_m3n(M3NState(6, CorrelationTriple(-1, -1, -1)), SeparabilityLevel(m=4), TR)
    assert r.value == pytest.approx(0.5)


def test_entanglement_odd_trace_examples():
    # measured ion triple: face branch h/sqrt(3)
    state = M3NState(3, CorrelationTriple(-0.497, 0.515, -0.341))
    r = entanglement_m3n(state, SeparabilityLevel(m=3), TR)
    h = octahedron_excess(state.c)
    assert h == pytest.approx(0.1765)
    assert r.value == pytest.approx(h / math.sqrt(3))
    assert r.value == pytest.approx(0.102, abs=5e-4)
    # edge branch at n=5 (the level must exceed ceil(5/2) to be nontrivial)
    state = M3NState(5, CorrelationTriple(1 / math.sqrt(2), 1 / math.sqrt(2), 0))
    r = entanglement_m3n(state, SeparabilityLevel(m=4), TR)
    assert r.value == pytest.approx(0.1464466094, abs=1e-9)


def test_entanglement_trivial_cases():
    state = M3NState(4, CorrelationTriple(1, 1, 1))
    assert entanglement_m3n(state, SeparabilityLevel(m=2), TR).value == 0.0
    inside = M3NState(4, CorrelationTriple(0.2, 0.2, 0.2))
    assert entanglement_m3n(inside, SeparabilityLevel(m=4), RE).value == 0.0
    part = SeparabilityLevel(partition=(2, 2))
    assert entanglement_m3n(state, part, TR).value == 0.0


def test_entanglement_odd_nontrace_unsupported():
    state = M3NState(3, CorrelationTriple(0.5, 0.5, 0.3))
    for kind in (RE, FID, BU, HE):
        with pytest.raises(UnsupportedDistanceError):
            entanglement_m3n(state, SeparabilityLevel(m=3), kind)


def test_genuine_ghz_diag_examples():
    uniform = GHZDiagonalState(3, np.full((4, 2), 1 / 8))
    assert genuine_ghz_diag(uniform, TR).value == 0.0
    p = np.zeros((128, 2))
    p[0, 0] = 0.817
    p[1:, :] = (1 - 0.817) / 254
    spec = GHZDiagonalState(8, p / p.sum())
    assert genuine_ghz_diag(spec, RE).value == pytest.approx(0.313, abs=5e-4)
    p = np.zeros((8, 2))
    p[0, 0] = 2 / 3
    p[1:, :] = (1 / 3) / 14
    spec = GHZDiagonalState(4, p / p.sum())
    assert genuine_ghz_diag(spec, TR).value == pytest.approx(1 / 6, abs=1e-12)


def test_lower_bound_examples():
    lvl = SeparabilityLevel(m=4)
    r = lower_bound_from_triple(CorrelationTriple(0.63, 0.63, -0.42), 6, lvl, TR)
    assert r.kind == "lower_bound"
    assert r.value == pytest.approx(0.17, abs=1e-3)
    r = lower_bound_from_triple(CorrelationTriple(0.3, 0.3, 0.3), 4, SeparabilityLevel(m=3), TR)
    assert r.value == 0.0
    r = lower_bound_from_triple(
        CorrelationTriple(0.75, 0.75, 0.5), 4, SeparabilityLevel(m=3), RE
    )
    assert r.value == pytest.approx(0.18872187554086717, abs=1e-12)


def test_lower_bound_matches_exact_value(rng):
    for n in (2, 3, 4, 5):
        state = random_m3n_outside_octahedron(n, rng)
        lvl = SeparabilityLevel(m=n)
        exact = entanglement_m3n(state, lvl, TR)
        bound = lower_bound_from_triple(state.c, n, lvl, TR)
        assert bound.value == exact.value
        assert bound.kind == "lower_bound"


def test_wei_bound_identity_expression():
    # the even-n relative-entropy bound for the GHZ/flip-pair mixture family
    for x in np.linspace(0.5 + 1e-6, 1.0, 100):
        h = octahedron_excess(CorrelationTriple(x, x, 2 * x - 1))
        assert h == pytest.approx(2 * x - 1, abs=1e-12)
        lhs = _even_value((x, x, 2 * x - 1), RE)
        if x < 1:
            rhs = math.log2(2 - 2 * x) + x * (math.log2(x) - math.log2(1 - x))
        else:
            rhs = 1.0  # limit of the expression at the pure-state endpoint
        assert lhs == pytest.approx(rhs, abs=1e-12)
    # below the threshold the bound vanishes identically
    for x in np.linspace(0.0, 0.5, 51):
        h = octahedron_excess(CorrelationTriple(x, x, 2 * x - 1))
        assert h <= 1e-12


def test_is_separable_examples():
    v = M3NState(4, CorrelationTriple(1, 1, 1))
    assert is_separable_m3n(v, SeparabilityLevel(m=2))
    assert not is_separable_m3n(v, SeparabilityLevel(m=3))
    big = M3NState(6, CorrelationTriple(1, -1, 1))
    assert not is_separable_m3n(big, SeparabilityLevel(partition=(3, 3)))
    assert is_separable_m3n(big, SeparabilityLevel(partition=(4, 2)))
    inside = M3NState(6, CorrelationTriple(0.3, -0.3, 0.3))
    assert is_separable_m3n(inside, SeparabilityLevel(partition=(3, 3)))


def test_separability_level_validation():
    with pytest.raises(ParameterError):
        SeparabilityLevel(m=1)
    with pytest.raises(ParameterError):
        SeparabilityLevel(partition=(4,))
    with pytest.raises(ParameterError):
        SeparabilityLevel(m=3, partition=(1, 2))
    with pytest.raises(ParameterError):
        SeparabilityLevel(partition=(2, 3)).check_for(4)
    with pytest.raises(ParameterError):
        SeparabilityLevel(m=5).check_for(4)


def test_closest_even_vertex_to_face_centroid():
    out = closest_separable_even(
        M3NState(6, CorrelationTriple(-1, -1, -1)), SeparabilityLevel(m=4)
    )
    assert np.allclose(out.c.as_array(), [-1 / 3, -1 / 3, -1 / 3], atol=1e-12)
    out = closest_separable_even(
        M3NState(2, CorrelationTriple(1, -1, 1)), SeparabilityLevel(m=2)
    )
    assert np.allclose(out.c.as_array(), [1 / 3, -1 / 3, 1 / 3], atol=1e-12)


def test_closest_even_preserves_corner_coordinates(rng):
    from proof_channels import _corner_weights

    for _ in range(20):
        state = random_m3n_outside_octahedron(4, rng)
        out = closest_separable_even(state, SeparabilityLevel(m=3))
        assert out.c.abs_sum == pytest.approx(1.0, abs=1e-12)
        signs_in = np.sign(state.c.as_array())
        ref_in = CorrelationTriple(*(state.c.as_array() * signs_in * np.array([-1, 1, -1])))
        ref_out = CorrelationTriple(*(out.c.as_array() * signs_in * np.array([-1, 1, -1])))
        p_in, q_in, _ = _corner_weights(4, ref_in)
        p_out, q_out, h_out = _corner_weights(4, ref_out)
        assert p_out == pytest.approx(p_in, abs=1e-12)
        assert q_out == pytest.approx(q_in, abs=1e-12)
        assert h_out == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_DISTANCES)
@pytest.mark.parametrize("n", [2, 4])
def test_closest_even_distance_equals_closed_form(kind, n, rng):
    for _ in range(5):
        state = random_m3n_outside_octahedron(n, rng)
        out = closest_separable_even(state, SeparabilityLevel(m=n))
        d = matrix_distance(m3n_density(state), m3n_density(out), kind)
        f = entanglement_m3n(state, SeparabilityLevel(m=n), kind).value
        assert d == pytest.approx(f, abs=1e-10)


def test_closest_even_dominates_face_grid(rng):
    # no other point of the bounding face is closer, checked on a dense grid
    state = M3NState(2, CorrelationTriple(-0.9, 0.75, 0.8))
    lvl = SeparabilityLevel(m=2)
    out = closest_separable_even(state, lvl)
    rho = m3n_density(state)
    best = {
        TR: matrix_distance(rho, m3n_density(out), TR),
        RE: matrix_distance(rho, m3n_density(out), RE),
    }
    signs = np.sign(state.c.as_array())
    k = 100
    for i in range(k + 1):
        for j in range(k + 1 - i):
            w = np.array([i, j, k - i - j]) / k
            s = CorrelationTriple(*(signs * w))
            cand = m3n_density(M3NState(2, s))
            for kind in (TR, RE):
                assert best[kind] <= matrix_distance(rho, cand, kind) + 1e-12


def test_closest_even_errors():
    with pytest.raises(AlreadySeparableError):
        closest_separable_even(
            M3NState(4, CorrelationTriple(0.2, 0.2, 0.2)), SeparabilityLevel(m=3)
        )
    with pytest.raises(ParameterError):
        closest_separable_even(
            M3NState(4, CorrelationTriple(1, 1, 1)), SeparabilityLevel(m=2)
        )
    with pytest.raises(ParameterError):
        closest_separable_even(
            M3NState(3, CorrelationTriple(0.6, 0.5, 0.3)), SeparabilityLevel(m=3)
        )


def test_closest_odd_face_projection():
    state = M3NState(3, CorrelationTriple(0.55, 0.55, 0.55))
    out = closest_separable_odd_trace(state)
    assert np.allclose(out.c.as_array(), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_closest_odd_edge_projection():
    s = 1 / math.sqrt(2)
    out = closest_separable_odd_trace(M3NState(3, CorrelationTriple(s, s, 0)))
    assert np.allclose(out.c.as_array(), [0.5, 0.5, 0.0], atol=1e-12)
    d = 0.5 * np.linalg.norm(np.array([s, s, 0]) - out.c.as_array())
    assert d == pytest.approx(0.1464466094, abs=1e-9)


def test_closest_odd_boundary_and_interior():
    state = M3NState(3, CorrelationTriple(1, 0, 0))
    out = closest_separable_odd_trace(state)
    assert np.allclose(out.c.as_array(), [1, 0, 0], atol=1e-15)
    with pytest.raises(AlreadySeparableError):
        closest_separable_odd_trace(M3NState(3, CorrelationTriple(0.2, 0.1, 0.0)))
    with pytest.raises(ParameterError):
        closest_separable_odd_trace(M3NState(4, CorrelationTriple(1, 1, 1)))


def test_odd_formula_equals_half_euclidean_projection(rng):
    # the three-branch formula must agree with the explicit projection
    lvl = SeparabilityLevel(m=3)
    for _ in range(10000):
        state = random_m3n_outside_octahedron(3, rng, min_excess=1e-6)
        val = entanglement_m3n(state, lvl, TR).value
        out = closest_separable_odd_trace(state)
        eu = 0.5 * float(np.linalg.norm(state.c.as_array() - out.c.as_array()))
        assert abs(val - eu) < 1e-12


def test_matrix_distance_basics(rng):
    rho = random_density(2, rng)
    for kind in ALL_DISTANCES:
        assert matrix_distance(rho, rho, kind) == pytest.approx(0.0, abs=1e-7)
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1
    one = np.zeros((2, 2), dtype=complex)
    one[1, 1] = 1
    assert matrix_distance(DenseState(1, zero), DenseState(1, one), TR) == pytest.approx(1.0)


def test_matrix_distance_validates_theorem_value():
    a = m3n_density(M3NState(6, CorrelationTriple(-1, -1, -1)))
    b = m3n_density(M3NState(6, CorrelationTriple(-1 / 3, -1 / 3, -1 / 3)))
    assert matrix_distance(a, b, TR) == pytest.approx(0.5, abs=1e-12)
    a = m3n_density(M3NState(2, CorrelationTriple(1, -1, 1)))
    b = m3n_density(M3NState(2, CorrelationTriple(1 / 3, -1 / 3, 1 / 3)))
    assert matrix_distance(a, b, TR) == pytest.approx(0.5, abs=1e-12)


def test_matrix_distance_symmetric(rng):
    a, b = random_density(2, rng), random_density(2, rng)
    for kind in (TR, FID, BU, HE):
        assert matrix_distance(a, b, kind) == pytest.approx(
            matrix_distance(b, a, kind), abs=1e-9
        )


def test_relative_entropy_support_signal(rng):
    pure = build_state(StateFamily.ghz(), 2)
    mixed = DenseState(2, np.eye(4, dtype=complex) / 4)
    assert matrix_distance(pure, mixed, RE) == pytest.approx(2.0)  # log2(4) - S(pure)
    assert matrix_distance(mixed, pure, RE) == math.inf


def test_matrix_distance_agrees_with_classical_for_commuting(rng):
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    a = DenseState(2, np.diag(p).astype(complex))
    b = DenseState(2, np.diag(q).astype(complex))
    for kind in ALL_DISTANCES:
        assert matrix_distance(a, b, kind) == pytest.approx(
            classical_distance(p, q, kind), abs=1e-10
        )


def test_classical_distance_examples(rng):
    p = rng.dirichlet(np.ones(5))
    for kind in ALL_DISTANCES:
        assert classical_distance(p, p, kind) == pytest.approx(0.0, abs=1e-12)
    assert classical_distance([1, 0], [0.5, 0.5], TR) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        classical_distance([0.5, 0.5], [1.0], TR)
    with pytest.raises(ParameterError):
        classical_distance([0.7, 0.7], [0.5, 0.5], TR)


def test_classical_distance_on_corner_spectra():
    # distance between the corner state and its face shadow reduces to the
    # classical distance between their spectra, which equals the closed form
    from proof_channels import corner_triple

    h = 0.37
    for n in (2, 4):
        hi = M3NState(n, corner_triple(n, 1 / 3, 1 / 3, h))
        lo = M3NState(n, corner_triple(n, 1 / 3, 1 / 3, 0.0))
        p = np.concatenate([[l.value] * l.multiplicity for l in m3n_spectrum(hi)])
        q = np.concatenate([[l.value] * l.multiplicity for l in m3n_spectrum(lo)])
        for kind in ALL_DISTANCES:
            assert classical_distance(p, q, kind) == pytest.approx(
                genuine_from_overlap((1 + h) / 2, kind), abs=1e-12
            )


def test_cross_distance_common_ranking(rng):
    for _ in range(50):
        n = int(rng.integers(2, 5))
        s1 = random_ghz_spectrum(n, rng)
        s2 = random_ghz_spectrum(n, rng)
        signs = set()
        for kind in ALL_DISTANCES:
            d = genuine_ghz_diag(s1, kind).value - genuine_ghz_diag(s2, kind).value
            signs.add(np.sign(round(d, 14)))
        assert len(signs) == 1


def test_pauli_conjugation_invariance(rng):
    lvl = SeparabilityLevel(m=4)
    state = random_m3n_outside_octahedron(4, rng)
    base = entanglement_m3n(state, lvl, TR).value
    dense = m3n_density(state)
    for j in (1, 2, 3):
        rotated = conjugate_one_qubit(np.array(dense.rho), SIGMA[j], 0, 4)
        from entbound.pauli import correlation_triple

        flipped = M3NState(4, correlation_triple(DenseState(4, rotated)))
        # two components flip sign, magnitudes stay
        assert np.allclose(
            np.abs(flipped.c.as_array()), np.abs(state.c.as_array()), atol=1e-12
        )
        for kind in ALL_DISTANCES:
            v1 = entanglement_m3n(state, lvl, kind).value
            v2 = entanglement_m3n(flipped, lvl, kind).value
            assert v1 == pytest.approx(v2, abs=1e-12)


def test_report_json_shape():
    r = lower_bound_from_triple(
        CorrelationTriple(0.401, 0.362, 0.397), 4, SeparabilityLevel(m=3), TR
    )
    d = r.to_json_dict()
    assert d["distance"] == "trace"
    assert d["M"] == 3
    assert d["kind"] == "lower_bound"
    assert d["value"] == pytest.approx(0.04)


def test_distance_parse_aliases():
    assert DistanceKind.parse("Trace") is TR
    assert DistanceKind.parse("re") is RE
    assert DistanceKind.parse("bures") is BU
    with pytest.raises(ParameterError):
        DistanceKind.parse("euclid")
