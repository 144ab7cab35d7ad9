import math

import numpy as np
import pytest

from conftest import (
    random_density,
    random_ghz_spectrum,
    random_m3n_inside_tetra,
    random_m3n_outside_octahedron,
)
from entbound.errors import CapacityError, ParameterError
from entbound.locc import GHZDiagonalState, m3nfy
from entbound.measures import (
    ALL_DISTANCES,
    DistanceKind,
    SeparabilityLevel,
    entanglement_from_excess,
    entanglement_m3n,
    genuine_from_overlap,
    genuine_ghz_diag,
    matrix_distance,
    octahedron_excess,
)
from entbound.oracle import (
    OracleConfig,
    _batch_distance,
    _batch_m3n,
    brute_min_biseparable_ghz,
    brute_min_over_octahedron,
)
from entbound.qstate import CorrelationTriple, DenseState, M3NState, m3n_density
from proof_channels import apply_lambda_pq, apply_omega, check_translation_invariance, corner_triple

FAST = OracleConfig(grid_resolution=16, refine_rounds=4)


def test_batched_distance_matches_reference(rng):
    st = random_m3n_inside_tetra(3, rng)
    rho = m3n_density(st)
    triples = np.array(
        [random_m3n_inside_tetra(3, rng).c.as_array() for _ in range(6)]
    )
    batch = _batch_m3n(triples, 3)
    for kind in ALL_DISTANCES:
        got = _batch_distance(np.array(rho.rho), batch, kind)
        want = [matrix_distance(rho, DenseState(3, b), kind) for b in batch]
        assert np.allclose(got, want, atol=1e-10)


def test_octahedron_oracle_even_vertex():
    state = M3NState(4, CorrelationTriple(1, 1, 1))
    val = brute_min_over_octahedron(state, DistanceKind.TRACE, FAST)
    assert val == pytest.approx(0.5, abs=1e-4)


def test_octahedron_oracle_odd_face():
    state = M3NState(3, CorrelationTriple(0.55, 0.55, 0.55))
    val = brute_min_over_octahedron(state, DistanceKind.TRACE, FAST)
    want = octahedron_excess(state.c) / math.sqrt(3)
    assert val == pytest.approx(want, abs=1e-4)


def test_octahedron_oracle_inside_zero():
    state = M3NState(2, CorrelationTriple(0.2, 0.2, 0.2))
    for kind in ALL_DISTANCES:
        assert brute_min_over_octahedron(state, kind, FAST) == 0.0


def test_octahedron_oracle_capacity():
    with pytest.raises(CapacityError):
        brute_min_over_octahedron(
            M3NState(6, CorrelationTriple(1, 1, 1)), DistanceKind.TRACE, FAST
        )


@pytest.mark.parametrize("kind", ALL_DISTANCES)
def test_octahedron_oracle_matches_formula_even(kind, rng):
    for n in (2, 4):
        state = random_m3n_outside_octahedron(n, rng)
        formula = entanglement_from_excess(octahedron_excess(state.c), kind)
        oracle = brute_min_over_octahedron(state, kind, FAST)
        assert abs(formula - oracle) < 5e-4


def test_octahedron_oracle_matches_formula_odd(rng):
    lvl = SeparabilityLevel(m=5)
    for _ in range(3):
        state = random_m3n_outside_octahedron(5, rng)
        formula = entanglement_m3n(state, lvl, DistanceKind.TRACE).value
        oracle = brute_min_over_octahedron(state, DistanceKind.TRACE, FAST)
        assert abs(formula - oracle) < 5e-4


def test_ghz_oracle_examples():
    p = np.zeros((4, 2))
    p[0, 0] = 0.97375
    p[0, 1] = p[1, 0] = p[1, 1] = p[2, 0] = p[2, 1] = p[3, 0] = (1 - 0.97375) / 7
    p[3, 1] = 1 - p.sum() + p[3, 1]
    spec = GHZDiagonalState(3, p)
    assert brute_min_biseparable_ghz(spec, DistanceKind.TRACE) == pytest.approx(
        0.47375, abs=1e-5
    )
    uniform = GHZDiagonalState(2, np.full((2, 2), 0.25))
    assert brute_min_biseparable_ghz(uniform, DistanceKind.TRACE) == 0.0
    spec = GHZDiagonalState(2, np.array([[0.6, 0.4], [0.0, 0.0]]))
    want = 0.5 - math.sqrt(0.24)
    assert brute_min_biseparable_ghz(spec, DistanceKind.INFIDELITY) == pytest.approx(
        want, abs=1e-5
    )


@pytest.mark.parametrize("kind", ALL_DISTANCES)
def test_ghz_oracle_matches_formula(kind, rng):
    for _ in range(6):
        n = int(rng.integers(2, 5))
        spec = random_ghz_spectrum(n, rng)
        formula = genuine_from_overlap(spec.p_max, kind)
        oracle = brute_min_biseparable_ghz(spec, kind)
        assert abs(formula - oracle) < 1e-4, (n, spec.p_max)


def test_ghz_oracle_pure_state(rng):
    p = np.zeros((4, 2))
    p[0, 0] = 1.0
    spec = GHZDiagonalState(3, p)
    for kind in ALL_DISTANCES:
        formula = genuine_from_overlap(1.0, kind)
        oracle = brute_min_biseparable_ghz(spec, kind)
        assert abs(formula - oracle) < 1e-4


def test_lambda_channel_actions(rng):
    for n in (2, 4):
        h = rng.uniform(0.1, 0.9)
        edge = m3n_density(M3NState(n, corner_triple(n, 1.0, 0.0, h)))
        p, q = 0.25, 0.45
        target = m3n_density(M3NState(n, corner_triple(n, p, q, h)))
        out = apply_lambda_pq(edge, p, q)
        assert np.max(np.abs(out.rho - target.rho)) < 1e-12
        # p = q = 1/3 collapses any corner state onto the centroid
        cent = m3n_density(M3NState(n, corner_triple(n, 1 / 3, 1 / 3, h)))
        out = apply_lambda_pq(target, 1 / 3, 1 / 3)
        assert np.max(np.abs(out.rho - cent.rho)) < 1e-12
        # identity member of the family
        out = apply_lambda_pq(target, 1.0, 0.0)
        assert np.max(np.abs(out.rho - target.rho)) < 1e-14
        assert m3nfy(out).c  # still a valid family member


def test_lambda_channel_errors():
    state = m3n_density(M3NState(3, CorrelationTriple(0, 0, 0)))
    with pytest.raises(ParameterError):
        apply_lambda_pq(state, 0.5, 0.2)
    state = m3n_density(M3NState(4, CorrelationTriple(0, 0, 0)))
    with pytest.raises(ParameterError):
        apply_lambda_pq(state, 0.8, 0.5)


def test_omega_channel_actions(rng):
    for n in (2, 4):
        h = rng.uniform(0.0, 0.9)
        cent = m3n_density(M3NState(n, corner_triple(n, 1 / 3, 1 / 3, h)))
        edge = m3n_density(M3NState(n, corner_triple(n, 1.0, 0.0, h)))
        out = apply_omega(cent)
        assert np.max(np.abs(out.rho - edge.rho)) < 1e-12
    state = random_density(4, rng)
    out = apply_omega(state)
    assert abs(np.trace(out.rho) - 1) < 1e-12


def test_omega_channel_errors():
    with pytest.raises(ParameterError):
        apply_omega(m3n_density(M3NState(3, CorrelationTriple(0, 0, 0))))


@pytest.mark.parametrize("kind", ALL_DISTANCES)
def test_translation_invariance(kind, rng):
    pairs = []
    for _ in range(8):
        a, b = rng.uniform(0, 1, 2)
        if a + b > 1:
            a, b = 1 - a, 1 - b
        pairs.append((a, b))
    for n in (2, 4):
        for h in (0.0, 0.3, 0.5):
            dev = check_translation_invariance(h, pairs, kind, n)
            assert dev < 1e-9


def test_translation_invariance_h0_zero_distance():
    assert check_translation_invariance(0.0, [(0.2, 0.3)], DistanceKind.TRACE, 4) < 1e-12


# -- full-separable-set cross-checks at n = 2 via the PPT characterisation -------

cvxpy = pytest.importorskip("cvxpy")


def _ppt_trace_distance(rho: np.ndarray) -> float:
    """Min trace distance to the two-qubit separable (= PPT) set, by SDP."""
    sigma = cvxpy.Variable((4, 4), hermitian=True)
    constraints = [
        sigma >> 0,
        cvxpy.trace(sigma) == 1,
        cvxpy.partial_transpose(sigma, [2, 2], 1) >> 0,
    ]
    objective = cvxpy.Minimize(0.5 * cvxpy.normNuc(rho - sigma))
    prob = cvxpy.Problem(objective, constraints)
    prob.solve(solver=cvxpy.SCS, eps=1e-8)
    return float(prob.value)


def test_formula_matches_full_separable_set_two_qubits(rng):
    # at n=2 the biseparable set is PPT-characterised, so the closed form can
    # be checked against the genuinely unrestricted minimisation
    for _ in range(4):
        state = random_m3n_outside_octahedron(2, rng, min_excess=0.05)
        sdp = _ppt_trace_distance(np.array(m3n_density(state).rho))
        formula = entanglement_from_excess(octahedron_excess(state.c), DistanceKind.TRACE)
        assert sdp == pytest.approx(formula, abs=2e-5)


def test_twirl_never_increases_entanglement_two_qubits(rng):
    for _ in range(6):
        state = random_density(2, rng)
        before = _ppt_trace_distance(np.array(state.rho))
        after = _ppt_trace_distance(np.array(m3n_density(m3nfy(state)).rho))
        assert after <= before + 2e-5
