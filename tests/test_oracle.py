import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    pauli_power,
    random_density,
    random_ghz_spectrum,
    random_m3n_inside_tetra,
    random_m3n_outside_octahedron,
)
from entbound._linalg import GRID_BUDGET
from entbound.errors import (
    EntboundError,
    ParameterError,
    StateValidityError,
    UnsupportedDistanceError,
)
from entbound.locc import GHZDiagonalState
from scipy.linalg import logm, sqrtm

from entbound.cli import main
from entbound.measures import (
    ALL_DISTANCES,
    DistanceKind,
    SeparabilityLevel,
    _odd_trace_values,
    entanglement_m3n,
    genuine_from_overlap,
    genuine_ghz_diag,
    octahedron_excess,
)
from entbound import oracle
from entbound.oracle import (
    MAX_GRID_RESOLUTION,
    OracleConfig,
    _analytic_candidate,
    _face_windows,
    _fw_gap,
    _odd_trace_distances,
    _surrogate_gradient,
    brute_min_biseparable_ghz,
    brute_min_over_octahedron,
)
from entbound.pauli import correlation_triple
from entbound.qstate import CorrelationTriple, M3NState, _even_signs, m3n_density
from proof_channels import apply_lambda_pq, apply_omega, check_translation_invariance, corner_triple

FAST = OracleConfig(grid_resolution=16, refine_rounds=4)


def _face_grid(signs, resolution):
    """Triples (N, 3) of the coarse grid on the face with ``signs``."""
    lattice, _ = _face_windows([(0.5, 0.5)], 0.5, resolution)
    return (lattice * np.asarray(signs, dtype=float)[:, None]).T


def _dense_grid(pts, n):
    """Dense m3n matrices (I + x . sigma^{xn}) / 2^n of the triples ``pts``."""
    paulis = np.stack([pauli_power(j, n) for j in (1, 2, 3)])
    return (np.eye(2**n) + np.einsum("gj,jab->gab", pts, paulis)) / 2**n


def _dense_reference(rho, sigma, kind):
    """One distance between two full-rank density matrices by scipy's sqrtm and logm."""
    if kind is DistanceKind.TRACE:
        diff = rho - sigma
        return 0.5 * np.trace(sqrtm(diff @ diff)).real
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return np.trace(rho @ (logm(rho) - logm(sigma))).real / math.log(2)
    if kind is DistanceKind.SQUARED_HELLINGER:
        return 2.0 * (1.0 - np.trace(sqrtm(rho) @ sqrtm(sigma)).real)
    sa = sqrtm(rho)
    root_f = np.trace(sqrtm(sa @ sigma @ sa)).real
    if kind is DistanceKind.INFIDELITY:
        return 1.0 - root_f**2
    return 2.0 * (1.0 - root_f)


@pytest.mark.parametrize("n", range(2, 11, 2))
def test_even_sign_spectrum_matches_dense_eigensolve(n, rng):
    # (1 + S x) / 2^n, each 2^(n-2) times, inside the tetrahedron, at one of its
    # vertices (rank 2^(n-2)) and on an octahedron face
    e = (-1) ** (n // 2)
    triples = [random_m3n_inside_tetra(n, rng).c.as_array(), np.array([1.0, e, 1.0]),
               _face_grid((1, -1, -1), 4)[7]]
    s = _even_signs(n)
    for x in triples:
        want = np.linalg.eigvalsh(m3n_density(M3NState(n, CorrelationTriple(*x))).rho)
        got = np.sort(np.repeat((1 + s @ x) / 2**n, 2 ** (n - 2)))
        assert np.allclose(got, want, rtol=0.0, atol=1e-15), x


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_trace_distance_matches_dense_eigensolve(n, rng):
    # half the Euclidean distance between the triples against the eigenvalues of
    # rho(c) - rho(x), on the grids of a face and of its opposite
    state = random_m3n_outside_octahedron(n, rng)
    rho = np.array(m3n_density(state).rho)
    for signs in ((1, 1, 1), (-1, -1, -1)):
        pts = _face_grid(signs, 8)
        want = 0.5 * np.abs(np.linalg.eigvalsh(_dense_grid(pts, n) - rho)).sum(axis=1)
        got = _odd_trace_distances(state.c.as_array(), pts)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), signs


@pytest.mark.parametrize("kind", ALL_DISTANCES)
def test_even_witness_distances_match_matrix_distances(kind, monkeypatch, rng):
    # the certified step's minimiser q* is the spectrum of the separable triple
    # x* = S^T (4 q* - 1) / 4 (S^T S = 4 I, and S's columns sum to 0); x* lies in the
    # octahedron, and the distance the oracle returns is scipy's dense sqrtm and logm
    # distance between rho(c) and rho(x*)
    calls = []
    inner = oracle.classical_distance

    def recorded(p, q, kind):
        calls.append(np.array(q))
        return inner(p, q, kind)

    monkeypatch.setattr(oracle, "classical_distance", recorded)
    for n in (2, 4):
        for _ in range(2):
            while True:
                state = random_m3n_outside_octahedron(n, rng)
                rho = np.array(m3n_density(state).rho)
                if np.linalg.eigvalsh(rho).min() > 1e-2 / 2**n:
                    break
            calls.clear()
            got = brute_min_over_octahedron(state, kind)
            [q] = calls
            x = _even_signs(n).T @ (4 * q - 1) / 4
            assert np.abs(x).sum() <= 1 + 1e-12, (n, x)
            sigma = _dense_grid(x[None, :], n)[0]
            assert abs(got - _dense_reference(rho, sigma, kind)) < 1e-10, (n, state.c)


@pytest.mark.parametrize(
    "n, triple, resolution, want",
    [
        (3, (-0.470182, -0.590013, 0.056669), 40, 0.033735849342840206),
        (3, (-0.796659, 0.157023, 0.213181), 40, 0.04816931664038389),
        (3, (-0.490718, -0.613748, 0.121092), 40, 0.06511310480191614),
        (5, (-0.695964, -0.320874, -0.547274), 24, 0.16284513266866468),
    ],
)
def test_odd_octahedron_oracle_values_pinned(n, triple, resolution, want):
    # the values a dense eigensolve per grid point gave
    state = M3NState(n, CorrelationTriple(*triple))
    got = brute_min_over_octahedron(state, DistanceKind.TRACE, OracleConfig(resolution, 3))
    assert abs(got - want) < 1e-12


#: the values the even-n grid at (24, 3) gave: feasible, so upper bounds on the minimum.
#: A GHZ-basis conjugation of the dense matrices gave the same, in ALL_DISTANCES order
GRID_PINS = {
    (2, (-0.932507, 0.058922, 0.120328)): (
        0.002253669859527768, 0.02793925000000003, 0.0007812676310127165,
        0.0007814202854283803, 0.0007814202854283803,
    ),
    (2, (0.366481, -0.575849, 0.518065)): (
        0.03856988363796511, 0.11509875000000001, 0.013428064416869723,
        0.013473447866220623, 0.013473447866220623,
    ),
    (2, (0.218465, 0.204377, -0.873232)): (
        0.01586693579786759, 0.07401849999999999, 0.00550923327552566,
        0.0055168421623867925, 0.0055168421623867925,
    ),
    (4, (-0.116695, 0.660122, -0.408801)): (
        0.006223370260698573, 0.04640449999999999, 0.002158428485167785,
        0.002159594447211921, 0.002159594447211921,
    ),
    (4, (0.307783, -0.34919, -0.761674)): (
        0.03184188690322062, 0.10466174999999998, 0.011076826868076095,
        0.011107671962180987, 0.011107671962180987,
    ),
    (4, (0.450669, -0.762187, -0.379639)): (
        0.06426744832511266, 0.14812375, 0.022444396706082448,
        0.022571767882416882, 0.022571767882416882,
    ),
}

#: the certified step's values on the same triples, in ALL_DISTANCES order
EVEN_PINS = {
    (2, (-0.932507, 0.058922, 0.120328)): (
        0.0022535139626264217, 0.027939249999999978, 0.0007812119827245168,
        0.0007813646153900233, 0.0007813646153900233,
    ),
    (2, (0.366481, -0.575849, 0.518065)): (
        0.03856980702255296, 0.11509875000000004, 0.013428034358289986,
        0.01347341760377141, 0.01347341760377141,
    ),
    (2, (0.218465, 0.204377, -0.873232)): (
        0.015866549125777826, 0.07401849999999999, 0.005509088397218309,
        0.005516696883343997, 0.005516696883343997,
    ),
    (4, (-0.116695, 0.660122, -0.408801)): (
        0.006222285072782732, 0.0464045, 0.0021580347341637607,
        0.002159200270615891, 0.002159200270615891,
    ),
    (4, (0.307783, -0.34919, -0.761674)): (
        0.03184175797677749, 0.10466175, 0.011076776899544782,
        0.011107621714583349, 0.011107621714583349,
    ),
    (4, (0.450669, -0.762187, -0.379639)): (
        0.06426744717543673, 0.14812375000000003, 0.022444396236482755,
        0.02257176740745681, 0.02257176740745681,
    ),
}


@pytest.mark.parametrize("n, triple", EVEN_PINS.keys())
def test_even_octahedron_oracle_values_pinned(n, triple):
    # the certified minimum never lies above a feasible grid value, and it reaches the
    # closed form; the configuration is not used at even n
    state = M3NState(n, CorrelationTriple(*triple))
    level = SeparabilityLevel(m=n)
    for kind, want, grid in zip(ALL_DISTANCES, EVEN_PINS[n, triple], GRID_PINS[n, triple]):
        got = brute_min_over_octahedron(state, kind, OracleConfig(24, 3))
        assert abs(got - want) < 1e-13, kind
        assert got <= grid + 1e-15, kind
        assert abs(got - entanglement_m3n(state, level, kind).value) <= 1e-12, kind


def test_octahedron_oracle_even_vertex():
    # a tetrahedron vertex: the spectrum (1, 0, 0, 0), whose closest capped-simplex
    # point (1/2, 1/6, 1/6, 1/6) lies at trace distance 1/2
    state = M3NState(4, CorrelationTriple(1, 1, 1))
    val = brute_min_over_octahedron(state, DistanceKind.TRACE, FAST)
    assert val == pytest.approx(0.5, abs=1e-15)


def test_octahedron_oracle_odd_face():
    state = M3NState(3, CorrelationTriple(0.55, 0.55, 0.55))
    val = brute_min_over_octahedron(state, DistanceKind.TRACE, FAST)
    want = octahedron_excess(state.c) / math.sqrt(3)
    assert val == pytest.approx(want, abs=1e-4)


def test_octahedron_oracle_inside_zero():
    state = M3NState(2, CorrelationTriple(0.2, 0.2, 0.2))
    for kind in ALL_DISTANCES:
        assert brute_min_over_octahedron(state, kind, FAST) == 0.0


@pytest.mark.parametrize("kind", ALL_DISTANCES)
def test_octahedron_oracle_matches_formula_even(kind, rng):
    for n in (2, 4):
        state = random_m3n_outside_octahedron(n, rng)
        formula = entanglement_m3n(state, SeparabilityLevel(m=state.n), kind).value
        oracle = brute_min_over_octahedron(state, kind, FAST)
        assert abs(formula - oracle) < 1e-12


@pytest.mark.parametrize("n", [6, 7, 8, 11, 12, 17, 40, 1001])
def test_octahedron_oracle_matches_formula_beyond_dense_sizes(n, rng):
    # a dense 2^n x 2^n matrix at n=12 is 256 MB; the oracle needs none, and it
    # runs past the qubit cap of built states
    state = random_m3n_outside_octahedron(n, rng)
    for kind in ALL_DISTANCES if n % 2 == 0 else (DistanceKind.TRACE,):
        formula = entanglement_m3n(state, SeparabilityLevel(m=n), kind).value
        oracle = brute_min_over_octahedron(state, kind, FAST)
        slack = 5e-4 if n % 2 else 1e-12  # the odd-n grid's resolution, or rounding
        assert formula - 1e-12 <= oracle < formula + slack, kind


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("kind", [k for k in ALL_DISTANCES if k is not DistanceKind.TRACE])
def test_odd_octahedron_oracle_supports_trace_only(n, kind):
    # entanglement_m3n has no closed form to check for these kinds at odd n
    state = M3NState(n, CorrelationTriple(0.6, -0.5, 0.4))
    with pytest.raises(UnsupportedDistanceError, match=kind.value):
        brute_min_over_octahedron(state, kind, FAST)


def test_octahedron_oracle_matches_formula_odd(rng):
    lvl = SeparabilityLevel(m=5)
    for _ in range(3):
        state = random_m3n_outside_octahedron(5, rng)
        formula = entanglement_m3n(state, lvl, DistanceKind.TRACE).value
        oracle = brute_min_over_octahedron(state, DistanceKind.TRACE, FAST)
        assert abs(formula - oracle) < 5e-4


def test_odd_oracle_refines_every_face_tied_at_the_coarse_minimum(capsys):
    # faces (-,+,+) and (-,+,-) tie at their shared edge point (0.2, 0.8, 0) of the
    # coarse grid, and the minimum lies inside the second; refining only the first
    # face left a deviation of 2.99e-3 at any resolution and round count
    argv = ["oracle", "--n", "5", "--c=-0.201255,0.799276,-0.014865", "--full-precision"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["deviation"] <= 1e-6


def test_odd_oracle_reaches_the_closed_form_on_a_seeded_sweep():
    # 300 six-decimal triples in the unit ball and outside the octahedron, n = 3, 5, 7;
    # at 26 rounds the refined windows are a few ulps wide, so only a face left
    # unrefined can keep the oracle off the closed form (by up to 2.0e-3 on these)
    cs = np.round(np.random.default_rng(5).uniform(-1, 1, (1200, 3)), 6)
    cs = cs[(np.sum(cs * cs, axis=1) <= 1) & (np.abs(cs).sum(axis=1) > 1)][:300]
    assert len(cs) == 300
    misses = []
    for i, c in enumerate(cs):
        state = M3NState((3, 5, 7)[i % 3], CorrelationTriple(*c))
        got = brute_min_over_octahedron(state, DistanceKind.TRACE, OracleConfig(40, 26))
        if abs(got - _odd_trace_values(c)) > 1e-12:
            misses.append((state.n, tuple(c), got - _odd_trace_values(c)))
    assert not misses


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_octahedron_is_the_capped_simplex(n, rng):
    # x -> q = (1 + S x) / 4 maps |x|_1 <= 1 onto {sum q = 1, 0 <= q_k <= 1/2}, at
    # n = 0 and 2 (mod 4) alike. The rows s_k of S and their negatives are the eight
    # sign vectors, so the facet sigma . x = 1 is q_k = 1/2 for sigma = s_k and q_k = 0
    # for sigma = -s_k, and the six vertices +/- e_i go to the six spectra that hold
    # 1/2 twice, the capped simplex's vertices
    s = _even_signs(n)
    signs = list(itertools.product((1.0, -1.0), repeat=3))
    assert sorted(map(tuple, np.vstack([s, -s]))) == sorted(signs)
    vertices = np.vstack([np.eye(3), -np.eye(3)])
    images = (1 + vertices @ s.T) / 4
    assert np.all((images == 0) | (images == 0.5))
    assert sorted(tuple(np.flatnonzero(q)) for q in images) == sorted(
        itertools.combinations(range(4), 2))
    for sigma in map(np.array, signs):
        # the facet's vertices sigma_i e_i, and points across it
        bary = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), 20)])
        q = (1 + (bary * sigma) @ s.T) / 4
        [k] = [k for k in range(4) if abs(s[k] @ sigma) == 3]
        want = 0.5 if np.array_equal(s[k], sigma) else 0.0
        assert np.allclose(q[:, k], want, rtol=0.0, atol=1e-15), sigma
        assert np.allclose(q.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    # the octahedron's points go into the capped simplex, and back
    x = rng.dirichlet(np.ones(6), 500) @ vertices
    q = (1 + x @ s.T) / 4
    assert q.min() >= -1e-15 and q.max() <= 0.5 + 1e-15
    q = rng.dirichlet(np.ones(4), 2000)
    q = q[q.max(axis=1) <= 0.5]
    x = (4 * q - 1) @ s / 4
    assert len(q) >= 100 and np.abs(x).sum(axis=1).max() <= 1 + 1e-12
    assert np.allclose((1 + x @ s.T) / 4, q, rtol=0.0, atol=1e-15)


#: even-n oracle commands that a grid or an unclipped spectrum got wrong: a triple on
#: the tetrahedron face 1 - c1 - c2 - c3 = 0, whose spectrum entry rounds to about
#: -6e-17 and fails the candidate's feasibility check unless clipped; the grid's worst
#: miss of a seeded sweep (2.43e-4 at the CLI default); and the squared-Bures triple
#: whose minimiser lies just off a face edge (2.6e-6)
EVEN_REGRESSIONS = {
    **{f"face-{kind.value}": ["--n", "2", "--c=0.83357,0.264753,-0.098323",
                              "--distance", kind.value] for kind in ALL_DISTANCES},
    "worst-grid-miss": ["--n", "6", "--c=0.122865,-0.990539,0.132324", "--distance", "re"],
    "squared-bures-edge": ["--n", "4", "--c=-0.511822,0.935388,-0.447535",
                           "--distance", "squared_bures"],
}


@pytest.mark.parametrize("argv", EVEN_REGRESSIONS.values(), ids=EVEN_REGRESSIONS.keys())
def test_even_oracle_regressions_reach_the_closed_form(argv, capsys):
    assert main(["oracle", *argv, "--full-precision"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["deviation"] <= 1e-12


def _on_a_tetrahedron_face(n, rng):
    """A six-decimal triple on a face 1 + s_k . c = 0 of the even-n tetrahedron, exact in
    decimal, so its spectrum entry k rounds to a few ulps either side of 0."""
    s = _even_signs(n)
    while True:
        c = np.round(rng.uniform(-1, 1, 3), 6)
        k, j = rng.integers(4), rng.integers(3)
        c[j] = round(s[k, j] * (-1 - (s[k] @ c - s[k, j] * c[j])), 6)
        if np.abs(c).max() <= 1:
            try:
                return M3NState(n, CorrelationTriple(*c))
            except StateValidityError:
                pass


def test_even_oracle_reaches_the_closed_form_on_a_seeded_sweep():
    # at n = 2, 4, 6, 8, 12 and 40, under all five kinds: 150 six-decimal valid triples,
    # 20 on a tetrahedron face, and the four tetrahedron and six octahedron vertices.
    # No call raises, and every value lies within 1e-12 of the closed form
    rng = np.random.default_rng(31)
    calls, misses = 0, []
    for n in (2, 4, 6, 8, 12, 40):
        states = [M3NState(n, CorrelationTriple(*c)) for c in (*_even_signs(n), *np.eye(3),
                                                               *-np.eye(3))]
        states += [_on_a_tetrahedron_face(n, rng) for _ in range(20)]
        while len(states) < 180:
            try:
                states.append(M3NState(n, CorrelationTriple(*np.round(rng.uniform(-1, 1, 3), 6))))
            except StateValidityError:
                pass
        level = SeparabilityLevel(m=n)
        for state, kind in itertools.product(states, ALL_DISTANCES):
            got = brute_min_over_octahedron(state, kind)
            want = entanglement_m3n(state, level, kind).value
            if not abs(got - want) <= 1e-12:
                misses.append((n, tuple(state.c.as_array()), kind.value, got - want))
            calls += 1
    assert calls >= 5000
    assert not misses


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
        assert M3NState(out.n, correlation_triple(out)).c  # still a valid family member


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


# -- certified GHZ-diagonal minimum ----------------------------------------------

def _test_spectra(rng):
    for n in (2, 3, 4, 5):
        yield random_ghz_spectrum(n, rng)
        flat = np.zeros(2**n)
        top, rest = rng.choice(2**n, size=2, replace=False)
        flat[top] = 1.0
        yield GHZDiagonalState(n, flat.reshape(-1, 2))  # one entry
        flat[top], flat[rest] = 0.8, 0.2
        yield GHZDiagonalState(n, flat.reshape(-1, 2))  # sparse
        yield random_ghz_spectrum(n, rng, p_max_range=(0.5 + 1e-9, 0.5 + 1e-6))


#: a valid n=3 spectrum on which a capped-simplex projection of the candidate
#: leaves its Frank-Wolfe gap above 1e-12
HARSH_SPECTRUM = {"000+": 0.31656042001978096, "000-": 0.020663169834347007,
                  "001+": 0.0945100832086592, "001-": 1.3245579349095977e-09,
                  "010+": 0.015186687418303733, "010-": 0.012936296142178364,
                  "011+": 0.011974571526107649, "011-": 0.5281687705260653}


def _harsh_spectra(rng):
    # p_max next to 1 or just above 1/2 with a sparse tail, and a subnormal remainder
    for n in (2, 3, 4, 5, 8):
        size = 2**n
        for top, alpha in ((1 - 1e-12, 1.0), (1 - 1e-9, 1.0), (0.5 + 1e-9, 0.05), (0.53, 0.05)):
            tail = rng.dirichlet(np.full(size - 1, alpha)) * (1 - top)
            flat = np.insert(tail, rng.integers(size), top)
            yield GHZDiagonalState(n, flat.reshape(-1, 2))
        flat = np.zeros(size)
        flat[rng.choice(size, size=2, replace=False)] = (1.0, 5e-324)
        yield GHZDiagonalState(n, flat.reshape(-1, 2))
    yield GHZDiagonalState.from_json_dict({"n": 3, "p": HARSH_SPECTRUM})


@pytest.mark.parametrize("kind", ALL_DISTANCES)
def test_gap_certifies_analytic_candidate(kind, rng):
    for spec in (*_test_spectra(rng), *_harsh_spectra(rng)):
        p = spec.flat()
        q = _analytic_candidate(p)
        assert q.min() >= 0 and q.max() <= 0.5 and abs(q.sum() - 1) <= 1e-12, (spec.n, spec.p_max)
        assert _fw_gap(q, _surrogate_gradient(p, q, kind)) <= 1e-12, (spec.n, spec.p_max)


def test_gradient_matches_finite_differences(rng):
    # the surrogate gradient in q of each kind against central differences at interior spectra
    for kind, _ in itertools.product(ALL_DISTANCES, range(3)):
        p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        if kind is DistanceKind.TRACE and np.min(np.abs(p - q)) < 1e-3:
            continue
        g = _surrogate_gradient(p, q, kind)
        step = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = step
            # classical_distance needs sums of 1, so difference the unnormalised formulas
            want = (_surrogate(p, q + e, kind) - _surrogate(p, q - e, kind)) / (2 * step)
            assert g[k] == pytest.approx(want, rel=1e-5, abs=1e-7), (kind, k)


def _surrogate(p, q, kind):
    if kind is DistanceKind.TRACE:
        return 0.5 * np.sum(np.abs(p - q))
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return np.sum(p * np.log2(p / q))
    return -np.sum(np.sqrt(p * q))


@pytest.mark.parametrize("kind", [DistanceKind.TRACE, DistanceKind.SQUARED_HELLINGER])
def test_uncertified_candidate_raises(kind, monkeypatch, rng):
    spec = random_ghz_spectrum(2, rng, p_max_range=(0.7, 0.8))
    p = spec.flat()
    q = _analytic_candidate(p)
    formula = genuine_from_overlap(spec.p_max, kind)
    assert brute_min_biseparable_ghz(spec, kind) == pytest.approx(formula, abs=1e-14)
    # from the capped entry to the smallest: feasible, but trace distance grows by 0.05
    shift = np.zeros_like(q)
    shift[np.argsort(q)[[0, -1]]] = (0.05, -0.05)
    bad = q + shift
    assert _fw_gap(bad, _surrogate_gradient(p, bad, kind)) > 1e-6
    monkeypatch.setattr(oracle, "_analytic_candidate", lambda p: bad)
    with pytest.raises(EntboundError, match="not certified"):
        brute_min_biseparable_ghz(spec, kind)
    # p itself has gap 0, but its entry above 1/2 is not a biseparable spectrum
    monkeypatch.setattr(oracle, "_analytic_candidate", lambda p: p.copy())
    with pytest.raises(EntboundError, match=r", 0\.[78]\d*\], sum 1, Frank-Wolfe gap 0$"):
        brute_min_biseparable_ghz(spec, kind)


def test_oracles_never_below_closed_form(rng):
    for n in (2, 3, 4, 5):
        for kind in ALL_DISTANCES if n % 2 == 0 else (DistanceKind.TRACE,):
            state = random_m3n_outside_octahedron(n, rng)
            formula = entanglement_m3n(state, SeparabilityLevel(m=n), kind).value
            assert brute_min_over_octahedron(state, kind, FAST) >= formula - 1e-12
    for spec in _test_spectra(rng):
        for kind in ALL_DISTANCES:
            formula = genuine_ghz_diag(spec, kind).value
            assert brute_min_biseparable_ghz(spec, kind) >= formula - 1e-12


def test_octahedron_oracle_squared_bures_across_an_edge():
    # the grid's coarse minimum lay on the c3 = 0 edge of faces (-,+,+) and (-,+,-), and
    # the minimiser 3e-4 inside (-,+,-): the grid ended 1.1e-4 off, and at (40, 3)
    # with every face refined 2.6e-6 off
    state = M3NState(4, CorrelationTriple(-0.511822, 0.935388, -0.447535))
    kind = DistanceKind.SQUARED_BURES
    formula = entanglement_m3n(state, SeparabilityLevel(m=state.n), kind).value
    oracle_value = brute_min_over_octahedron(state, kind, OracleConfig(40, 3))
    assert abs(oracle_value - formula) < 1e-12


# -- full-separable-set cross-checks at n = 2 via the PPT characterisation -------

def _ppt_trace_distance(cvxpy, rho: np.ndarray) -> float:
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
    cvxpy = pytest.importorskip("cvxpy")
    # at n=2 the biseparable set is PPT-characterised, so the closed form can
    # be checked against the genuinely unrestricted minimisation
    for _ in range(4):
        state = random_m3n_outside_octahedron(2, rng, min_excess=0.05)
        sdp = _ppt_trace_distance(cvxpy, np.array(m3n_density(state).rho))
        formula = entanglement_m3n(state, SeparabilityLevel(m=2), DistanceKind.TRACE).value
        assert sdp == pytest.approx(formula, abs=2e-5)


def test_twirl_never_increases_entanglement_two_qubits(rng):
    cvxpy = pytest.importorskip("cvxpy")
    for _ in range(6):
        state = random_density(2, rng)
        before = _ppt_trace_distance(cvxpy, np.array(state.rho))
        twirled = m3n_density(M3NState(state.n, correlation_triple(state)))
        after = _ppt_trace_distance(cvxpy, np.array(twirled.rho))
        assert after <= before + 2e-5


def test_grid_resolution_maximum_fits_the_budget():
    with pytest.raises(ParameterError, match=f"grid_resolution must be in 4..{MAX_GRID_RESOLUTION}"):
        OracleConfig(grid_resolution=MAX_GRID_RESOLUTION + 1)
    assert OracleConfig(grid_resolution=MAX_GRID_RESOLUTION).grid_resolution == MAX_GRID_RESOLUTION
    budget = GRID_BUDGET
    assert (MAX_GRID_RESOLUTION + 1) ** 2 * oracle._POINT_BYTES <= budget
    assert (MAX_GRID_RESOLUTION + 2) ** 2 * oracle._POINT_BYTES > budget
    # the point bound holds for the grid, trace distance at odd n, with one face refined
    # and with two faces tied at the least coarse value
    resolution = 100
    cfg = OracleConfig(grid_resolution=resolution, refine_rounds=3)
    for n, c in [(3, (0.5, -0.5, 0.5)), (7, (-0.695964, -0.320874, -0.547274)),
                 (5, (-0.201255, 0.799276, -0.014865)), (3, (0.6, 0.7, 0.0))]:
        state = M3NState(n, CorrelationTriple(*c))
        tracemalloc.start()
        try:
            brute_min_over_octahedron(state, DistanceKind.TRACE, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (resolution + 1) ** 2 * oracle._POINT_BYTES, n
