import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import FORMS, random_density
from dense_reference import ghz_basis_vector, permutation_conjugate
from dense_rotation import apply_product_unitary
from entbound._linalg import hamming_weights, kron_all
from entbound.cli import main
from entbound import _linalg, optimize, qstate
from entbound.errors import CapacityError, ParameterError
from entbound.locc import GHZBasisIndex, ghz_diagonalise, ghz_overlaps
from entbound.optimize import (
    MAX_GRID_DENSITY,
    OptimisationOptions,
    _best_rotation_for_matrix,
    _class_columns,
    _class_terms,
    _ghz_bits,
    _overlap_ascent,
    _overlaps,
    _per_qubit_ascent,
    _qubit_matrix,
    _random_rotations,
    _rotated_betas,
    _screen_overlaps,
    _screen_tops,
    _shared_grid,
    _shared_refinement,
    _shared_objective,
    _shared_polynomial,
    optimise_ghz_overlap,
    optimise_triple,
)
from entbound.pauli import (
    CorrelationTensor,
    LocalRotation,
    contract_modes,
    correlation_tensor,
    quaternion_to_angles,
    rotated_triple,
    so3_from_angles,
    so3_to_angles,
    so3_to_quaternion,
    su2_from_angles,
)
from entbound.qstate import DenseState, StateFamily, build_state

#: bound on the bytes one overlap-screen row takes per overlap: 40 * 2^n a row
#: (tracemalloc measures 36 * 2^n)
SCREEN_ROW_BYTES_PER_OVERLAP = 40


def objective_of(family, n, mode="shared", **kw):
    state = build_state(family, n)
    tensor = correlation_tensor(state)
    opts = OptimisationOptions(mode=mode, **kw)
    return optimise_triple(tensor, opts)


def test_w3_reaches_published_maximum():
    rot, triple, obj = objective_of(StateFamily.w(), 3)
    assert obj == pytest.approx(np.sqrt(3), abs=1e-8)
    assert np.allclose(np.abs(triple.as_array()), 1 / np.sqrt(3), atol=1e-6)


def test_ghz4_maximum_at_identity():
    rot, triple, obj = objective_of(StateFamily.ghz(), 4)
    assert obj == pytest.approx(3.0, abs=1e-8)


def test_bell_matches_singular_values(rng):
    # for two qubits the optimum is the nuclear norm of the 3x3 correlation block
    state = build_state(StateFamily.ghz(), 2)
    _, _, obj = optimise_triple(correlation_tensor(state), OptimisationOptions(mode="per_qubit"))
    assert obj == pytest.approx(3.0, abs=1e-8)
    mixed = random_density(2, rng)
    tensor = correlation_tensor(mixed)
    block = tensor.bloch
    want = np.linalg.svd(block, compute_uv=False).sum()
    _, _, obj = optimise_triple(tensor, OptimisationOptions(mode="per_qubit", restarts=8))
    assert obj == pytest.approx(want, abs=1e-8)


def permutation_symmetrised(state):
    """The average of a state over every permutation of its qubits."""
    perms = list(itertools.permutations(range(state.n)))
    rho = sum(np.array(permutation_conjugate(state, perm).rho) for perm in perms) / len(perms)
    return DenseState(state.n, rho)


def test_objective_never_below_identity(rng):
    # shared mode runs only on permutation-symmetric tensors
    for mode, state in (("shared", permutation_symmetrised(random_density(3, rng))),
                        ("per_qubit", random_density(3, rng))):
        tensor = correlation_tensor(state)
        identity_val = tensor.diagonal_triple().abs_sum
        _, _, obj = optimise_triple(
            tensor, OptimisationOptions(mode=mode, restarts=4, grid_density=6)
        )
        assert obj >= identity_val - 1e-10


def test_objective_bounded_by_three(rng):
    state = random_density(2, rng)
    _, triple, obj = optimise_triple(
        correlation_tensor(state), OptimisationOptions(mode="per_qubit", restarts=4)
    )
    assert obj <= 3 + 1e-12
    assert all(abs(c) <= 1 for c in triple)


def test_invariance_under_pre_rotation(rng):
    # the optimised objective is a local-unitary invariant
    state = build_state(StateFamily.w(), 3)
    angles = [rng.uniform([0, 0, 0], [np.pi, 2 * np.pi, 2 * np.pi]) for _ in range(3)]
    rot = LocalRotation.from_per_qubit(angles)
    pre = DenseState(3, apply_product_unitary(np.array(state.rho), rot.unitaries(3), 3))
    _, _, obj1 = optimise_triple(
        correlation_tensor(state), OptimisationOptions(mode="per_qubit", restarts=12)
    )
    _, _, obj2 = optimise_triple(
        correlation_tensor(pre), OptimisationOptions(mode="per_qubit", restarts=12)
    )
    assert obj1 == pytest.approx(obj2, abs=1e-6)


def test_returned_rotation_reproduces_triple():
    state = build_state(StateFamily.w(), 4)
    tensor = correlation_tensor(state)
    rot, triple, obj = optimise_triple(tensor, OptimisationOptions())
    again = rotated_triple(tensor, rot)
    assert np.allclose(again.as_array(), triple.as_array(), atol=1e-12)
    assert obj == pytest.approx(again.abs_sum)


def test_determinism():
    state = build_state(StateFamily.cluster_linear(), 4)
    tensor = correlation_tensor(state)
    opts = OptimisationOptions(mode="per_qubit", restarts=6, seed=11)
    out1 = optimise_triple(tensor, opts)
    out2 = optimise_triple(tensor, opts)
    assert out1[2] == out2[2]
    assert out1[0] == out2[0]


def test_tied_screen_values_seed_in_grid_row_order(monkeypatch):
    # the seeds are the rows of largest screen value, ties taken in grid-row
    # order; an unstable sort orders ties by its internals and the grid's length
    planes = _shared_grid(5)
    grid = planes.reshape(-1, 3)
    values = np.zeros(len(grid))
    values[[90, 7, 64, 33]] = 2.0
    values[[120, 3, 41]] = 1.0
    real_objective = optimize._shared_objective

    def screened(poly, angles):
        # the screen reads the grid one theta plane at a time; Nelder-Mead reads other points
        for plane, plane_values in zip(planes, values.reshape(len(planes), -1)):
            if np.array_equal(angles, plane):
                return plane_values
        return real_objective(poly, angles)

    monkeypatch.setattr(optimize, "_shared_objective", screened)
    seen = []
    real_minimize = optimize.minimize

    def recording(fun, starts):
        seen.append(np.array(starts))
        return real_minimize(fun, starts)

    monkeypatch.setattr(optimize, "minimize", recording)
    tensor = correlation_tensor(build_state(StateFamily.w(), 3))
    optimise_triple(tensor, OptimisationOptions(restarts=10, grid_density=5))
    assert np.array_equal(seen[0], grid[[0, 7, 33, 64, 90, 3, 41, 120, 0, 1, 2]])


def test_shared_search_of_a_zero_tensor_reads_zero():
    # at n = 1 the ceiling is 3, so a zero Bloch vector is searched; its polynomial
    # keeps no coefficient once zeros are dropped, and every rotation reads 0
    mixed = StateFamily.white_noise_mix(StateFamily.dicke(1), 0.0)
    tensor = correlation_tensor(build_state(mixed, 1))
    poly = _shared_polynomial(tensor.bloch)
    assert len(poly[0]) == 0
    assert np.array_equal(_shared_objective(poly, np.ones((4, 3))), np.zeros(4))
    _, triple, value = optimise_triple(tensor)
    assert value == 0.0 and triple.abs_sum == 0.0


def test_shared_mode_rejects_asymmetric_tensor():
    for n in (4, 6):
        with pytest.raises(ParameterError):
            optimise_triple(
                correlation_tensor(build_state(StateFamily.cluster_linear(), n)),
                OptimisationOptions(mode="shared"),
            )


def test_options_validation():
    with pytest.raises(ParameterError):
        OptimisationOptions(mode="other")
    with pytest.raises(ParameterError):
        OptimisationOptions(restarts=0)
    with pytest.raises(ParameterError):
        OptimisationOptions(grid_density=1)
    with pytest.raises(ParameterError, match=f"grid_density must be in 2..{MAX_GRID_DENSITY}"):
        OptimisationOptions(grid_density=MAX_GRID_DENSITY + 1)
    assert OptimisationOptions(grid_density=MAX_GRID_DENSITY).grid_density == MAX_GRID_DENSITY


def test_overlap_screen_row_bound():
    # the screen's peak over its 216 rows at n = 10
    n = 10
    state = build_state(StateFamily.w(), n)
    grid = _shared_grid(6)
    tracemalloc.start()
    try:
        _screen_overlaps(state, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 216 * SCREEN_ROW_BYTES_PER_OVERLAP * 2**n


def test_overlap_pure_ghz_identity():
    state = build_state(StateFamily.ghz(), 3)
    rot, idx, p = optimise_ghz_overlap(state)
    assert p == pytest.approx(1.0, abs=1e-9)
    assert idx.key == "000+"


def test_overlap_dicke_published_value():
    state = build_state(StateFamily.dicke(2), 4)
    rot, idx, p = optimise_ghz_overlap(state)
    assert p == pytest.approx(0.75, abs=1e-6)


def test_overlap_singlet_without_rotation():
    state = build_state(StateFamily.singlet4(), 4)
    rot, idx, p = optimise_ghz_overlap(state, OptimisationOptions())
    assert p >= 2 / 3 - 1e-9
    base = ghz_diagonalise(state)
    assert p >= base.p_max - 1e-12


def test_overlap_never_below_unrotated(rng):
    state = random_density(3, rng)
    base = ghz_diagonalise(state).p_max
    _, _, p = optimise_ghz_overlap(
        state, OptimisationOptions(restarts=4, grid_density=6)
    )
    assert p >= base - 1e-12


def dense_overlap(rho, idx, unitaries):
    """<beta| U rho U^dag |beta> through a dense conjugation."""
    beta = ghz_basis_vector(idx, idx.n)
    rotated = apply_product_unitary(np.array(rho), unitaries, idx.n)
    return float(np.real(beta.conj() @ rotated @ beta))


def random_angles(rng, count):
    return rng.uniform([0, 0, 0], [np.pi, 2 * np.pi, 2 * np.pi], size=(count, 3))


@pytest.mark.parametrize("mode", ["shared", "per_qubit"])
@pytest.mark.parametrize("case", ["w", "dicke", "random"])
def test_returned_rotation_reproduces_overlap(mode, case, rng):
    if case == "random":
        state = random_density(3, rng)
    else:
        family = StateFamily.w() if case == "w" else StateFamily.dicke(2)
        state = build_state(family, 4)
    opts = OptimisationOptions(mode=mode, restarts=4, grid_density=8)
    rot, idx, p = optimise_ghz_overlap(state, opts)
    assert dense_overlap(state.rho, idx, rot.unitaries(state.n)) == pytest.approx(p, abs=1e-12)


def symmetric_tensor(rng, n, terms=3):
    """sum_r lambda_r v_r^{xn}: a permutation-symmetric (3,)*n tensor."""
    out = np.zeros((3,) * n)
    for lam, v in zip(rng.standard_normal(terms), rng.standard_normal((terms, 3))):
        term = np.array(lam)
        for _ in range(n):
            term = np.multiply.outer(term, v)
        out += term
    return out / np.abs(out).max()


@pytest.mark.parametrize("n", range(2, 11))
def test_shared_polynomial_matches_mode_contraction(n, rng):
    angles = random_angles(rng, 16)
    rows = np.swapaxes(so3_from_angles(angles), 0, 1)  # (3, G, 3)
    rows = np.broadcast_to(rows[:, :, None, :], rows.shape[:2] + (n, 3)).reshape(-1, n, 3)
    for bloch in (symmetric_tensor(rng, n), rng.uniform(-1, 1, size=(3,) * n)):
        want = np.abs(contract_modes(bloch, rows).reshape(3, -1)).sum(axis=0)
        got = _shared_objective(_shared_polynomial(bloch), angles)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert _shared_objective(_shared_polynomial(bloch), angles[0]) == pytest.approx(
            want[0], abs=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_vector_overlap_matches_dense(n, rng):
    state = random_density(n, rng)
    rho = np.array(state.rho)
    for _ in range(3):
        angles = random_angles(rng, n)
        unitaries = [su2_from_angles(a) for a in angles]
        idxs = [GHZBasisIndex(n, i, sign) for i in range(2 ** (n - 1)) for sign in (1, -1)]
        bits = np.array([_ghz_bits(idx) for idx in idxs])
        signs = np.array([idx.sign for idx in idxs])
        us = np.broadcast_to(su2_from_angles(angles), (len(idxs), n, 2, 2))
        got = _overlaps(state, bits, signs, us)
        for idx, value in zip(idxs, got):
            assert value == pytest.approx(dense_overlap(rho, idx, unitaries), abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_screen_overlaps_match_dense_rotation(n, rng):
    state = random_density(n, rng)
    rho = np.array(state.rho)
    grid = _shared_grid(3)
    batched = _screen_overlaps(state, grid)
    assert batched.shape == (27, 2**n)
    for angles, row in zip(grid.reshape(-1, 3), batched):
        u = su2_from_angles(angles)
        rotated = DenseState(n, apply_product_unitary(rho, [u] * n, n))
        assert np.allclose(row, ghz_diagonalise(rotated).flat(), rtol=0, atol=1e-14)


def row_screen(state, angles):
    """GHZ-basis overlaps at angle rows (R, 3) in any order, one lines_under
    read per distinct (theta, psi) pair found by np.unique: the screen of
    arbitrary rows that the plane screen replaced."""
    n = state.n
    pairs, which = np.unique(angles[:, :2], axis=0, return_inverse=True)
    v = su2_from_angles(np.column_stack([pairs, np.zeros(len(pairs))]))
    diag, anti = state.lines_under([v] * n)
    half = 2 ** (n - 1)
    which = which.reshape(-1)
    turns = n - 2 * hamming_weights(n)[:half]
    anti = anti[which, :half] * np.exp(-1j * angles[:, 2:] * turns)
    return ghz_overlaps(diag[which], anti).reshape(len(angles), -1)


@pytest.mark.parametrize("source", ["built", "outside"])
@pytest.mark.parametrize("n", range(2, 9))
def test_plane_screen_equals_row_screen_bit_for_bit(n, source, rng):
    # the row screen read the grid with a copy of the identity in front of
    # it; every row of the planes screens to the same bits as there
    if source == "built":
        states = [build_state(StateFamily.w(), n),
                  build_state(StateFamily.white_noise_mix(StateFamily.ghz(), 0.7), n),
                  build_state(StateFamily.m3n([0.3, -0.2, 0.4]), n)]
    else:
        states = [random_density(n, rng)]
    for density in range(4, 15):
        grid = _shared_grid(density)
        rows = np.vstack([np.zeros((1, 3)), grid.reshape(-1, 3)])
        for state in states:
            want = row_screen(state, rows)
            assert np.array_equal(want[0], want[1])
            assert np.array_equal(_screen_overlaps(state, grid), want[1:])


def so3_from_quaternion(q):
    """The rotation O[l, m] = q^T F[l, m] q of each quaternion's lift; (..., 4) gives (..., 3, 3)."""
    return np.einsum("lmab,...a,...b->...lm", optimize._QUATERNION_FORMS, q, q)


def quaternion_step_inputs(rng):
    """3x3 matrices for the quaternion step: random ones, ranks 0, 1 and 2, negative
    determinants, and the identity and rotations by pi about each axis, which the
    step returns unchanged and whose lifts take the other quaternion branches."""
    random = rng.standard_normal((40, 3, 3))
    u, _, vt = np.linalg.svd(rng.standard_normal((3, 3, 3)))
    ranks = [np.zeros((3, 3))] + [u[r] @ np.diag(sv) @ vt[r]
                                  for r, sv in enumerate([[2.0, 0, 0], [1.5, 0.5, 0]])]
    # a rank-1 matrix with a repeated direction, and a rank-2 one with equal values
    ranks += [np.outer([1.0, 2, -1], [0.5, 0.0, 1]), np.diag([1.0, 1, 0])]
    negative = random[:10].copy()
    negative[np.linalg.det(negative) > 0, 0] *= -1
    proper = [np.eye(3), np.diag([1.0, -1, -1]), np.diag([-1.0, 1, -1]), np.diag([-1.0, -1, 1])]
    return np.concatenate([random, ranks, negative, _random_rotations(rng, 10), proper])


def test_quaternion_step_matches_the_proper_polar_factor(rng):
    gs = quaternion_step_inputs(rng)
    q, gain = optimize._quaternion_step(gs)
    o = so3_from_quaternion(q)
    u_svd, _, vt = np.linalg.svd(np.swapaxes(gs, -1, -2))
    polar = optimize._proper_polar(u_svd, vt)
    for g, qr, val, rot, ref in zip(gs, q, gain, o, polar):
        assert np.linalg.norm(qr) == pytest.approx(1.0, abs=1e-12)
        # proper orthogonal
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        # the top eigenvalue is the step's gain, and equals the polar factor's value
        assert val == pytest.approx(np.sum(rot * g), abs=1e-12)
        assert val == pytest.approx(np.sum(ref * g), abs=1e-12)
    # a proper rotation is its own best step
    assert np.allclose(o[-14:], gs[-14:], atol=1e-12)


def test_quaternion_lift_matches_adjoint_action(rng):
    # the overlap ascent takes each step's unitary from the quaternion, with no
    # angles; the angles read from its rotation lift it back, up to sign
    q, _ = optimize._quaternion_step(quaternion_step_inputs(rng))
    os = so3_from_quaternion(q)
    us = optimize._su2_from_quaternion(q)
    paulis = _linalg.SIGMA_STACK[1:]
    for o, u in zip(os, us):
        turned = u @ paulis @ u.conj().T
        assert np.allclose(turned, np.einsum("kj,kab->jab", o, paulis), atol=1e-12)
        via_angles = su2_from_angles(so3_to_angles(o))
        assert min(np.abs(u - via_angles).max(), np.abs(u + via_angles).max()) <= 1e-12
    # the ascent reads its angles from the quaternions, of either sign
    for sign in (1, -1):
        via_angles = su2_from_angles(quaternion_to_angles(sign * q))
        assert np.all(np.minimum(np.abs(us - via_angles).max(axis=(1, 2)),
                                 np.abs(us + via_angles).max(axis=(1, 2))) <= 1e-12)
    assert np.allclose(so3_from_quaternion(so3_to_quaternion(os)), os, atol=1e-12)


def test_quaternion_step_beats_random_rotations(rng):
    for _ in range(5):
        g = rng.standard_normal((3, 3))
        o = so3_from_quaternion(optimize._quaternion_step(g)[0])
        assert np.allclose(o @ o.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-12)
        best = np.trace(o.T @ g)
        others = np.einsum("rlm,lm->r", _random_rotations(rng, 200), g)
        assert np.all(others <= best + 1e-12)
        # the sign-class search sits on the same step
        _, val = _best_rotation_for_matrix(g)
        assert val >= np.abs(np.einsum("ij,ij->i", o, g)).sum() - 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_overlap_ascent_reaches_nelder_mead(n, rng):
    for _ in range(2):
        state = random_density(n, rng)
        rho = np.array(state.rho)
        idx = GHZBasisIndex(n, int(rng.integers(2 ** (n - 1))), int(rng.choice([1, -1])))
        starts = [np.zeros((n, 3))] + [rng.uniform(0, np.pi, size=(n, 3)) for _ in range(2)]

        beta = ghz_basis_vector(idx, n)

        def neg(x):
            u = kron_all([su2_from_angles(a) for a in x.reshape(n, 3)])
            back = u.conj().T @ beta
            return -float(np.real(back.conj() @ rho @ back))

        bits = np.tile(_ghz_bits(idx), (len(starts), 1))
        signs = np.full(len(starts), idx.sign)
        ascent = _overlap_ascent(state, bits, signs, starts)[1].max()
        reference = max(
            -minimize(neg, s.ravel(), method="Nelder-Mead",
                      options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 5000}).fun
            for s in starts
        )
        assert ascent >= reference - 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_per_qubit_ascent_runs_to_convergence(n, rng, monkeypatch):
    # a stop at 1e-8 sweep gain ended the triple ascent up to 3.1e-8 short; the
    # 1e-12 stop ends it at most 2.4e-12 short on 100 random densities
    for _ in range(4):
        bloch = correlation_tensor(random_density(n, rng)).bloch
        starts = [np.tile(np.eye(3), (n, 1, 1))] + [_random_rotations(rng, n) for _ in range(3)]
        val = _per_qubit_ascent(bloch, starts)[1]
        with monkeypatch.context() as m:
            m.setattr(optimize, "_ASCENT_TOL", 1e-14)
            tight = _per_qubit_ascent(bloch, starts)[1]
        assert abs(tight - val) <= 1e-11


# -- lockstep searches against their serial forms ------------------------------------

NELDER_MEAD = {"xatol": optimize._REFINE_TOL, "fatol": optimize._REFINE_TOL,
               "maxiter": optimize._NM_MAXITER}


def rosenbrock_rows(run_ids, x):
    """A 3-d Rosenbrock valley per row, shifted by the run id; elementwise in the rows."""
    shift = 0.1 * np.asarray(run_ids)
    x0, x1, x2 = x[..., 0] - shift, x[..., 1], x[..., 2] + shift
    return (1 - x0) ** 2 + 100 * (x1 - x0**2) ** 2 + (1 - x1) ** 2 + 100 * (x2 - x1**2) ** 2


def rosenbrock_rows_2d(run_ids, x):
    """A 2-d Rosenbrock valley per row, shifted by the run id, as the shared overlap
    search minimises over (theta, psi)."""
    x0, x1 = x[..., 0] - 0.1 * np.asarray(run_ids), x[..., 1]
    return (1 - x0) ** 2 + 100 * (x1 - x0**2) ** 2


@pytest.mark.parametrize("maxiter", [NELDER_MEAD["maxiter"], 40])
def test_lockstep_minimize_matches_scipy_nelder_mead(maxiter, rng, monkeypatch):
    options = dict(NELDER_MEAD, maxiter=maxiter)
    monkeypatch.setattr(optimize, "_NM_MAXITER", maxiter)
    for fun, dim in ((rosenbrock_rows, 3), (rosenbrock_rows_2d, 2)):
        starts = np.vstack([np.zeros(dim), [1.0, 0.0, -2.0][:dim],
                            rng.uniform(-2, 2, size=(10, dim))])
        res = optimize.minimize(fun, starts)
        nfev = nit = 0
        for run, start in enumerate(starts):
            ref = minimize(lambda x: fun(run, x), start, method="Nelder-Mead", options=options)
            assert np.array_equal(res.x[run], ref.x)
            assert res.fun[run] == ref.fun
            nfev, nit = nfev + ref.nfev, nit + ref.nit
        assert (res.nfev, res.nit) == (nfev, nit)
        assert type(res.nfev) is int and type(res.nit) is int


SHARED_STATES = [
    (StateFamily.ghz(), 3), (StateFamily.w(), 3), (StateFamily.w(), 4), (StateFamily.dicke(2), 4),
    (StateFamily.w(), 5), (StateFamily.dicke(2), 6), (StateFamily.ghz(), 7), (StateFamily.w(), 8),
]


def assert_runs_match_scipy(res, fun, starts):
    """Every run of the lockstep result equals scipy's Nelder-Mead from its start, bit for
    bit, on the run's own objective ``fun(run, x)``; so do the summed counts."""
    nfev = nit = 0
    for run, start in enumerate(starts):
        ref = minimize(lambda x: fun(run, x), start, method="Nelder-Mead", options=NELDER_MEAD)
        assert np.array_equal(res.x[run], ref.x)
        assert res.fun[run] == ref.fun
        nfev, nit = nfev + ref.nfev, nit + ref.nit
    assert (res.nfev, res.nit) == (nfev, nit)


@pytest.mark.parametrize("case", range(len(SHARED_STATES) + 6))
def test_lockstep_minimize_matches_scipy_on_shared_objective(case, rng):
    # each iteration evaluates all four candidates of every run in one call, so
    # a run's path is scipy's only while no row's value depends on its batch
    if case < len(SHARED_STATES):
        family, n = SHARED_STATES[case]
        bloch = correlation_tensor(build_state(family, n)).bloch
    else:
        n = case - len(SHARED_STATES) + 3
        bloch = symmetric_tensor(rng, n)
    poly = _shared_polynomial(bloch)
    grid = _shared_grid(6).reshape(-1, 3)
    starts = np.vstack([grid[:1], grid[np.argsort(_shared_objective(poly, grid))[::-1][:8]]])
    res = optimize.minimize(lambda _, x: -_shared_objective(poly, x), starts)
    assert_runs_match_scipy(res, lambda _, x: -_shared_objective(poly, x), starts)


def refinement_objective(state, idxs, starts, monkeypatch):
    """The objective ``fun(run_ids, points)`` that :func:`_shared_refinement` hands to
    minimize for these runs, and minimize's result."""
    seen = []
    real = optimize.minimize

    def recording(fun, starts):
        seen.append((fun, real(fun, starts)))
        return seen[-1][1]

    with monkeypatch.context() as m:
        m.setattr(optimize, "minimize", recording)
        _shared_refinement(state, idxs, starts)
    return seen[0]


#: states of the overlap-profile checks: W, Dicke(2) and white-noise mixes
PROFILE_STATES = [
    (StateFamily.w(), 4), (StateFamily.dicke(2), 5), (StateFamily.w(), 5),
    (StateFamily.white_noise_mix(StateFamily.dicke(2), 0.535069), 6),
    (StateFamily.white_noise_mix(StateFamily.w(), 0.7), 6), (StateFamily.dicke(2), 8),
]


@pytest.mark.parametrize("family, n", PROFILE_STATES)
def test_lockstep_minimize_matches_scipy_on_overlap_profile(family, n, rng, monkeypatch):
    # the (theta, psi) refinement of several GHZ indices, two runs each, against
    # scipy run by run on each run's own profile
    state = build_state(family, n)
    idxs = [GHZBasisIndex(n, i, sign) for i, sign in ((0, -1), (1, 1), (2 ** (n // 2) - 1, 1))]
    idxs = [idx for idx in idxs for _ in range(2)]
    starts = random_angles(rng, len(idxs))[:, :2]
    starts[::2] = 0.0
    fun, res = refinement_objective(state, idxs, starts, monkeypatch)
    assert_runs_match_scipy(res, lambda run, x: fun(np.array([run]), x[None])[0], starts)


def assert_rows_ignore_their_batch(values_of, count, rng):
    """values_of(rows) gives one value per row index; each row's value alone must equal
    its value inside shuffled batches of 2 to 200 rows, bit for bit."""
    alone = np.array([values_of(np.array([r]))[0] for r in range(count)])
    for size in (2, 3, 4, 7, 8, 9, 31, 33, 64, 132, 200):
        order = rng.permutation(count)
        for start in range(0, count, size):
            rows = order[start:start + size]
            assert np.array_equal(values_of(rows), alone[rows]), size


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("family", [
    StateFamily.w(), StateFamily.dicke(2), StateFamily.white_noise_mix(StateFamily.w(), 0.6),
    StateFamily.white_noise_mix(StateFamily.dicke(2), 0.535069),
])
def test_objective_rows_do_not_depend_on_their_batch(family, n, rng, monkeypatch):
    # minimize evaluates its candidates in batches whose make-up is not scipy's, so
    # each row must take the same bits alone, as scipy evaluates it, and in any batch
    state = build_state(family, n)
    poly = _shared_polynomial(correlation_tensor(state).bloch)
    angles = random_angles(rng, 200)
    assert all(_shared_objective(poly, a) == _shared_objective(poly, a[None])[0]
               for a in angles[:20])
    assert_rows_ignore_their_batch(lambda rows: _shared_objective(poly, angles[rows]), 200, rng)
    # the overlap profile, over several indices at once as the refinement runs it
    idxs = [GHZBasisIndex(n, i, sign) for i, sign in ((0, 1), (1, -1), (2 ** (n // 2) - 1, 1))]
    fun, _ = refinement_objective(state, idxs, np.zeros((len(idxs), 2)), monkeypatch)
    runs = rng.integers(len(idxs), size=200)
    points = angles[:, :2]
    assert_rows_ignore_their_batch(lambda rows: fun(runs[rows], points[rows]), 200, rng)


def serial_best_rotation(b):
    """The per-matrix sign-class step as the ascent ran it one start at a time, one SVD per class.

    Returns the rotation and its value."""
    best_o, best_val = None, -np.inf
    for s in optimize._SIGN_CLASSES:
        u, _, vt = np.linalg.svd(b.T * s[None, :])
        o = (u @ vt).T
        if np.linalg.det(o) < 0:
            o = (u @ np.diag([1.0, 1.0, -1.0]) @ vt).T
        val = float(np.sum(np.abs(np.einsum("ij,ij->i", o, b))))
        if val > best_val:
            best_o, best_val = o, val
    return best_o, best_val


def test_one_svd_step_matches_four_sign_class_svds(rng):
    full = rng.standard_normal((400, 3, 3))
    rank2 = rng.standard_normal((200, 3, 2)) @ rng.standard_normal((200, 2, 3))
    rank1 = rng.standard_normal((200, 3, 1)) @ rng.standard_normal((200, 1, 3))
    for stack in (full, rank2, rank1):
        os, vals = _best_rotation_for_matrix(stack)
        for b, o, val in zip(stack, os, vals):
            ref_o, ref_val = serial_best_rotation(b)
            # the same SVD up to column signs, so equal bit for bit with LAPACK's
            # Householder bidiagonalisation; the tolerance leaves room for others
            assert abs(val - ref_val) <= 1e-15
            assert np.max(np.abs(o - ref_o)) <= 1e-15


def serial_ascent(bloch, starts):
    """The per-qubit triple ascent one start at a time, as the package once ran it."""
    n = bloch.ndim
    best_os, best_val = None, -np.inf
    for os_init in starts:
        os = os_init.copy()
        val = -np.inf
        for _ in range(optimize._MAX_SWEEPS):
            for k in range(n):
                rows = np.broadcast_to(np.swapaxes(os, 0, 1)[:, None], (3, 3, n, 3)).copy()
                rows[:, :, k] = np.eye(3)
                b = contract_modes(bloch, rows.reshape(9, n, 3)).reshape(3, 3)
                os[k] = serial_best_rotation(b)[0]
            new_val = float(np.abs(contract_modes(bloch, np.swapaxes(os, 0, 1))).sum())
            if new_val <= val + optimize._ASCENT_TOL:
                val = max(val, new_val)
                break
            val = new_val
        if val > best_val:
            best_os, best_val = os, val
    return best_os, best_val


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("source", ["random-3", "random-4", "random-5", "cluster-6", "cluster-8"])
def test_lockstep_ascent_matches_serial(source, chunk, rng, monkeypatch):
    kind, n = source.split("-")
    n = int(n)
    if kind == "random":
        state = random_density(n, rng)
    else:
        state = build_state(StateFamily.cluster_linear(), n)
    bloch = correlation_tensor(state).bloch
    starts = [np.tile(np.eye(3), (n, 1, 1))] + [_random_rotations(rng, n) for _ in range(7)]
    if chunk is not None:
        # chunks of `chunk` starts
        monkeypatch.setattr(_linalg, "CHUNK_ENTRIES", chunk * 9 * 3 ** (n - 1))
    os, val = _per_qubit_ascent(bloch, starts)
    ref_os, ref_val = serial_ascent(bloch, starts)
    assert abs(val - ref_val) <= 1e-15
    assert np.max(np.abs(os - ref_os)) <= 1e-15


OVERLAP_ASCENT_STATES = {
    "random-3": lambda rng: random_density(3, rng),
    "w-4": lambda rng: build_state(StateFamily.w(), 4),
    "m3n-5": lambda rng: build_state(StateFamily.m3n((0.3, -0.2, 0.4)), 5),
    "w-mix-6": lambda rng: build_state(StateFamily.white_noise_mix(StateFamily.w(), 0.7), 6),
    "dicke-outside-6": lambda rng: DenseState(6, np.array(build_state(StateFamily.dicke(3), 6).rho)),
}


@pytest.mark.parametrize("source", list(OVERLAP_ASCENT_STATES))
def test_lockstep_overlap_ascent_matches_each_run_alone(source, rng, monkeypatch):
    state = OVERLAP_ASCENT_STATES[source](rng)
    n = state.n
    # three GHZ indices, each from the identity, a tiled shared triple and a random start
    idxs = [GHZBasisIndex(n, int(i), int(s)) for i, s in
            zip(rng.integers(2 ** (n - 1), size=3), rng.choice([1, -1], size=3))]
    runs = [idx for idx in idxs for _ in range(3)]
    starts = [s for _ in idxs for s in (np.zeros((n, 3)), np.tile(random_angles(rng, 1), (n, 1)),
                                       rng.uniform(0, np.pi, size=(n, 3)))]
    bits = np.array([_ghz_bits(idx) for idx in runs])
    signs = np.array([idx.sign for idx in runs])
    angles, vals = _overlap_ascent(state, bits, signs, starts)
    assert angles.shape == (len(runs), n, 3) and vals.shape == (len(runs),)
    for r in range(len(runs)):
        alone = _overlap_ascent(state, bits[r:r + 1], signs[r:r + 1], starts[r:r + 1])
        assert np.max(np.abs(alone[0][0] - angles[r])) <= 1e-14
        assert abs(alone[1][0] - vals[r]) <= 1e-14
        assert vals[r] == pytest.approx(
            dense_overlap(state.rho, runs[r], [su2_from_angles(a) for a in angles[r]]), abs=1e-14)
    # chunks of two runs
    monkeypatch.setattr(_linalg, "CHUNK_ENTRIES", 2 * 4 * 2**n)
    chunked = _overlap_ascent(state, bits, signs, starts)
    assert np.max(np.abs(chunked[0] - angles)) <= 1e-14
    assert np.max(np.abs(chunked[1] - vals)) <= 1e-14


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_batched_screen_matches_per_plane(n, chunk, rng, monkeypatch):
    state = random_density(n, rng)
    # 5 planes of 5 (theta, psi) pairs with 5 phis each
    grid = _shared_grid(5)
    if chunk is not None:
        # chunks of `chunk` (theta, psi) pairs
        monkeypatch.setattr(_linalg, "CHUNK_ENTRIES", chunk * 4 ** (n + 1))
    batched = _screen_overlaps(state, grid)
    assert batched.shape == (125, 2**n)
    for t, rows in enumerate(batched.reshape(5, 25, -1)):
        assert np.allclose(rows, _screen_overlaps(state, grid[t : t + 1]), rtol=0, atol=1e-14)


@pytest.mark.parametrize("source", ["built", "outside"])
@pytest.mark.parametrize("mode", ["shared", "per_qubit"])
def test_default_screen_contracts_once_per_theta_psi(mode, source, monkeypatch):
    # the default overlap grid holds 6 theta planes of 6 psis with 6 phis each:
    # 36 rotations read for 216 rows
    rows = []
    lines_under = DenseState.lines_under

    def counting(state, us, anti=True):
        rows.append(np.prod(np.shape(us[0])[:-2]))
        return lines_under(state, us, anti)

    monkeypatch.setattr(DenseState, "lines_under", counting)
    state = build_state(StateFamily.w(), 3)
    if source == "outside":
        state = DenseState(3, np.array(state.rho))
    optimise_ghz_overlap(state, OptimisationOptions(mode=mode))
    assert _shared_grid(6).shape == (6, 36, 3)
    assert rows == [36]


@pytest.mark.parametrize("n", range(2, 9))
def test_shared_overlaps_match_per_qubit_product_vectors(n, rng):
    state = random_density(n, rng)
    rho = np.array(state.rho)
    bits = rng.integers(0, 2, size=(12, n))
    signs = rng.choice([1, -1], size=12)
    angles = random_angles(rng, 12)
    # one unitary per row, on every qubit
    us = np.broadcast_to(su2_from_angles(angles)[:, None], (12, n, 2, 2))
    got = _overlaps(state, bits, signs, us)
    # U^dag beta built qubit by qubit with np.kron, read by the dense quadratic form
    def product(rows):
        return kron_all([r.reshape(1, 2) for r in rows])[0]

    v = np.array([product([u[x] for x in row]) + s * product([u[1 - x] for x in row])
                  for row, s, u in zip(bits, signs, su2_from_angles(angles).conj())]) / np.sqrt(2)
    assert np.allclose(_rotated_betas(bits, signs, us), v, rtol=0, atol=1e-15)
    assert np.allclose(got, np.einsum("ri,ri->r", v.conj(), v @ rho.T).real, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "n, source", [(n, "random") for n in range(1, 9)] + [(n, "cluster") for n in range(2, 9)]
)
def test_sweep_cache_matrices_match_full_contraction(n, source, rng):
    # the cluster tensor has many exact zeros, and signed permutations keep
    # them zero: b equals the reference bit for bit, signs of zeros included
    if source == "random":
        bloch = rng.uniform(-1, 1, size=(3,) * n)
        # a signed zero, which b at n = 1 reads without a contraction
        bloch.flat[0] = -0.0
    else:
        bloch = correlation_tensor(build_state(StateFamily.cluster_linear(), n)).bloch
    perm = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])
    os = np.concatenate([
        np.stack([np.tile(np.eye(3), (n, 1, 1)), np.tile(perm, (n, 1, 1))]),
        _random_rotations(rng, 3 * n).reshape(3, n, 3, 3),
    ])
    left = bloch
    for k in range(n):
        got = _qubit_matrix(left, os, k)
        rows = np.broadcast_to(np.swapaxes(os, 1, 2)[:, :, None], (5, 3, 3, n, 3)).copy()
        rows[:, :, :, k] = np.eye(3)
        want = contract_modes(bloch, rows.reshape(-1, n, 3)).reshape(5, 3, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # bloch with modes 0..k contracted by row i of each start's rotations,
        # as the ascent carries it
        step = os[:, k].reshape(-1, 3)
        if k == 0:
            left = step @ bloch.reshape(3, -1)
        else:
            left = np.einsum("bj,bjr->br", step, left.reshape(len(left), 3, -1))


def test_per_qubit_working_set_is_bounded(monkeypatch):
    # unchunked, the 32 default starts at n=10 hold a (288, 3^9) intermediate
    # and peak at about 60 MB; in chunks of CHUNK_ENTRIES (8 MB of float64)
    # the peak stays near 10 MB. One sweep shows the whole working set.
    tensor = correlation_tensor(build_state(StateFamily.cluster_linear(), 10))
    monkeypatch.setattr(optimize, "_MAX_SWEEPS", 1)
    tracemalloc.start()
    try:
        optimise_triple(tensor, OptimisationOptions(mode="per_qubit"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * _linalg.CHUNK_ENTRIES


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "family", [StateFamily.ghz(), StateFamily.wei(0.5)], ids=["pure", "x"]
)
def test_block_charge_bounds_a_correlation_sum_search_at_n13(family):
    # bloch() admits n = 13 on its charge; the search that reads the block peaks at
    # about 73 MiB in shared mode (the per-qubit peak is lower) against 243 MiB charged.
    # The X form is Wei's: an m3n block meets its l1 norm unrotated and is not searched
    state = build_state(family, 13)
    peak = traced_peak(lambda: optimise_triple(correlation_tensor(state), OptimisationOptions()))
    assert peak <= qstate._BLOCK_ENTRY_BYTES * 3**13 + qstate._BLOCK_FIXED_BYTES


@pytest.mark.parametrize("density", range(2, MAX_GRID_DENSITY + 1))
def test_correlation_screen_plane_walk_matches_one_batch(density, rng):
    grid = _shared_grid(density)
    rows = grid.reshape(-1, 3)
    # one plane per theta, density^3 distinct rows, the identity first
    assert grid.shape == (density, density**2, 3)
    assert all(np.unique(p[:, 0]).size == 1 for p in grid)
    assert len(np.unique(rows, axis=0)) == density**3
    assert np.array_equal(rows[0], np.zeros(3))
    blochs = [rng.uniform(-1, 1, size=(3,) * n) for n in (2, 3, 5)]
    for family, n in ((StateFamily.w(), 4), (StateFamily.dicke(2), 6)):
        blochs.append(correlation_tensor(build_state(family, n)).bloch)
    for bloch in blochs:
        poly = _shared_polynomial(bloch)
        walked = np.concatenate([_shared_objective(poly, plane) for plane in grid])
        assert np.array_equal(walked, _shared_objective(poly, rows))


@pytest.mark.parametrize("one_plane", [False, True])
@pytest.mark.parametrize("density", range(4, MAX_GRID_DENSITY // 2 + 1))
def test_overlap_screen_plane_walk_matches_one_batch(density, one_plane, rng, monkeypatch):
    # at these n the whole grid fits one read; a CHUNK_ENTRIES of 1 makes
    # every theta plane a read of its own
    if one_plane:
        monkeypatch.setattr(_linalg, "CHUNK_ENTRIES", 1)
    grid = _shared_grid(density)
    states = [
        random_density(3, rng),
        build_state(StateFamily.w(), 5),
        # equal top overlaps, where the first index within _TIE_TOL of the top is taken
        build_state(StateFamily.m3n([0.3, -0.2, 0.4]), 5),
        build_state(StateFamily.white_noise_mix(StateFamily.ghz(), 0.7), 4),
    ]
    for state in states:
        full = _screen_overlaps(state, grid)
        top = full.max(axis=1)
        pos = np.argmax(full >= top[:, None] - optimize._TIE_TOL, axis=1)
        tops, got_pos = _screen_tops(state, grid)
        assert np.array_equal(got_pos, pos)
        assert np.array_equal(tops, top)


def test_screens_hold_part_of_the_largest_grid(monkeypatch):
    # at grid_density 29 the correlation-sum grid has 24,389 rows, about 97 MB
    # of terms at n = 8 in one batch; walked by theta plane, the whole shared
    # search (grid, values, seeds and Nelder-Mead) peaks below two planes'
    # terms (841 rows each): tracemalloc measures 4.9 MB against one plane's 3.3
    density = MAX_GRID_DENSITY
    tensor = correlation_tensor(build_state(StateFamily.w(), 8))
    poly = _shared_polynomial(tensor.bloch)
    grid = _shared_grid(density)
    plane_peak = traced_peak(lambda: _shared_objective(poly, grid[0]))
    opts = OptimisationOptions(grid_density=density)
    assert traced_peak(lambda: optimise_triple(tensor, opts)) <= 2 * plane_peak
    # the overlap screen at n = 10 reads 2,744 rows, 112 MB under the row
    # bound; a read takes whole planes of 196 rows while their overlaps fit
    # CHUNK_ENTRIES, 5 planes here, and one plane when CHUNK_ENTRIES is smaller
    n = 10
    state = build_state(StateFamily.w(), n)
    grid = _shared_grid(density // 2)
    row_bytes = SCREEN_ROW_BYTES_PER_OVERLAP * 2**n
    read_rows = _linalg.CHUNK_ENTRIES // 2**n + 1
    assert traced_peak(lambda: _screen_tops(state, grid)) <= read_rows * row_bytes
    monkeypatch.setattr(_linalg, "CHUNK_ENTRIES", 1)
    plane_rows = (density // 2) ** 2
    assert traced_peak(lambda: _screen_tops(state, grid)) <= plane_rows * row_bytes


def test_sweep_cache_is_read_in_place(monkeypatch):
    # the 32 default starts at n = 8 run in one chunk, whose sweep cache at
    # qubit 1 holds 32 * 3 rows of 3^7 entries, 1.7 MB; one sweep peaks at
    # about 1.5 caches, and a copy of the cache at every qubit step takes it to 2.4
    n = 8
    tensor = correlation_tensor(build_state(StateFamily.cluster_linear(), n))
    monkeypatch.setattr(optimize, "_MAX_SWEEPS", 1)
    cache_bytes = 8 * 32 * 3**n
    peak = traced_peak(lambda: optimise_triple(tensor, OptimisationOptions(mode="per_qubit")))
    assert peak <= 1.75 * cache_bytes


@pytest.mark.parametrize("n", [2, 5, 12])
def test_random_starts_drawn_in_one_call_match_one_per_start(n):
    # one normal draw and one batched QR give each start the rotations that a
    # draw per start gives, as do the overlap search's uniform angles
    for seed in range(5):
        one, each = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = _random_rotations(one, 31 * n).reshape(31, n, 3, 3)
        assert np.array_equal(batch, [_random_rotations(each, n) for _ in range(31)])
        batch = one.uniform(0, np.pi, size=(8, n, 3))
        assert np.array_equal(batch, [each.uniform(0, np.pi, size=(n, 3)) for _ in range(8)])


# -- bounds that certify the identity without a search ---------------------------------

def rotated_sums(bloch, os):
    """|c~1|+|c~2|+|c~3| of bloch under per-qubit rotation stacks os (B, n, 3, 3)."""
    rows = np.swapaxes(os, 1, 2).reshape(-1, bloch.ndim, 3)  # (B * 3, n, 3): row i per qubit
    return np.abs(contract_modes(bloch, rows)).reshape(-1, 3).sum(axis=1)


@pytest.mark.parametrize("n", range(2, 8))
def test_rotated_correlation_sum_never_exceeds_the_block_l1_norm(n, rng):
    # any real block, symmetric or not and from a state or not, under shared and
    # per-qubit rotations; sparse blocks come closest to the bound
    count = 40
    for _ in range(20):
        bloch = rng.standard_normal((3,) * n)
        if rng.random() < 0.5:
            bloch *= rng.random((3,) * n) < 3 / bloch.size
        per_qubit = _random_rotations(rng, count * n).reshape(count, n, 3, 3)
        shared = np.repeat(_random_rotations(rng, count)[:, None], n, axis=1)
        sums = rotated_sums(bloch, np.concatenate([per_qubit, shared]))
        assert np.all(sums <= np.abs(bloch).sum() * (1 + 1e-12))
    # a state's block also keeps every rotated c~_i in [-1, 1], so the sum is at
    # most 3 whatever its l1 norm; pure and rank-2 states come closest
    for rank in (1, 2):
        bloch = correlation_tensor(random_density(n, rng, rank=rank)).bloch
        per_qubit = _random_rotations(rng, count * n).reshape(count, n, 3, 3)
        shared = np.repeat(_random_rotations(rng, count)[:, None], n, axis=1)
        sums = rotated_sums(bloch, np.concatenate([per_qubit, shared]))
        assert np.all(sums <= 3 + 1e-12)
        assert np.all(sums <= np.abs(bloch).sum() * (1 + 1e-12))


def test_l1_bound_fails_at_one_qubit():
    # at n = 1 the correlation sum of T = e_1 under O is sum_i |O[i, 0]|, up to
    # sqrt(3) against the block's l1 norm of 1
    bloch = np.array([1.0, 0.0, 0.0])
    o = so3_from_angles([0.3, 0.2, 0.1])
    assert rotated_sums(bloch, o[None, None])[0] > 1.3
    tensor = CorrelationTensor(1, bloch)
    for mode in ("shared", "per_qubit"):
        _, _, objective = optimise_triple(tensor, OptimisationOptions(mode=mode, restarts=4))
        assert objective > 1.7


def _no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certified call searched")

    for name in ("minimize", "_screen_tops", "_per_qubit_ascent", "_overlap_ascent",
                 "_shared_objective"):
        monkeypatch.setattr(optimize, name, refuse)


@pytest.mark.parametrize("mode", ["shared", "per_qubit"])
@pytest.mark.parametrize("family, n", [
    (StateFamily.m3n((0.3, -0.2, 0.4)), 5), (StateFamily.m3n((0.3, -0.2, 0.4)), 12),
    (StateFamily.m3n((-0.5, 0.3, 0.1)), 4), (StateFamily.smolin(), 6),
    (StateFamily.white_noise_mix(StateFamily.m3n((0.2, 0.5, -0.1)), 0.6), 7),
    (StateFamily.ghz(), 4), (StateFamily.ghz(), 8),
    (StateFamily.dicke(2), 4), (StateFamily.dicke(3), 6),
])
def test_certified_correlation_sum_runs_no_search(family, n, mode, monkeypatch):
    tensor = correlation_tensor(build_state(family, n))
    _no_search(monkeypatch)
    rotation, triple, objective = optimise_triple(tensor, OptimisationOptions(mode=mode))
    if mode == "shared":
        assert rotation == LocalRotation.identity()
    else:
        assert rotation == LocalRotation.from_per_qubit([(0.0, 0.0, 0.0)] * n)
    # the clipped triple: Dicke(3)'s unrotated diagonal at n = 6 reads 1 + 4e-16
    assert triple == rotated_triple(tensor, LocalRotation.identity())
    assert objective == triple.abs_sum


@pytest.mark.parametrize("mode", ["shared", "per_qubit"])
@pytest.mark.parametrize("family, n", [
    (StateFamily.ghz(), 4), (StateFamily.ghz(), 16),
    (StateFamily.white_noise_mix(StateFamily.ghz(), 0.3), 5), (StateFamily.smolin(), 4),
    (StateFamily.m3n((0.3, -0.2, 0.4)), 6), (StateFamily.m3n((-0.5, 0.3, 0.1)), 4),
])
def test_certified_overlap_runs_no_search(family, n, mode, monkeypatch):
    state = build_state(family, n)
    base = ghz_diagonalise(state)
    _no_search(monkeypatch)
    rotation, idx, p = optimise_ghz_overlap(state, OptimisationOptions(mode=mode))
    assert rotation == LocalRotation.identity()
    assert idx == base.argmax() and p == base.p_max
    assert p == pytest.approx(state.top_eigenvalue(), abs=1e-13)


@pytest.mark.parametrize("family, n", [
    (StateFamily.w(), 4), (StateFamily.dicke(2), 5), (StateFamily.cluster_linear(), 4),
    (StateFamily.white_noise_mix(StateFamily.w(), 0.8), 3),
])
@pytest.mark.parametrize("mode", ["shared", "per_qubit"])
def test_uncertified_inputs_still_search(family, n, mode, monkeypatch):
    calls = []
    for name in ("minimize", "_screen_tops", "_per_qubit_ascent", "_overlap_ascent"):
        def recording(*args, _real=getattr(optimize, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(optimize, name, recording)
    state = build_state(family, n)
    opts = OptimisationOptions(mode=mode, restarts=4, grid_density=4)
    optimise_ghz_overlap(state, opts)
    assert calls[:2] == ["_screen_tops", "minimize" if mode == "shared" else "_overlap_ascent"]
    calls.clear()
    if mode == "shared" and family.tag == "cluster_linear":
        return  # an asymmetric tensor is refused in shared mode
    optimise_triple(correlation_tensor(state), opts)
    assert calls == ["minimize" if mode == "shared" else "_per_qubit_ascent"]


def _recorded_steps(monkeypatch):
    """The start count of every per-qubit ascent step from here on, one entry a qubit step."""
    steps = []
    real = optimize._best_rotation_for_matrix

    def counting(b):
        steps.append(len(b))
        return real(b)

    monkeypatch.setattr(optimize, "_best_rotation_for_matrix", counting)
    return steps


@pytest.mark.parametrize("family, n", [
    (StateFamily.cluster_linear(), 6), (StateFamily.cluster_rect(4, 2), 8),
])
def test_per_qubit_ascent_stops_at_the_ceiling(family, n, monkeypatch):
    # cluster states reach Sigma|c~| = 3 within three sweeps; every start then
    # stops, where without the ceiling the slowest ran to sweep 11 (n = 6) and
    # 300 (n = 8)
    steps = _recorded_steps(monkeypatch)
    tensor = correlation_tensor(build_state(family, n))
    _, triple, objective = optimise_triple(tensor, OptimisationOptions(mode="per_qubit"))
    # the 32 default starts share one chunk at n <= 8: one step call a qubit and sweep
    assert len(steps) <= 3 * n
    assert objective == triple.abs_sum >= 3 - 1e-12


def test_per_qubit_ascent_runs_no_chunk_after_the_ceiling(rng, monkeypatch):
    # GHZ's identity start reaches 3 in its first sweep; with one start a chunk,
    # as from n = 11, the seven random starts after it never run
    n = 4
    bloch = correlation_tensor(build_state(StateFamily.ghz(), n)).bloch
    starts = [np.tile(np.eye(3), (n, 1, 1))] + [_random_rotations(rng, n) for _ in range(7)]
    monkeypatch.setattr(_linalg, "CHUNK_ENTRIES", 9 * 3 ** (n - 1))
    steps = _recorded_steps(monkeypatch)
    _, val = _per_qubit_ascent(bloch, starts, 3.0)
    assert steps == [1] * n
    assert val >= 3 - 1e-12


@pytest.mark.parametrize("family", [StateFamily.w(), StateFamily.ghz()], ids=["w", "ghz"])
def test_refused_per_qubit_overlap_search_never_screens(family, monkeypatch):
    # the start stack is charged for _OVERLAP_CANDIDATES candidates before the
    # screen, and before the bound that certifies GHZ
    def refuse(*args):
        raise AssertionError("screened before refusing")

    monkeypatch.setattr(optimize, "_screen_tops", refuse)
    with pytest.raises(CapacityError, match="per-qubit start stack of 1000000000 restarts"):
        optimise_ghz_overlap(build_state(family, 3),
                             OptimisationOptions(mode="per_qubit", restarts=10**9))


def phased_x_state(n, rng):
    """An X state whose anti-diagonal carries phases, so no GHZ overlap reaches its
    top eigenvalue and the overlap search runs."""
    p = rng.dirichlet(np.ones(2**n)).reshape(-1, 2)
    mean = (p[:, 0] + p[:, 1]) / 2
    cross = (p[:, 0] - p[:, 1]) / 2 * np.exp(1j * rng.uniform(0, 2 * np.pi, len(p)))
    return DenseState(n, None, qstate._CERTIFIED, qstate._XForm(
        np.concatenate([mean, mean[::-1]]).astype(complex),
        np.concatenate([cross, cross[::-1].conj()])))


@pytest.mark.parametrize("source", ["pure", "x", "mix", "dense"])
@pytest.mark.parametrize("n, restarts", [(3, 400), (3, 4000), (6, 400), (6, 4000)])
def test_per_qubit_overlap_charge_bounds_the_traced_peak(n, restarts, source, rng, monkeypatch):
    # one sweep holds the whole working set: every run's angles, one chunk's
    # rotations, lifts, kept products and a step's temporaries. Each form has
    # its own Gram read, and the dense form's, which builds the vectors, holds
    # the most a run; a charge of the start angles alone reads 0.29 MB at n = 3
    # and 4,000 restarts, where such a search peaked at 12.9 MB
    monkeypatch.setattr(optimize, "_MAX_SWEEPS", 1)
    state = {"pure": lambda: build_state(StateFamily.w(), n),
             "x": lambda: phased_x_state(n, rng),
             "mix": lambda: build_state(StateFamily.white_noise_mix(StateFamily.w(), 0.7), n),
             "dense": lambda: random_density(n, rng)}[source]()
    assert isinstance(state._form, FORMS[source])
    assert ghz_diagonalise(state).p_max + 1e-13 < state.top_eigenvalue()
    opts = OptimisationOptions(mode="per_qubit", restarts=restarts)
    peak = traced_peak(lambda: optimise_ghz_overlap(state, opts))
    assert peak <= optimize._overlap_search_bytes(n, restarts)


def test_over_budget_overlap_restarts_exit_2_before_the_search(monkeypatch, capsys):
    # two million restarts hold 8-byte start angles within the budget (144 MiB
    # at n = 3), but the search of their 2,000,008 runs does not
    restarts = 2_000_000
    runs = 4 * (2 + restarts // 4)
    assert 8 * runs * 3 * 3 <= _linalg.GRID_BUDGET < optimize._overlap_search_bytes(3, restarts)

    def refuse(*args):
        raise AssertionError("searched before refusing")

    monkeypatch.setattr(optimize, "_screen_tops", refuse)
    monkeypatch.setattr(optimize, "_overlap_ascent", refuse)
    rc = main(["optimise", "--family", "w", "--n", "3", "--objective", "overlap",
               "--mode", "per-qubit", "--restarts", str(restarts)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: the per-qubit start stack of 2000000 restarts")
    assert err.rstrip().endswith("MiB, above the 512 MiB budget")


def test_shared_overlap_search_runs_each_index_and_start_once(monkeypatch, capsys):
    # rotation-search's overlap-shared-n6 picks 000000- from four grid rows that
    # share one (theta, psi), and phi is solved for, so its 8 starts are 2 runs
    counts = []
    real = optimize.minimize

    def recording(fun, starts):
        counts.append(len(starts))
        return real(fun, starts)

    monkeypatch.setattr(optimize, "minimize", recording)
    rc = main(["optimise", "--family", "white_noise_mix", "--n", "6", "--params",
               '{"inner":{"family":"dicke","params":{"k":2}},"q":0.535069}',
               "--objective", "overlap", "--seed", "841229", "--full-precision"])
    assert rc == 0 and counts == [2]
    assert capsys.readouterr().out == (
        '{"angles":[[1.5707963243282161,5.22854202681876,0.0]],'
        '"index":"000000-","n":6,"objective":"ghz_overlap","p_max":0.25807814062500023,'
        '"shared":true}\n')


def _candidates(state, opts, monkeypatch, noise_seed=None):
    """The GHZ-basis keys an overlap search refines, in order, with optional 1-ulp screen noise."""
    keys = []
    real_bits, real_screen = optimize._ghz_bits, optimize._screen_overlaps

    def bits(idx):
        keys.append(idx.key)
        return real_bits(idx)

    def noisy(state, planes):
        overlaps = real_screen(state, planes)
        ulps = np.random.default_rng(noise_seed).integers(-1, 2, size=overlaps.shape)
        return overlaps + ulps * np.spacing(overlaps)

    with monkeypatch.context() as m:
        m.setattr(optimize, "_ghz_bits", bits)
        if noise_seed is not None:
            m.setattr(optimize, "_screen_overlaps", noisy)
        optimise_ghz_overlap(state, opts)
    return list(dict.fromkeys(keys))


@pytest.mark.parametrize("mode", ["shared", "per_qubit"])
@pytest.mark.parametrize("family, n", [
    (StateFamily.m3n((0.3, -0.2, 0.4)), 5), (StateFamily.m3n((0.3, -0.2, 0.4)), 3),
    (StateFamily.w(), 4), (StateFamily.cluster_linear(), 4),
    (StateFamily.white_noise_mix(StateFamily.dicke(2), 0.5), 5),
])
def test_overlap_candidates_ignore_the_last_bits_of_the_screen(family, n, mode, monkeypatch):
    # overlaps that tie in exact arithmetic, within a screen row or across rows,
    # are told apart on _TIE_TOL, not by their rounding
    state = build_state(family, n)
    opts = OptimisationOptions(mode=mode, restarts=4)
    exact = _candidates(state, opts, monkeypatch)
    for seed in range(3):
        assert _candidates(state, opts, monkeypatch, noise_seed=seed) == exact


def random_state_of_form(form, n, rng):
    """A random state held in the given form; the mix holds a random pure state."""
    if form in ("pure", "mix"):
        pure = DenseState.from_vector(rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))
        if form == "pure":
            return pure
        return DenseState(n, None, qstate._CERTIFIED, qstate._MixForm(0.7, pure._form))
    return phased_x_state(n, rng) if form == "x" else random_density(n, rng)


def shared_overlaps(state, idx, angles):
    """<beta|u^{xn} rho u^{dag xn}|beta> per angle row, from the product vectors."""
    rows = len(angles)
    us = np.broadcast_to(su2_from_angles(angles)[:, None], (rows, state.n, 2, 2))
    return _overlaps(state, np.tile(_ghz_bits(idx), (rows, 1)), np.full(rows, idx.sign), us)


@pytest.mark.parametrize("form", ["pure", "x", "mix", "dense"])
@pytest.mark.parametrize("n", range(2, 9))
def test_compressed_terms_match_product_vector_overlaps(n, form, rng):
    # at every GHZ index, A + Re(C exp(-i m phi)) read from the state compressed to
    # the index's weight classes is the overlap of the 2^n-entry product vectors
    state = random_state_of_form(form, n, rng)
    assert isinstance(state._form, FORMS[form])
    angles = random_angles(rng, 4)
    for i in range(2 ** (n - 1)):
        bits = _ghz_bits(GHZBasisIndex(n, i, 1))
        cols = _class_columns(bits)
        assert cols.shape[1] == (n - bits.sum() + 1) * (bits.sum() + 1)
        assert np.allclose(cols.T @ cols, np.eye(cols.shape[1]), rtol=0, atol=1e-14)
        block = state.sandwich(cols)
        for sign in (1, -1):
            a, c = _class_terms(block, bits, sign)(angles[:, :2])
            turn = np.exp(-1j * (n - 2 * bits.sum()) * angles[:, 2])
            want = shared_overlaps(state, GHZBasisIndex(n, i, sign), angles)
            assert np.allclose(a + (c * turn).real, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("family, n", [
    (StateFamily.w(), 4), (StateFamily.cluster_linear(), 4), (StateFamily.dicke(2), 5),
    (StateFamily.white_noise_mix(StateFamily.dicke(2), 0.535069), 6),
    (StateFamily.m3n((0.3, -0.2, 0.4)), 5),
])
def test_closed_form_phi_reaches_the_profile(family, n, rng):
    # at phi = arg(C)/m the overlap is the profile A + |C|, and no phi of a 720-point
    # grid beats it; at m = 0 (even n, |x| = n/2) phi has no effect and the profile
    # is A + Re C
    state = build_state(family, n)
    idxs = [GHZBasisIndex(n, i, sign) for i in range(2 ** (n - 1)) for sign in (1, -1)]
    assert any(n == 2 * _ghz_bits(idx).sum() for idx in idxs) == (n % 2 == 0)
    phis = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    for idx in idxs:
        bits = _ghz_bits(idx)
        turns = n - 2 * bits.sum()
        block = state.sandwich(_class_columns(bits))
        for theta, psi, _ in random_angles(rng, 2):
            a, c = _class_terms(block, bits, idx.sign)(np.array([[theta, psi]]))
            profile = a[0] + (abs(c[0]) if turns else c[0].real)
            phi = np.angle(c[0]) / turns % (2 * np.pi) if turns else 0.0
            grid = np.column_stack([np.full(721, theta), np.full(721, psi), np.append(phis, phi)])
            values = shared_overlaps(state, idx, grid)
            assert values[-1] == pytest.approx(profile, abs=1e-14)
            assert values.max() <= profile + 1e-14
            if not turns:
                assert np.ptp(values) <= 1e-14
    # the refinement reports phi the same way: its angles reproduce its values
    starts = random_angles(rng, len(idxs))[:, :2]
    angles, values = _shared_refinement(state, idxs, starts)
    for idx, x, value in zip(idxs, angles, values):
        assert shared_overlaps(state, idx, x[None])[0] == pytest.approx(value, abs=1e-14)


#: p_max of the shared search when phi was refined by Nelder-Mead with theta and
#: psi (default options); the search with phi solved for may not end below them
SHARED_OVERLAP_PINS = [
    (StateFamily.w(), 3, 0.7500000000000004), (StateFamily.w(), 4, 0.5000000000000001),
    (StateFamily.dicke(2), 4, 0.7500000000000007), (StateFamily.w(), 5, 0.3125000000000002),
    (StateFamily.dicke(2), 6, 0.46875000000000067), (StateFamily.w(), 8, 0.19753086419753113),
    (StateFamily.dicke(2), 5, 0.6250000000000007), (StateFamily.w(), 6, 0.22222222222222254),
    (StateFamily.white_noise_mix(StateFamily.dicke(2), 0.535069), 4, 0.4303599375000002),
    (StateFamily.white_noise_mix(StateFamily.dicke(2), 0.535069), 5, 0.3489472187500001),
    (StateFamily.white_noise_mix(StateFamily.dicke(2), 0.535069), 6, 0.2580781406250001),
    (StateFamily.white_noise_mix(StateFamily.w(), 0.7), 4, 0.36875000000000013),
    (StateFamily.white_noise_mix(StateFamily.w(), 0.7), 5, 0.22812500000000013),
    (StateFamily.white_noise_mix(StateFamily.w(), 0.7), 6, 0.16024305555555574),
]


@pytest.mark.parametrize("family, n, pinned", SHARED_OVERLAP_PINS)
def test_shared_overlap_search_holds_its_pinned_values(family, n, pinned):
    state = build_state(family, n)
    rot, idx, p = optimise_ghz_overlap(state)
    assert p >= pinned - 1e-12
    assert dense_overlap(state.rho, idx, rot.unitaries(n)) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("form", ["pure", "x", "mix", "dense"])
@pytest.mark.parametrize("n", [6, 8])
def test_class_column_charge_bounds_the_traced_peak(n, form, rng):
    # 80 bytes a column entry covers the columns and the read's temporaries; the X
    # form's read, which holds three products of the columns, takes the most
    state = random_state_of_form(form, n, rng)
    for ones in (0, n // 2):
        bits = np.array([0] * (n - ones) + [1] * ones)
        peak = traced_peak(lambda: state.sandwich(_class_columns(bits)))
        assert peak <= 80 * (n - ones + 1) * (ones + 1) * 2**n


def test_class_columns_are_charged_before_they_are_built(monkeypatch):
    def refuse(bits):
        raise AssertionError("built before the charge")

    monkeypatch.setattr(optimize, "_class_columns", refuse)
    monkeypatch.setattr(_linalg, "GRID_BUDGET", 80 * 12 * 2**5 - 1)
    state = build_state(StateFamily.w(), 5)
    idx = GHZBasisIndex(5, 0b00011, 1)
    with pytest.raises(CapacityError, match="weight-class columns of 00011\\+"):
        _shared_refinement(state, [idx], np.zeros((1, 2)))
