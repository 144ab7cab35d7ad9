import numpy as np
import pytest

from conftest import random_density
from entbound._linalg import apply_product_unitary
from entbound.errors import ParameterError
from entbound.locc import ghz_diagonalise
from entbound.optimize import OptimisationOptions, optimise_ghz_overlap, optimise_triple
from entbound.pauli import LocalRotation, correlation_tensor, rotated_triple
from entbound.qstate import DenseState, StateFamily, build_state


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


def test_objective_never_below_identity(rng):
    state = random_density(3, rng)
    tensor = correlation_tensor(state)
    identity_val = tensor.diagonal_triple().abs_sum
    for mode in ("shared", "per_qubit"):
        _, _, obj = optimise_triple(
            tensor, OptimisationOptions(mode=mode, restarts=4, grid_density=6, check_symmetry=False)
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


def test_shared_mode_rejects_asymmetric_tensor():
    for n in (4, 6):
        with pytest.raises(ParameterError):
            optimise_triple(
                correlation_tensor(build_state(StateFamily.cluster_linear(), n)),
                OptimisationOptions(mode="shared"),
            )
    state = build_state(StateFamily.cluster_linear(), 4)
    tensor = correlation_tensor(state)
    # explicit opt-out allowed
    _, _, obj = optimise_triple(
        tensor, OptimisationOptions(mode="shared", check_symmetry=False, restarts=4, grid_density=6)
    )
    assert obj <= 3 + 1e-12


def test_options_validation():
    with pytest.raises(ParameterError):
        OptimisationOptions(mode="other")
    with pytest.raises(ParameterError):
        OptimisationOptions(restarts=0)
    with pytest.raises(ParameterError):
        OptimisationOptions(grid_density=1)


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
