import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_density
from dense_reference import expectation
from dense_rotation import apply_product_unitary
from entbound._linalg import kron_all
from entbound.errors import ParameterError
from entbound.pauli import (
    CorrelationTensor,
    LocalRotation,
    contract_modes,
    correlation_tensor,
    correlation_triple,
    quaternion_to_angles,
    rotated_triple,
    so3_from_angles,
    so3_to_angles,
    su2_from_angles,
)
from entbound.qstate import DenseState, StateFamily, build_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SIG = {0: np.eye(2, dtype=complex), 1: SX, 2: SY, 3: SZ}


def brute_expectation(state, string):
    op = kron_all([SIG[i] for i in string])
    return float(np.real(np.trace(state.rho @ op)))


def tensor_entry(state, tensor, idx):
    """Entries with an identity factor from expectation, the others from the bloch block."""
    if 0 in idx:
        return expectation(state, idx)
    return tensor.bloch[tuple(i - 1 for i in idx)]


def test_expectation_z_on_ground_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1
    assert expectation(DenseState(2, rho), (3, 3)) == pytest.approx(1.0)


def test_expectation_ghz3_xxx_brute():
    ghz = build_state(StateFamily.ghz(), 3)
    assert brute_expectation(ghz, (1, 1, 1)) == pytest.approx(1.0)
    assert expectation(ghz, (1, 1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_on_maximally_mixed():
    rho = DenseState(2, np.eye(4, dtype=complex) / 4)
    assert expectation(rho, (1, 2)) == pytest.approx(0.0, abs=1e-14)


def test_expectation_matches_brute_random(rng):
    state = random_density(3, rng)
    for string in [(0, 1, 2), (3, 3, 3), (2, 0, 1), (1, 1, 1)]:
        assert expectation(state, string) == pytest.approx(
            brute_expectation(state, string), abs=1e-12
        )


def test_expectation_length_mismatch():
    ghz = build_state(StateFamily.ghz(), 3)
    with pytest.raises(ParameterError):
        expectation(ghz, (1, 1))


def test_correlation_triple_examples():
    ghz4 = build_state(StateFamily.ghz(), 4)
    assert np.allclose(correlation_triple(ghz4).as_array(), [1, 1, 1], atol=1e-12)
    w3 = build_state(StateFamily.w(), 3)
    # brute-force the three traces on the 8x8 matrix
    brute = [brute_expectation(w3, (j,) * 3) for j in (1, 2, 3)]
    assert np.allclose(brute, [0, 0, -1], atol=1e-12)
    assert np.allclose(correlation_triple(w3).as_array(), brute, atol=1e-12)
    mixed = DenseState(3, np.eye(8, dtype=complex) / 8)
    assert np.allclose(correlation_triple(mixed).as_array(), [0, 0, 0], atol=1e-14)


def test_correlation_tensor_bell():
    bell = build_state(StateFamily.ghz(), 2)
    tensor = correlation_tensor(bell)
    expected = {(0, 0): 1.0, (1, 1): 1.0, (2, 2): -1.0, (3, 3): 1.0}
    for idx in np.ndindex(4, 4):
        want = expected.get(idx, 0.0)
        assert tensor_entry(bell, tensor, idx) == pytest.approx(want, abs=1e-12)


def test_correlation_tensor_ghz3_entries():
    ghz = build_state(StateFamily.ghz(), 3)
    tensor = correlation_tensor(ghz)
    assert tensor.bloch[0, 0, 0] == pytest.approx(1.0)
    for idx in [(3, 3, 0), (3, 0, 3), (0, 3, 3)]:
        assert expectation(ghz, idx) == pytest.approx(1.0)
    assert tensor.bloch[2, 2, 2] == pytest.approx(0.0, abs=1e-13)
    assert expectation(ghz, (0, 0, 0)) == pytest.approx(1.0)


def test_correlation_tensor_mixed_only_trace_entry():
    mixed = DenseState(2, np.eye(4, dtype=complex) / 4)
    tensor = correlation_tensor(mixed)
    nonzero = {
        idx for idx in np.ndindex(4, 4) if abs(tensor_entry(mixed, tensor, idx)) > 1e-12
    }
    assert nonzero == {(0, 0)}


def test_correlation_tensor_matches_brute(rng):
    for n in (2, 3):
        state = random_density(n, rng)
        tensor = correlation_tensor(state)
        assert tensor.bloch.shape == (3,) * n
        for idx in np.ndindex((4,) * n):
            assert tensor_entry(state, tensor, idx) == pytest.approx(
                brute_expectation(state, idx), abs=1e-12
            )


def test_correlation_tensor_symmetry_for_symmetric_states():
    for family, n in [(StateFamily.ghz(), 3), (StateFamily.w(), 4), (StateFamily.dicke(2), 4)]:
        assert correlation_tensor(build_state(family, n)).is_symmetric()
    cluster = correlation_tensor(build_state(StateFamily.cluster_linear(), 4))
    assert not cluster.is_symmetric()


def test_so3_identity_and_x_pi():
    assert np.allclose(so3_from_angles((0, 0, 0)), np.eye(3), atol=1e-15)
    # conjugating each Pauli by the theta=pi unitary fixes x, negates y and z
    o = so3_from_angles((np.pi, 0, 0))
    assert np.allclose(o, np.diag([1, -1, -1]), atol=1e-15)


def test_so3_orthogonality_random(rng):
    for _ in range(50):
        angles = rng.uniform([0, 0, 0], [np.pi, 2 * np.pi, 2 * np.pi])
        o = so3_from_angles(angles)
        assert np.allclose(o @ o.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-12)


def test_so3_matches_adjoint_action(rng):
    for _ in range(20):
        angles = rng.uniform([0, 0, 0], [np.pi, 2 * np.pi, 2 * np.pi])
        u = su2_from_angles(angles)
        o = so3_from_angles(angles)
        for j, s in enumerate((SX, SY, SZ)):
            target = u @ s @ u.conj().T
            rebuilt = sum(o[k, j] * m for k, m in enumerate((SX, SY, SZ)))
            assert np.allclose(target, rebuilt, atol=1e-12)
    # a (G, 3) batch gives the per-row matrices exactly, also with more leading axes
    batch = rng.uniform([0, 0, 0], [np.pi, 2 * np.pi, 2 * np.pi], size=(12, 3))
    stacked = so3_from_angles(batch)
    assert stacked.shape == (12, 3, 3)
    for angles, o in zip(batch, stacked):
        assert np.array_equal(so3_from_angles(angles), o)
    assert np.array_equal(so3_from_angles(batch.reshape(3, 4, 3)), stacked.reshape(3, 4, 3, 3))


def test_so3_roundtrip_through_angles(rng):
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        angles = so3_to_angles(q)
        assert 0 <= angles[0] <= np.pi
        assert np.allclose(so3_from_angles(angles), q, atol=1e-9)


def test_angles_round_trip_inside_their_range():
    # with phi = 0 a rotation's psi or phi often comes back as a value just below 0,
    # which % 2pi rounds up to 2pi: without the fold to 0, 3,934 of these 20,000 do
    angles = np.random.default_rng(20_000).uniform([0, 0, 0], [np.pi, 2 * np.pi, 0], (20_000, 3))
    o = so3_from_angles(angles)
    back = so3_to_angles(o)
    assert np.all((back[:, 1:] >= 0) & (back[:, 1:] < 2 * np.pi))
    assert np.allclose(so3_from_angles(back), o, rtol=0, atol=1e-12)
    # half_sum of about -1e-17 and half_diff = 0 put psi and phi just below 0
    q = np.array([math.cos(0.3), math.sin(0.3), 0.0, -1e-17])
    got = quaternion_to_angles(q)
    assert got[1] == got[2] == 0.0
    u = q[0] * np.eye(2) - 1j * (q[1] * SX + q[3] * SZ)
    assert np.allclose(su2_from_angles(got), u, rtol=0, atol=1e-15)


def test_so3_to_angles_on_stacks(rng):
    q, _ = np.linalg.qr(rng.standard_normal((60, 3, 3)))
    q[np.linalg.det(q) < 0, :, 0] *= -1
    # rotations by pi about each axis and the identity take the other quaternion branches
    q = np.concatenate([q, [np.eye(3), np.diag([1.0, -1, -1]), np.diag([-1.0, 1, -1]),
                            np.diag([-1.0, -1, 1])]])
    stacked = so3_to_angles(q.reshape(4, 16, 3, 3))
    assert stacked.shape == (4, 16, 3)
    for o, angles in zip(q, stacked.reshape(-1, 3)):
        single = so3_to_angles(o)
        assert type(single) is tuple and all(type(a) is float for a in single)
        assert tuple(angles.tolist()) == single
    improper = q.copy()
    improper[5, :, 0] *= -1
    skewed = q.copy()
    skewed[7, 0, 1] += 1e-6
    for bad, message in ((improper, "improper rotation"), (skewed, "not an orthogonal")):
        for stack in (bad, bad[None], bad[5:8]):
            with pytest.raises(ParameterError, match=message):
                so3_to_angles(stack)
    with pytest.raises(ParameterError, match="not an orthogonal"):
        so3_to_angles(np.eye(3)[0])


def test_rotated_triple_identity_is_diagonal():
    ghz = build_state(StateFamily.ghz(), 3)
    tensor = correlation_tensor(ghz)
    triple = rotated_triple(tensor, LocalRotation.identity())
    assert np.allclose(triple.as_array(), correlation_triple(ghz).as_array(), atol=1e-13)


def test_rotated_triple_w3_published_angles():
    w3 = build_state(StateFamily.w(), 3)
    rot = LocalRotation.from_shared((np.arccos(1 / np.sqrt(3)), 0.0, np.pi / 4))
    triple = rotated_triple(correlation_tensor(w3), rot)
    s = 1 / np.sqrt(3)
    assert np.allclose(triple.as_array(), [s, -s, s], atol=1e-12)


def test_rotated_triple_ghz3_published_angles():
    ghz = build_state(StateFamily.ghz(), 3)
    rot = LocalRotation.from_shared((np.arccos(1 / np.sqrt(3)), 5 * np.pi / 30, np.pi / 4))
    triple = rotated_triple(correlation_tensor(ghz), rot)
    s = np.sqrt(8 / 27)
    assert np.allclose(triple.as_array(), [-s, s, -s], atol=1e-12)


def test_rotated_triple_matches_dense_conjugation(rng):
    for n in (2, 3, 4, 5):
        state = random_density(n, rng)
        tensor = correlation_tensor(state)
        angles = [rng.uniform([0, 0, 0], [np.pi, 2 * np.pi, 2 * np.pi]) for _ in range(n)]
        rot = LocalRotation.from_per_qubit(angles)
        fast = rotated_triple(tensor, rot).as_array()
        rotated = apply_product_unitary(np.array(state.rho), rot.unitaries(n), n)
        dense = correlation_triple(DenseState(n, rotated)).as_array()
        assert np.allclose(fast, dense, atol=1e-10)


def test_contract_modes_matches_einsum(rng):
    letters = "abcd"
    for n in (1, 2, 3, 4):
        bloch = rng.standard_normal((3,) * n)
        spec = f"{letters[:n]},{','.join('z' + c for c in letters[:n])}->z"
        batches = [rng.standard_normal((count, n, 3)) for count in (1, 2, 5, 9)]
        for k in range(n):
            # the per-qubit block: unit rows e_j on the open mode k
            rows = rng.standard_normal((3, 3, n, 3))
            rows[:, :, k] = np.eye(3)
            batches.append(rows.reshape(9, n, 3))
        for rows in batches:
            want = np.einsum(spec, bloch, *(rows[:, m] for m in range(n)))
            got = contract_modes(bloch, rows)
            assert got.shape == (rows.shape[0],)
            assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_rotated_triple_bounded(rng):
    state = random_density(3, rng)
    tensor = correlation_tensor(state)
    for _ in range(20):
        angles = rng.uniform([0, 0, 0], [np.pi, 2 * np.pi, 2 * np.pi])
        triple = rotated_triple(tensor, LocalRotation.from_shared(angles))
        assert all(abs(c) <= 1 for c in triple)


def test_rotation_qubit_count_mismatch():
    ghz = build_state(StateFamily.ghz(), 3)
    tensor = correlation_tensor(ghz)
    rot = LocalRotation.from_per_qubit([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)])
    with pytest.raises(ParameterError):
        rotated_triple(tensor, rot)


def test_local_rotation_validation():
    with pytest.raises(ParameterError):
        LocalRotation.from_shared((4.0, 0.0, 0.0))  # theta beyond pi
    with pytest.raises(ParameterError):
        LocalRotation.from_shared((0.5, 7.0, 0.0))  # psi beyond 2 pi
    with pytest.raises(ParameterError):
        LocalRotation(((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)), shared=True)


def test_correlation_tensor_of_a_built_state_builds_no_matrix():
    # W at n=12: rho alone takes 256 MiB; the pure form holds a few matrices
    # N_a of 2^20 entries (16 MiB each) at a time
    state = build_state(StateFamily.w(), 12)
    tracemalloc.start()
    try:
        tensor = correlation_tensor(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state._rho is None
    assert peak <= 64 << 20
    assert tensor.bloch.shape == (3,) * 12 and not tensor.bloch.flags.writeable
