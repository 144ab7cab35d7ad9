import json

import numpy as np
import pytest

from conftest import random_density, random_ghz_spectrum, random_m3n_inside_tetra
from dense_reference import expectation, ghz_basis_vector, ghz_dense
from entbound.errors import ParameterError, SchemaError, StateValidityError
from entbound.locc import GHZBasisIndex, GHZDiagonalState, ghz_diagonalise
from entbound.pauli import correlation_tensor, correlation_triple
from entbound.qstate import (
    CorrelationTriple,
    DenseState,
    M3NState,
    StateFamily,
    build_state,
    m3n_density,
)
from proof_channels import apply_m3nfication_channel, singlet_overlap_check


def test_m3nfy_ghz4():
    ghz = build_state(StateFamily.ghz(), 4)
    state = M3NState(ghz.n, correlation_triple(ghz))
    assert np.allclose(state.c.as_array(), [1, 1, 1], atol=1e-12)


def test_m3nfy_maximally_mixed():
    mixed = DenseState(3, np.eye(8, dtype=complex) / 8)
    state = M3NState(mixed.n, correlation_triple(mixed))
    assert np.allclose(state.c.as_array(), [0, 0, 0], atol=1e-14)


def test_m3nfy_w4_canonical_triple_needs_optimisation():
    # dense traces give the canonical triple, whose excess is not positive;
    # the favourable triple only appears after local rotation
    w = build_state(StateFamily.w(), 4)
    state = M3NState(w.n, correlation_triple(w))
    assert np.allclose(state.c.as_array(), [0, 0, -1], atol=1e-12)
    assert state.c.abs_sum <= 1 + 1e-12


def test_channel_equals_triple_construction(rng):
    for n in (2, 3, 4):
        state = random_density(n, rng)
        twirled = apply_m3nfication_channel(state)
        ref = m3n_density(M3NState(state.n, correlation_triple(state)))
        assert np.max(np.abs(twirled.rho - ref.rho)) < 1e-10


def test_channel_fixed_point_on_family(rng):
    state = m3n_density(random_m3n_inside_tetra(3, rng))
    twirled = apply_m3nfication_channel(state)
    assert np.max(np.abs(twirled.rho - state.rho)) < 1e-12


def test_channel_idempotent(rng):
    state = random_density(3, rng)
    once = apply_m3nfication_channel(state)
    twice = apply_m3nfication_channel(once)
    assert np.max(np.abs(twice.rho - once.rho)) < 1e-10


def test_channel_kills_off_family_tensor_entries(rng):
    state = random_density(3, rng)
    twirled = apply_m3nfication_channel(state)
    tensor = correlation_tensor(twirled)
    for idx in np.ndindex(4, 4, 4):
        if len(set(idx)) == 1:
            continue
        entry = expectation(twirled, idx) if 0 in idx else tensor.bloch[tuple(i - 1 for i in idx)]
        assert abs(entry) < 1e-10, idx


def test_random_two_qubit_becomes_bell_diagonal(rng):
    state = random_density(2, rng)
    twirled = apply_m3nfication_channel(state)
    triple = correlation_triple(state)
    ref = m3n_density(M3NState(2, triple))
    assert np.max(np.abs(twirled.rho - ref.rho)) < 1e-10


def test_ghz_basis_examples():
    v = ghz_basis_vector(GHZBasisIndex(2, 0, +1), 2)
    assert np.allclose(v, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15)
    v = ghz_basis_vector(GHZBasisIndex(4, 0b0011, +1), 4)
    want = np.zeros(16)
    want[0b0011] = want[0b1100] = 1 / np.sqrt(2)
    assert np.allclose(v, want, atol=1e-15)
    v = ghz_basis_vector(GHZBasisIndex(3, 0b001, -1), 3)
    want = np.zeros(8)
    want[0b001] = 1 / np.sqrt(2)
    want[0b110] = -1 / np.sqrt(2)
    assert np.allclose(v, want, atol=1e-15)


def test_ghz_basis_leading_bit_validation():
    with pytest.raises(ParameterError):
        GHZBasisIndex(3, 0b100, +1)
    with pytest.raises(ParameterError):
        GHZBasisIndex(3, 0b001, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ghz_basis_orthonormal(n):
    vecs = [
        ghz_basis_vector(GHZBasisIndex(n, i, s), n)
        for i in range(2 ** (n - 1))
        for s in (+1, -1)
    ]
    gram = np.array([[abs(np.vdot(a, b)) for b in vecs] for a in vecs])
    assert np.allclose(gram, np.eye(2**n), atol=1e-12)


def test_ghz_diagonalise_pure_ghz():
    spec = ghz_diagonalise(build_state(StateFamily.ghz(), 3))
    assert spec.p_max == pytest.approx(1.0, abs=1e-14)
    assert spec.argmax().key == "000+"


def test_ghz_diagonalise_noisy_ghz():
    for q in (0.97, 0.5, 0.2):
        mix = build_state(StateFamily.white_noise_mix(StateFamily.ghz(), q), 3)
        spec = ghz_diagonalise(mix)
        assert spec.p_max == pytest.approx(q + (1 - q) / 8, abs=1e-12)


def test_ghz_diagonalise_preserves_diagonal_input(rng):
    flat = rng.dirichlet(np.ones(8))
    spec = GHZDiagonalState(3, flat.reshape(4, 2))
    back = ghz_diagonalise(ghz_dense(spec))
    assert np.allclose(back.p, spec.p, atol=1e-13)


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_diagonal_dense_matches_sum_of_projectors(n, rng):
    pure = np.zeros((2 ** (n - 1), 2))
    pure[-1, 1] = 1
    for spec in (random_ghz_spectrum(n, rng), GHZDiagonalState(n, pure)):
        ref = np.zeros((2**n, 2**n), dtype=complex)
        for i in range(2 ** (n - 1)):
            for col, sign in ((0, +1), (1, -1)):
                v = ghz_basis_vector(GHZBasisIndex(n, i, sign), n)
                ref += spec.p[i, col] * np.outer(v, v.conj())
        dense = ghz_dense(spec)
        assert np.max(np.abs(dense.rho - ref)) <= 1e-15
        DenseState(n, np.array(dense.rho))  # the full check a matrix from outside gets


def test_singlet_overlap_published_value():
    assert singlet_overlap_check() == pytest.approx(2 / 3, abs=1e-12)


def test_singlet_overlap_other_index_and_completeness():
    singlet = build_state(StateFamily.singlet4(), 4)
    v = ghz_basis_vector(GHZBasisIndex(4, 0b0101, +1), 4)
    # direct inner product gives amplitude -1/2 * sqrt(2/3)
    overlap = float(np.real(v.conj() @ singlet.rho @ v))
    assert overlap == pytest.approx((0.5 * np.sqrt(2 / 3)) ** 2, abs=1e-12)
    total = sum(ghz_diagonalise(singlet).flat())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_ghz_spectrum_json_roundtrip(tmp_path):
    p = np.zeros((4, 2))
    p[0, 0] = 0.97375
    p[0, 1] = 0.00375
    p[1:, :] = 0.00375
    spec = GHZDiagonalState(3, p / p.sum())
    data = spec.to_json_dict()
    assert "000+" in data["p"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    back = GHZDiagonalState.from_file(path)
    assert np.allclose(back.p, spec.p, atol=1e-15)


def test_ghz_spectrum_sparse_and_errors(tmp_path):
    spec = GHZDiagonalState.from_json_dict({"n": 2, "p": {"00+": 0.5, "01-": 0.5}})
    assert spec.p_max == 0.5
    with pytest.raises(SchemaError):
        GHZDiagonalState.from_json_dict({"n": 2, "p": {"0+": 0.5}})
    with pytest.raises(SchemaError):
        GHZDiagonalState.from_json_dict({"p": {}})
    with pytest.raises(StateValidityError):
        GHZDiagonalState.from_json_dict({"n": 2, "p": {"00+": 0.7, "01-": 0.5}})


def test_contractivity_under_m3nfication_odd(rng):
    # rotated family states have known exact entanglement; the twirl of the
    # rotated state cannot exceed it (single-qubit LOCC monotonicity)
    from dense_rotation import apply_product_unitary
    from entbound.measures import DistanceKind, SeparabilityLevel, entanglement_m3n
    from entbound.pauli import LocalRotation

    level = SeparabilityLevel(m=3)
    for _ in range(10):
        base = random_m3n_inside_tetra(3, rng)
        before = entanglement_m3n(base, level, DistanceKind.TRACE).value
        angles = [rng.uniform([0, 0, 0], [np.pi, 2 * np.pi, 2 * np.pi]) for _ in range(3)]
        rot = LocalRotation.from_per_qubit(angles)
        rotated = apply_product_unitary(
            np.array(m3n_density(base).rho), rot.unitaries(3), 3
        )
        after = entanglement_m3n(
            M3NState(3, correlation_triple(DenseState(3, rotated))), level, DistanceKind.TRACE
        ).value
        assert after <= before + 1e-10
