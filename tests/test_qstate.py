import itertools
import json
import math

import numpy as np
import pytest

from entbound.errors import CapacityError, ParameterError, StateValidityError
from entbound.qstate import (
    CorrelationTriple,
    DenseState,
    M3NState,
    StateFamily,
    build_state,
    load_state_spec,
    m3n_density,
    m3n_spectrum,
    permutation_conjugate,
)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def test_ghz3_is_projector_on_expected_vector():
    state = build_state(StateFamily.ghz(), 3)
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    assert np.allclose(state.rho, np.outer(v, v.conj()), atol=1e-14)


def test_white_noise_q0_is_maximally_mixed():
    state = build_state(StateFamily.white_noise_mix(StateFamily.ghz(), 0.0), 4)
    assert np.allclose(state.rho, np.eye(16) / 16, atol=1e-14)


def test_wei_x1_equals_ghz_projector():
    wei = build_state(StateFamily.wei(1.0), 4)
    ghz = build_state(StateFamily.ghz(), 4)
    assert np.allclose(wei.rho, ghz.rho, atol=1e-14)


def test_singlet_matches_published_amplitudes():
    state = build_state(StateFamily.singlet4(), 4)
    v = np.zeros(16)
    v[0b0011] = v[0b1100] = 1 / np.sqrt(3)
    for idx in (0b0101, 0b0110, 0b1001, 0b1010):
        v[idx] = -0.5 / np.sqrt(3)
    assert np.allclose(state.rho, np.outer(v, v), atol=1e-14)


def test_smolin_equals_symmetric_bell_mixture():
    # independent construction: equal mixture of the four two-qubit Bell
    # projectors tensored with themselves
    bells = []
    for c in [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)]:
        rho = np.eye(4, dtype=complex)
        for cj, s in zip(c, (SX, SY, SZ)):
            rho += cj * np.kron(s, s)
        bells.append(rho / 4)
    ref = sum(np.kron(b, b) for b in bells) / 4
    state = build_state(StateFamily.smolin(), 4)
    assert np.allclose(state.rho, ref, atol=1e-12)


@pytest.mark.parametrize(
    "family,ns",
    [
        (StateFamily.ghz(), range(2, 9)),
        (StateFamily.w(), range(2, 9)),
        (StateFamily.cluster_linear(), range(2, 9)),
        (StateFamily.wei(0.6), range(4, 9)),
    ],
)
def test_families_pass_state_invariants(family, ns):
    for n in ns:
        state = build_state(family, n)
        assert state.n == n  # construction validates hermiticity/trace/psd


def test_parametrised_families_pass_state_invariants():
    for n in (4, 6, 8):
        build_state(StateFamily.dicke(n // 2), n)
        build_state(StateFamily.smolin(), n)
        build_state(StateFamily.cluster_rect(), n)
    build_state(StateFamily.singlet4(), 4)
    build_state(StateFamily.white_noise_mix(StateFamily.ghz(), 0.7), 5)


def test_family_parameter_errors():
    with pytest.raises(ParameterError):
        build_state(StateFamily.smolin(), 5)
    with pytest.raises(ParameterError):
        build_state(StateFamily.singlet4(), 6)
    with pytest.raises(ParameterError):
        build_state(StateFamily.dicke(5), 4)
    with pytest.raises(ParameterError):
        build_state(StateFamily.wei(1.5), 4)
    with pytest.raises(ParameterError):
        StateFamily("unknown_family")
    with pytest.raises(CapacityError):
        build_state(StateFamily.ghz(), 13)


def test_dense_state_invariants_rejected():
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.5
    with pytest.raises(StateValidityError):
        DenseState(2, bad)
    with pytest.raises(StateValidityError):
        DenseState(2, np.eye(4, dtype=complex))  # trace 4
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateValidityError):
        DenseState(2, neg)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_dense_state_rejects_non_finite_entries(entry):
    rho = np.diag([0.25, 0.5, 0.25, 0.0]).astype(complex)
    for pos in ((0, 0), (3, 0)):
        bad = rho.copy()
        bad[pos] = entry
        with pytest.raises(StateValidityError, match="finite"):
            DenseState(2, bad)


def test_m3n_density_bell():
    state = m3n_density(M3NState(2, CorrelationTriple(1, -1, 1)))
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    assert np.allclose(state.rho, np.outer(v, v), atol=1e-14)


def test_m3n_density_zero_triple_odd():
    state = m3n_density(M3NState(3, CorrelationTriple(0, 0, 0)))
    assert np.allclose(state.rho, np.eye(8) / 8, atol=1e-15)


def test_m3n_density_smolin_triple():
    # the generalised family at n=4 carries the all-plus triple
    state = m3n_density(M3NState(4, CorrelationTriple(1, 1, 1)))
    ref = build_state(StateFamily.smolin(), 4)
    assert np.allclose(state.rho, ref.rho, atol=1e-14)


def test_m3n_density_matches_kron_formula(rng):
    for n in (2, 3, 4):
        from conftest import random_m3n_inside_tetra

        state = random_m3n_inside_tetra(n, rng)
        ref = kron_chain([I2] * n).astype(complex)
        for cj, s in zip(state.c, (SX, SY, SZ)):
            ref += cj * kron_chain([s] * n)
        ref /= 2**n
        assert np.allclose(m3n_density(state).rho, ref, atol=1e-13)


def test_m3n_region_validation():
    # outside the even-n tetrahedron: all-minus at n=4
    with pytest.raises(StateValidityError):
        M3NState(4, CorrelationTriple(-1, -1, -1))
    # valid at n=6 where the tetrahedron is mirrored
    M3NState(6, CorrelationTriple(-1, -1, -1))
    # outside the odd-n unit ball
    with pytest.raises(StateValidityError):
        M3NState(3, CorrelationTriple(0.8, 0.8, 0.8))
    with pytest.raises(ParameterError):
        CorrelationTriple(1.5, 0, 0)


def test_m3n_spectrum_bell():
    lines = m3n_spectrum(M3NState(2, CorrelationTriple(1, -1, 1)))
    vals = sorted(
        itertools.chain.from_iterable([l.value] * l.multiplicity for l in lines)
    )
    assert np.allclose(vals, [0, 0, 0, 1], atol=1e-14)


def test_m3n_spectrum_odd_closed_form(rng):
    state = M3NState(3, CorrelationTriple(0.6, 0, 0))
    lines = m3n_spectrum(state)
    assert {l.multiplicity for l in lines} == {4}
    assert sorted(l.value for l in lines) == pytest.approx([0.4 / 8, 1.6 / 8])
    # cross-check against a dense eigensolve
    dense_vals = np.sort(np.linalg.eigvalsh(m3n_density(state).rho))
    expanded = np.sort(
        np.concatenate([[l.value] * l.multiplicity for l in lines])
    )
    assert np.allclose(dense_vals, expanded, atol=1e-12)


def test_m3n_spectrum_even_matches_dense(rng):
    from conftest import random_m3n_inside_tetra

    for n in (2, 4):
        state = random_m3n_inside_tetra(n, rng)
        lines = m3n_spectrum(state)
        assert sum(l.multiplicity for l in lines) == 2**n
        assert sum(l.value * l.multiplicity for l in lines) == pytest.approx(1.0)
        dense_vals = np.sort(np.linalg.eigvalsh(m3n_density(state).rho))
        expanded = np.sort(np.concatenate([[l.value] * l.multiplicity for l in lines]))
        assert np.allclose(dense_vals, expanded, atol=1e-12)


def test_m3n_spectrum_uniform_even():
    lines = m3n_spectrum(M3NState(4, CorrelationTriple(0, 0, 0)))
    assert all(l.value == pytest.approx(1 / 16) for l in lines)


def test_m3nfy_roundtrip_identity(rng):
    from entbound.locc import m3nfy
    from conftest import random_m3n_inside_tetra

    for n in (2, 3, 4, 5):
        state = random_m3n_inside_tetra(n, rng)
        back = m3nfy(m3n_density(state))
        assert np.allclose(back.c.as_array(), state.c.as_array(), atol=1e-12)


@pytest.mark.parametrize(
    "family,n",
    [
        (StateFamily.ghz(), 4),
        (StateFamily.w(), 4),
        (StateFamily.dicke(2), 4),
        (StateFamily.smolin(), 4),
        (StateFamily.wei(0.3), 4),
    ],
)
def test_permutation_invariant_families(family, n, rng):
    state = build_state(family, n)
    perm = list(rng.permutation(n))
    swapped = permutation_conjugate(state, perm)
    assert np.allclose(swapped.rho, state.rho, atol=1e-12)


def test_cluster_not_permutation_invariant():
    state = build_state(StateFamily.cluster_linear(), 4)
    swapped = permutation_conjugate(state, [1, 0, 2, 3])
    assert not np.allclose(swapped.rho, state.rho, atol=1e-6)


def test_state_spec_file_roundtrip(tmp_path):
    path = tmp_path / "wei.json"
    path.write_text(json.dumps({"family": "wei", "n": 4, "params": {"x": 0.75}}))
    family, n = load_state_spec(path)
    state = build_state(family, n)
    ref = build_state(StateFamily.wei(0.75), 4)
    assert np.allclose(state.rho, ref.rho, atol=1e-14)


def test_state_spec_file_errors(tmp_path):
    from entbound.errors import SchemaError

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4}')
    with pytest.raises(SchemaError):
        load_state_spec(bad)
    bad.write_text("not json")
    with pytest.raises(SchemaError):
        load_state_spec(bad)


def test_dense_export_row_major():
    state = build_state(StateFamily.ghz(), 2)
    flat = state.export_row_major()
    assert len(flat) == 16
    assert flat[0] == pytest.approx([0.5, 0.0])
    assert flat[3] == pytest.approx([0.5, 0.0])
    assert flat[1] == pytest.approx([0.0, 0.0])
