"""The dense-state kernels that read only what a measurement needs, checked
against the dense constructions they replace."""

import json
import math

import numpy as np
import pytest

from conftest import pauli_power, random_density, random_m3n_inside_tetra
from dense_reference import expectation
from dense_rotation import apply_product_unitary
from entbound._linalg import (
    SIGMA,
    SIGMA_STACK,
    contract_qubit_pairs,
    hamming_weights,
    kron_all,
    kron_apply,
    pauli_power_entries,
)
from entbound.cli import main
from entbound.errors import StateValidityError
from entbound.estimate import _BASIS_CHANGES
from entbound.pauli import correlation_tensor, correlation_triple, su2_from_angles
from entbound.qstate import (
    CorrelationTriple,
    DenseState,
    M3NState,
    StateFamily,
    _clears_psd_screen,
    build_state,
    m3n_density,
)


@pytest.mark.parametrize("n", range(1, 8))
def test_fast_triple_matches_dense_expectation(n, rng):
    for rank in (None, 1, 2):
        state = random_density(n, rng, rank=rank)
        fast = correlation_triple(state)
        for j, value in zip((1, 2, 3), fast):
            assert abs(value - expectation(state, (j,) * n)) <= 1e-15


@pytest.mark.parametrize("n", range(1, 8))
def test_fast_triple_has_no_negative_zero(n):
    # an anti-diagonal of signed zeros sums to -0.0
    dim = 2**n
    idx = np.arange(dim)
    rho = np.eye(dim, dtype=complex) / dim
    rho[idx, dim - 1 - idx] = complex(-0.0, 0.0)
    for value in correlation_triple(DenseState(n, rho)):
        assert value == 0
        assert math.copysign(1.0, value) == 1.0


def _bloch_reference(state):
    """The bloch block as the loop over tensordot with SIGMA_STACK[1:] computed it."""
    n = state.n
    cur = state.rho.reshape((2,) * (2 * n))
    for k in range(n):
        cur = np.tensordot(cur, SIGMA_STACK[1:], axes=([0, n - k], [2, 1]))
    return cur.real


@pytest.mark.parametrize("n", range(1, 6))
def test_bloch_block_bit_identical_to_tensordot_loop(n, rng):
    state = random_density(n, rng)
    assert np.array_equal(correlation_tensor(state).bloch, _bloch_reference(state))


@pytest.mark.parametrize("n", range(1, 7))
def test_dense_lines_under_match_dense_rotation(n, rng):
    state = random_density(n, rng)
    us = [su2_from_angles(rng.uniform(0, math.pi, 3)) for _ in range(n)]
    for axis in (1, 2, 3):
        ws = [_BASIS_CHANGES[axis - 1] @ u for u in us]
        rotated = apply_product_unitary(np.array(state.rho), ws, n)
        diag, anti = state.lines_under(ws)
        assert np.max(np.abs(diag - np.real(np.diagonal(rotated)))) <= 1e-15
        assert np.max(np.abs(anti - np.diagonal(rotated[:, ::-1]))) <= 1e-15


def _tensordot_line(rho, ws, rows, n):
    """sum over r, c of rho[r, c] prod_k ws[k][i_k, r_k] conj(rows[k][i_k, c_k]), qubit by qubit."""
    cur = rho.reshape((2,) * (2 * n))
    for k, (w, r) in enumerate(zip(ws, rows)):
        cur = np.tensordot(cur, w[:, :, None] * r.conj()[:, None, :], axes=([0, n - k], [1, 2]))
    return cur.reshape(-1)


@pytest.mark.parametrize("n", range(1, 7))
def test_dense_lines_under_bit_identical_to_tensordot_loop(n, rng):
    # sampling reads the diagonal as probabilities, so a zero must stay an exact zero
    state = random_density(n, rng)
    ws = [_BASIS_CHANGES[k % 3] @ su2_from_angles(rng.uniform(0, math.pi, 3)) for k in range(n)]
    diag, anti = state.lines_under(ws)
    assert np.array_equal(diag, np.real(_tensordot_line(state.rho, ws, ws, n)))
    assert np.array_equal(anti, _tensordot_line(state.rho, ws, [w[::-1] for w in ws], n))
    assert np.array_equal(state.lines_under(ws, anti=False)[0], diag)


@pytest.mark.parametrize("n", range(1, 6))
def test_batched_pair_contraction_matches_each_batch_entry(n, rng):
    rho = random_density(n, rng).rho
    mats = [rng.standard_normal((4, 3, 2, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2, 2))
            for _ in range(n)]
    batched = contract_qubit_pairs(rho, mats, n)
    assert batched.shape == (4, 3) + (2,) * n
    for b in np.ndindex(4, 3):
        assert np.array_equal(batched[b], contract_qubit_pairs(rho, [m[b] for m in mats], n))


@pytest.mark.parametrize("n", range(1, 6))
def test_batched_kron_apply_matches_each_batch_entry(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    mats = [rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
            for _ in range(n)]
    batched = kron_apply(mats, v)
    assert batched.shape == (4, 3, 2**n)
    for b in np.ndindex(4, 3):
        single = kron_apply([m[b] for m in mats], v)
        assert np.array_equal(batched[b], single)
        assert np.allclose(single, kron_all([m[b] for m in mats]) @ v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=["none", "3", "2x3"])
@pytest.mark.parametrize("n", range(1, 9))
def test_kron_apply_is_exact_on_gaussian_integers(n, batch, rng):
    # entries in {0, +-1, +-i} and small Gaussian-integer vectors keep every partial
    # sum an exact integer, so any summation order must give the Kronecker product's
    # values exactly; the X-form bloch block applies such factors to its lines
    units = np.array([0, 1, -1, 1j, -1j])
    mats = [units[rng.integers(5, size=batch + (2, 2))] for _ in range(n)]
    lines = {"one line": rng.integers(-3, 4, 2**n) + 1j * rng.integers(-3, 4, 2**n),
             "a line per row": rng.integers(-3, 4, batch + (2**n,))
             + 1j * rng.integers(-3, 4, batch + (2**n,))}
    for name, v in lines.items():
        out = kron_apply(mats, v)
        assert out.shape == batch + (2**n,), name
        for b in np.ndindex(*batch):
            want = kron_all([m[b] for m in mats]) @ v[b if v.ndim > 1 else ()]
            assert np.array_equal(out[b], want), (name, b)


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_entries_are_cached_and_read_only(n):
    weights = hamming_weights(n)
    assert hamming_weights(n) is weights and not weights.flags.writeable
    assert weights.tolist() == [bin(i).count("1") for i in range(2**n)]
    idx = np.arange(2**n)
    for j in (1, 2, 3):
        entries = pauli_power_entries(j, n)
        assert pauli_power_entries(j, n) is entries and not entries.flags.writeable
        rows = idx if j == 3 else 2**n - 1 - idx
        assert np.array_equal(entries, kron_all([SIGMA[j]] * n)[rows, idx])


def _with_smallest_eigenvalue(lo, n=4, seed=7):
    """A Hermitian unit-trace matrix whose smallest eigenvalue is ``lo``."""
    rng = np.random.default_rng(seed)
    dim = 2**n
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rest = rng.uniform(0.5, 1.5, dim - 1)
    spectrum = np.concatenate([[lo], rest * (1 - lo) / rest.sum()])
    rho = (q * spectrum) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("lo", [-4e-10, -6e-10, -9.9e-10])
def test_psd_check_accepts_eigenvalues_above_the_floor(lo):
    rho = _with_smallest_eigenvalue(lo)
    assert abs(np.linalg.eigvalsh(rho)[0] - lo) < 1e-13
    assert _clears_psd_screen(rho) == (lo > -5e-10)
    DenseState(4, rho)


@pytest.mark.parametrize("lo, text", [(-1.01e-9, "-1.010e-09"), (-0.1, "-1.000e-01")])
def test_psd_check_rejects_eigenvalues_below_the_floor(lo, text):
    rho = _with_smallest_eigenvalue(lo)
    assert not _clears_psd_screen(rho)
    with pytest.raises(StateValidityError, match=f"^smallest eigenvalue {text} below -1e-09$"):
        DenseState(4, rho)


def test_psd_screen_passes_non_finite_matrices_to_the_eigenvalue_test():
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = rho[2, 1] = np.nan
    assert not _clears_psd_screen(rho)


def _pauli_power_sum(state):
    """The matrix as I + sum_j c_j sigma_j^{xn} over 2^n, summed densely."""
    dim = 2**state.n
    rho = np.eye(dim, dtype=complex)
    for j, cj in enumerate(state.c, start=1):
        if cj != 0:
            rho += cj * pauli_power(j, state.n)
    return rho / dim


@pytest.mark.parametrize("n", range(2, 11))
def test_m3n_density_bit_identical_to_pauli_power_sum(n, rng):
    states = [random_m3n_inside_tetra(n, rng)]
    if n % 2:
        states.append(M3NState(n, CorrelationTriple(0.3, 0.0, -0.2)))
        states.append(M3NState(n, CorrelationTriple(0.0, -0.5, 0.0)))
    for state in states:
        assert m3n_density(state).rho.tobytes() == _pauli_power_sum(state).tobytes()


@pytest.mark.parametrize(
    "family, params, n",
    [
        (StateFamily.ghz(), "{}", 5),
        (StateFamily.wei(0.3), '{"x": 0.3}', 5),
        (StateFamily.m3n((0.2, -0.4, 0.1)), '{"c": [0.2, -0.4, 0.1]}', 3),
        (StateFamily.white_noise_mix(StateFamily.w(), 0.6),
         '{"inner": {"family": "w"}, "q": 0.6}', 6),
        (StateFamily.dicke(3), '{"k": 3}', 6),
        (StateFamily.cluster_linear(), "{}", 6),
        (StateFamily.cluster_rect(2, 3), '{"rows": 2, "cols": 3}', 6),
        (StateFamily.singlet4(), "{}", 4),
        (StateFamily.smolin(), "{}", 6),
        (StateFamily.m3n((0.5, 0.3, -0.2)), '{"c": [0.5, 0.3, -0.2]}', 6),
        (StateFamily.white_noise_mix(StateFamily.m3n((0.1, 0.2, -0.3)), 0.35),
         '{"inner": {"family": "m3n", "params": {"c": [0.1, 0.2, -0.3]}}, "q": 0.35}', 5),
        (StateFamily.white_noise_mix(StateFamily.white_noise_mix(StateFamily.ghz(), 0.8), 0.5),
         '{"inner": {"family": "white_noise_mix", "params": {"inner": {"family": "ghz"}, '
         '"q": 0.8}}, "q": 0.5}', 6),
    ],
)
def test_state_purity_is_trace_of_square(family, params, n, capsys):
    argv = ["state", "--family", family.tag, "--n", str(n), "--params", params, "--full-precision"]
    assert main(argv) == 0
    purity = json.loads(capsys.readouterr().out)["purity"]
    rho = build_state(family, n).rho
    assert abs(purity - np.trace(rho @ rho).real) <= 1e-15
