import functools
import itertools
import json
import math

import numpy as np
import pytest

from dense_reference import ghz_dense, permutation_conjugate
from entbound import qstate
from entbound._linalg import SIGMA_STACK, contract_qubit_pairs, pauli_power_entries
from entbound.errors import CapacityError, ParameterError, StateValidityError
from entbound.qstate import (
    CorrelationTriple,
    DenseState,
    M3NState,
    StateFamily,
    build_state,
    load_state_spec,
    m3n_density,
)
from m3n_constructions import m3n_spectrum

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
        build_state(StateFamily.ghz(), 17)


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


def _scaled_tetrahedron_check(n, c):
    """The even-n check as it was: every spectral expression scaled by 2^-n."""
    e = (-1) ** (n // 2)
    worst = min(
        (1 + s * c[0] + s * e * (-1) ** p * c[1] + (-1) ** p * c[2]) / 2**n
        for s in (1, -1)
        for p in (0, 1)
    )
    return worst >= -1e-12 / 2**n


def test_even_n_check_decides_as_the_scaled_comparison(rng):
    # points on a face of the tetrahedron, pushed off it by about the tolerance,
    # and points anywhere in the cube
    decisions = []
    for _ in range(400):
        n = int(rng.choice(np.arange(4, 21, 2)))
        e = (-1) ** (n // 2)
        verts = np.array([[1, e, 1], [-1, -e, 1], [1, -e, -1], [-1, e, -1]], dtype=float)
        if rng.random() < 0.75:
            face = rng.choice(4, size=3, replace=False)
            c = rng.dirichlet(np.ones(3)) @ verts[face]
            c[rng.integers(3)] += rng.uniform(-3e-12, 3e-12)
        else:
            c = rng.uniform(-1, 1, size=3)
        try:
            triple = CorrelationTriple(*map(float, c))
        except ParameterError:
            continue
        try:
            M3NState(n, triple)
            accepted = True
        except StateValidityError:
            accepted = False
        assert accepted == _scaled_tetrahedron_check(n, tuple(triple)), (n, c)
        decisions.append(accepted)
    assert len(decisions) > 300 and 50 < sum(decisions) < len(decisions) - 50


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


def test_m3n_spectrum_beyond_the_float_range_of_2_to_the_n():
    even = m3n_spectrum(M3NState(1024, CorrelationTriple(0.5, 0.5, 0.5)))
    assert [line.value for line in even] == [math.ldexp(v, -1024) for v in (2.5, 0.5, 0.5, 0.5)]
    assert {line.multiplicity for line in even} == {2**1022}
    odd = m3n_spectrum(M3NState(1025, CorrelationTriple(1.0, 0.0, 0.0)))
    assert [line.value for line in odd] == [math.ldexp(2.0, -1025), 0.0]


def test_m3n_spectrum_uniform_even():
    lines = m3n_spectrum(M3NState(4, CorrelationTriple(0, 0, 0)))
    assert all(l.value == pytest.approx(1 / 16) for l in lines)


def test_m3nfy_roundtrip_identity(rng):
    from conftest import random_m3n_inside_tetra
    from entbound.pauli import correlation_triple

    for n in (2, 3, 4, 5):
        state = random_m3n_inside_tetra(n, rng)
        back = M3NState(state.n, correlation_triple(m3n_density(state)))
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


# -- states certified by construction --------------------------------------------
# The builders prove their own states valid in O(2^n) and skip the dense checks.
# The references below are the dense constructions they replaced, copied as they
# were; every built matrix must equal its reference bit for bit.


def _reference_projector(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _reference_vector(family, n):
    dim = 2**n
    v = np.zeros(dim, dtype=complex)
    if family.tag == "ghz":
        v[0] = v[-1] = 1 / math.sqrt(2)
        return v
    if family.tag == "w":
        for k in range(n):
            v[1 << k] = 1
        return v / math.sqrt(n)
    if family.tag == "dicke":
        k = family.params["k"]
        for positions in itertools.combinations(range(n), k):
            v[sum(1 << (n - 1 - p) for p in positions)] = 1
        return v / math.sqrt(math.comb(n, k))
    if family.tag == "singlet4":
        v[0b0011] = v[0b1100] = 1
        for idx in (0b0101, 0b0110, 0b1001, 0b1010):
            v[idx] = -0.5
        return v / math.sqrt(3)
    if family.tag == "cluster_linear":
        edges = [(k, k + 1) for k in range(n - 1)]
    else:
        rows = family.params["rows"]
        cols = n // rows
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    v = np.full(dim, 1 / math.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for a, b in edges:
        v[(((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)).astype(bool)] *= -1
    return v


def _reference_rho(family, n):
    dim = 2**n
    params = family.params
    if family.tag == "wei":
        x = params["x"]
        w = (1 - x) / (2 * n)
        diag = np.zeros(dim)
        for k in range(1, n + 1):
            diag[2 ** (k - 1)] += w
            diag[dim - 1 - 2 ** (k - 1)] += w
        ghz = _reference_vector(StateFamily.ghz(), n)
        return x * _reference_projector(ghz) + np.diag(diag).astype(complex)
    if family.tag in ("m3n", "smolin"):
        s = float((-1) ** (n // 2))
        c = params["c"] if family.tag == "m3n" else CorrelationTriple(s, s, s)
        diag = np.ones(dim, dtype=complex)
        anti = np.zeros(dim, dtype=complex)
        for j, cj in enumerate(c, start=1):
            if cj != 0:
                line = diag if j == 3 else anti
                line += cj * pauli_power_entries(j, n)
        idx = np.arange(dim)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[idx, idx] = diag / dim
        rho[dim - 1 - idx, idx] = anti / dim
        return rho
    if family.tag == "white_noise_mix":
        q = params["q"]
        return q * _reference_rho(params["inner"], n) + (1 - q) * np.eye(dim) / dim
    return _reference_projector(_reference_vector(family, n))


def _m3n_triples(n, rng):
    """A random triple, and the tetrahedron vertices (even n) or unit vectors (odd n)."""
    from conftest import random_m3n_inside_tetra

    triples = [tuple(random_m3n_inside_tetra(n, rng).c)]
    if n % 2 == 0:
        e = (-1) ** (n // 2)
        return triples + [(1, e, 1), (-1, -e, 1), (1, -e, -1), (-1, e, -1)]
    u = rng.standard_normal(3)
    return triples + [(1, 0, 0), (0, -1, 0), tuple(u / np.linalg.norm(u))]


def _family_cases():
    rng = np.random.default_rng(1507)
    cases = []
    for n in range(2, 11):
        rect = [StateFamily.cluster_rect(r, n // r) for r in range(2, n // 2 + 1) if n % r == 0]
        families = [StateFamily.ghz(), StateFamily.w(), StateFamily.cluster_linear(), *rect]
        families += [StateFamily.dicke(k) for k in range(n + 1)]
        m3n = [StateFamily.m3n(c) for c in _m3n_triples(n, rng)]
        families += m3n
        inners = [StateFamily.ghz(), StateFamily.w(), StateFamily.dicke(n // 2),
                  StateFamily.cluster_linear(), *rect[:1], m3n[0]]
        if n >= 4:
            wei = [StateFamily.wei(x) for x in (0.0, 1.0, rng.uniform())]
            families += wei
            inners.append(wei[-1])
        if n >= 4 and n % 2 == 0:
            families.append(StateFamily.smolin())
            inners.append(StateFamily.smolin())
        if n == 4:
            families.append(StateFamily.singlet4())
            inners.append(StateFamily.singlet4())
        families += [StateFamily.white_noise_mix(f, rng.uniform()) for f in inners]
        families += [StateFamily.white_noise_mix(inners[0], q) for q in (0.0, 1.0)]
        families += [StateFamily.white_noise_mix(StateFamily.white_noise_mix(f, 0.7), 0.4)
                     for f in (StateFamily.w(), m3n[0])]
        cases += [pytest.param(f, n, id=f"n{n}-{f.tag}-{i}") for i, f in enumerate(families)]
    return cases


@pytest.mark.parametrize("family, n", _family_cases())
def test_built_state_is_bit_identical_and_passes_the_dense_check(family, n):
    state = build_state(family, n)
    ref = _reference_rho(family, n)
    assert state.rho.dtype == ref.dtype and state.rho.shape == ref.shape
    assert state.rho.tobytes() == ref.tobytes()
    assert not state.rho.flags.writeable
    DenseState(n, np.array(state.rho))  # the full check a matrix from outside gets


# -- form conformance: every read of every form against the dense reference -------
# Each state below holds one form; every read answers from it, never builds rho on
# a built state, and agrees with the same read of ``state.rho``, made afterwards.

def _is_dense(state):
    return isinstance(state._form, qstate._DenseForm)


def _assert_no_matrix(state):
    """A built state answered without its dense matrix; a dense form holds it from the start."""
    assert state._rho is None or _is_dense(state)


def _random_unitaries(rng, shape):
    z = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
    return np.linalg.qr(z)[0]


def _check_lines(state, rng):
    diag, anti = state.lines()
    _assert_no_matrix(state)
    rho = state.rho
    assert not rho.flags.writeable and state.rho is rho  # built once, frozen, cached
    idx = np.arange(state.dim)
    assert diag.dtype == anti.dtype == rho.dtype
    assert diag.tobytes() == np.diagonal(rho).tobytes()
    assert anti.tobytes() == rho[idx, state.dim - 1 - idx].tobytes()
    # the same matrix from outside passes the dense check, and its dense form reads it alike
    outside = DenseState(state.n, np.array(rho))
    assert [line.tobytes() for line in outside.lines()] == [diag.tobytes(), anti.tobytes()]


def _check_purity(state, rng):
    purity = state.purity()
    _assert_no_matrix(state)
    rho = state.rho
    assert qstate._DenseForm(rho).purity() == np.vdot(rho, rho).real  # checked under lines
    if not _is_dense(state):
        # the sum of |rho_ij|^2, correctly rounded: np.vdot(rho, rho) itself rounds
        # by up to 2e-13 at n = 10, where the form's sum of 2^n terms does not
        exact = math.fsum((rho.real**2 + rho.imag**2).ravel().tolist())
        assert abs(purity - exact) <= 1e-15


def _check_top_eigenvalue(state, rng):
    top = state.top_eigenvalue()
    _assert_no_matrix(state)
    # eigvalsh itself is off by up to 1.3e-15 here (the linear cluster at n = 7)
    largest = np.linalg.eigvalsh(state.rho)[-1]
    if _is_dense(state):
        assert top == 1.0 and largest <= 1 + 2e-15  # the trace bounds every eigenvalue
    else:
        assert top == pytest.approx(largest, abs=2e-15)


def _check_lines_under(state, rng):
    """Shared, per-qubit and batched (3, 2) unitaries against U rho U^dag made densely."""
    n = state.n
    sets = [[_random_unitaries(rng, ())] * n, list(_random_unitaries(rng, (n,))),
            list(_random_unitaries(rng, (n, 3, 2)))]
    reads = [(us, state.lines_under(us)) for us in sets]
    born_only = state.lines_under(sets[1], anti=False)
    _assert_no_matrix(state)
    assert born_only[1] is None and np.array_equal(born_only[0], reads[1][1][0])
    for us, (born, anti) in reads:
        batch = us[0].shape[:-2]
        assert born.shape == anti.shape == batch + (state.dim,) and np.isrealobj(born)
        for b in np.ndindex(batch):
            u = kron_chain([x[b] for x in us])
            rotated = u @ state.rho @ u.conj().T
            assert np.max(np.abs(born[b] - np.diagonal(rotated))) <= 1e-14
            assert np.max(np.abs(anti[b] - np.diagonal(rotated[:, ::-1]))) <= 1e-14


def _check_sandwich(state, rng):
    """V^dag rho V, m = 1 and 4, batched."""
    dim = state.dim
    reads = []
    for shape in [(dim, 1), (dim, 4), (3, dim, 1), (2, 3, dim, 4)]:
        vs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vs /= np.linalg.norm(vs, axis=-2, keepdims=True)
        reads.append((vs, state.sandwich(vs)))
    _assert_no_matrix(state)
    for vs, got in reads:
        want = np.swapaxes(vs.conj(), -1, -2) @ state.rho @ vs
        assert got.shape == want.shape == vs.shape[:-2] + (vs.shape[-1],) * 2
        assert np.max(np.abs(got - want)) <= 1e-14


def _check_qubit_gram(state, rng):
    """The Gram matrix of the vectors h_e x |c> x t_e, at every qubit, for m = 1, 2 and
    3, batched."""
    n = state.n
    reads = []
    for k in range(n):
        for batch, m in [((), 1), ((3,), 2), ((2, 3), 3)]:
            heads = rng.standard_normal(batch + (m, 2**k)) + 1j * rng.standard_normal(batch + (m, 2**k))
            shape = batch + (m, 2 ** (n - k - 1))
            tails = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            reads.append((heads, tails, state.qubit_gram(heads, tails)))
    _assert_no_matrix(state)
    for heads, tails, got in reads:
        m = heads.shape[-2]
        vecs = np.empty(heads.shape[:-2] + (state.dim, m, 2), dtype=complex)
        for index in np.ndindex(heads.shape[:-1]):
            for c in (0, 1):
                vecs[index[:-1] + (slice(None), index[-1], c)] = np.kron(
                    np.kron(heads[index], np.eye(2)[c]), tails[index])
        vecs = vecs.reshape(vecs.shape[:-2] + (2 * m,))
        want = np.swapaxes(vecs.conj(), -1, -2) @ state.rho @ vecs
        assert got.shape == heads.shape[:-2] + (m, 2, m, 2)
        scale = max(1.0, np.abs(want).max())
        assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-14 * scale


def _check_bloch(state, rng, exact=None):
    """The contraction of ``rho`` that ``bloch`` replaces: bit for bit, or within 1e-15
    where the form sums in another order (a white-noise mix scales the inner block
    instead of contracting the noise)."""
    got = state.bloch()
    _assert_no_matrix(state)
    n = state.n
    want = contract_qubit_pairs(state.rho, [SIGMA_STACK[1:].transpose(0, 2, 1)] * n, n)
    assert got.shape == want.shape == (3,) * n
    if exact is None:
        exact = not isinstance(state._form, qstate._MixForm)
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15


#: each read, with the largest n it is checked at
_READS = {"lines": (_check_lines, 10), "purity": (_check_purity, 10),
          "top_eigenvalue": (_check_top_eigenvalue, 7), "lines_under": (_check_lines_under, 8),
          "sandwich": (_check_sandwich, 8), "qubit_gram": (_check_qubit_gram, 8),
          "bloch": (_check_bloch, 10)}


def _conformance_states():
    """(id, n, build) of a state in every form: the catalog families (pure, X and nested
    white-noise mixes), random vectors, GHZ-diagonal and random X matrices, and
    matrices from outside (dense forms), random and of a white-noise mix."""
    from conftest import random_density, random_ghz_spectrum

    def vector(n):
        rng = np.random.default_rng(n)
        return DenseState.from_vector(rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))

    mix = StateFamily.white_noise_mix(StateFamily.w(), 0.6)
    builders = {  # name: (smallest n, largest n, build at n)
        "vector": (1, 10, vector),
        "ghz-diagonal": (1, 10, lambda n: ghz_dense(random_ghz_spectrum(n, np.random.default_rng(n)))),
        "x": (1, 10, lambda n: DenseState(n, None, qstate._CERTIFIED, qstate._XForm(*_x_vectors(n)))),
        "dense": (1, 8, lambda n: random_density(n, np.random.default_rng(n))),
        "dense-mix": (2, 8, lambda n: DenseState(n, np.array(build_state(mix, n).rho))),
    }
    cases = [(case.id, case.values[1], functools.partial(build_state, *case.values))
             for case in _family_cases()]
    cases += [(f"n{n}-{name}", n, functools.partial(build, n))
              for name, (lo, hi, build) in builders.items() for n in range(lo, hi + 1)]
    return [pytest.param(build, read, id=f"{case_id}-{read}")
            for case_id, n, build in cases for read, (_, top_n) in _READS.items() if n <= top_n]


@pytest.mark.parametrize("build, read", _conformance_states())
def test_form_read_matches_the_dense_reference(build, read, rng):
    _READS[read][0](build(), rng)


def test_top_eigenvalue_of_a_dense_form_is_the_trace(rng):
    from conftest import random_density

    pure = DenseState(5, np.array(build_state(StateFamily.w(), 5).rho))
    mixed = random_density(5, rng)
    assert pure.top_eigenvalue() == mixed.top_eigenvalue() == 1.0
    assert np.linalg.eigvalsh(pure.rho)[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.eigvalsh(mixed.rho)[-1] < 0.5


@pytest.mark.parametrize("n", range(3, 9))
def test_dense_qubit_gram_equals_the_three_operand_einsum_bit_for_bit(n, rng):
    # the dense read puts h_e[i] t_e[j] into the c = d slots of a zero array; the
    # per-qubit overlap ascent's values stay as the einsum with the identity left them
    from conftest import random_density

    state = random_density(n, rng)
    for k in range(n):
        for batch, m in [((), 1), ((4,), 2), ((2, 3), 3)]:
            heads = rng.standard_normal(batch + (m, 2**k)) + 1j * rng.standard_normal(batch + (m, 2**k))
            shape = batch + (m, 2 ** (n - k - 1))
            tails = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            vecs = np.einsum("...ei,...ej,cd->...icjed", heads, tails, np.eye(2))
            want = state.sandwich(vecs.reshape(batch + (-1, 2 * m))).reshape(batch + (m, 2, m, 2))
            assert np.array_equal(state.qubit_gram(heads, tails), want)


@pytest.mark.parametrize("chunk", [4, 64])
@pytest.mark.parametrize("n", range(3, 9))
def test_bloch_of_vectors_in_chunks(n, chunk, rng, monkeypatch):
    # N_a of 4 or 64 entries splits off n - 1 or n - 3 leading qubits
    monkeypatch.setattr(qstate, "CHUNK_ENTRIES", chunk)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    _check_bloch(DenseState.from_vector(psi), None, exact=False)


@pytest.mark.parametrize("n", [11, 12])
def test_bloch_of_vectors_past_one_chunk(n, rng):
    # from n = 11 on, N_a of the default CHUNK_ENTRIES splits off n - 10 qubits
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    _check_bloch(DenseState.from_vector(psi), None, exact=False)


def test_built_state_is_immutable():
    state = build_state(StateFamily.w(), 3)
    for name in ("n", "rho", "_form"):
        with pytest.raises(AttributeError):
            setattr(state, name, None)
    diag, _ = build_state(StateFamily.m3n((0.1, 0.2, 0.3)), 3).lines()
    assert not diag.flags.writeable  # a view of the form, which stays frozen


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DenseState.from_vector([math.nan, 0, 0, 1]), StateValidityError,
         "matrix entries must be finite"),
        (lambda: DenseState.from_vector([0, 0, 0, 0]), StateValidityError,
         "matrix entries must be finite"),
        (lambda: DenseState.from_vector([math.inf, 0]), StateValidityError,
         "matrix entries must be finite"),
        (lambda: DenseState.from_vector([1e200, 1e200]), StateValidityError,
         "trace is 0j, expected 1"),
        (lambda: DenseState.from_vector([1, 0, 0]), ParameterError,
         "vector length 3 is not a power of 2"),
        (lambda: DenseState.from_vector([1]), ParameterError,
         "qubit count must be positive, got 0"),
        (lambda: build_state(StateFamily.wei(1.5), 4), ParameterError,
         "Wei parameter x must be in [0, 1], got 1.5"),
        (lambda: build_state(StateFamily.wei(-0.25), 6), ParameterError,
         "Wei parameter x must be in [0, 1], got -0.25"),
        (lambda: build_state(StateFamily.wei(math.nan), 6), ParameterError,
         "Wei parameter x must be in [0, 1], got nan"),
        (lambda: build_state(StateFamily.white_noise_mix(StateFamily.ghz(), 1.25), 3),
         ParameterError, "mixing probability q must be in [0, 1], got 1.25"),
        (lambda: build_state(StateFamily.white_noise_mix(StateFamily.w(), -0.5), 3),
         ParameterError, "mixing probability q must be in [0, 1], got -0.5"),
        (lambda: build_state(StateFamily.m3n((-1, -1, -1)), 4), StateValidityError,
         "triple (-1.0, -1.0, -1.0) lies outside the physical tetrahedron for n=4 "
         "(spectral expression -2.000e+00)"),
        (lambda: build_state(StateFamily.m3n((1, 1, 1)), 6), StateValidityError,
         "triple (1.0, 1.0, 1.0) lies outside the physical tetrahedron for n=6 "
         "(spectral expression -2.000e+00)"),
        (lambda: build_state(StateFamily.m3n((0.8, 0.8, 0.8)), 3), StateValidityError,
         "triple (0.8, 0.8, 0.8) lies outside the unit ball (|c|^2 = 1.9200000000000004)"),
        (lambda: build_state(StateFamily.m3n((0.6, 0.6, 0.6)), 9), StateValidityError,
         "triple (0.6, 0.6, 0.6) lies outside the unit ball (|c|^2 = 1.08)"),
    ],
)
def test_invalid_family_input_keeps_its_error(build, error, message):
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def _x_vectors(n, seed=3):
    """Diagonal and anti-diagonal of a random X density matrix, with complex phases."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(2**n)).reshape(-1, 2)
    mean = (p[:, 0] + p[:, 1]) / 2
    cross = (p[:, 0] - p[:, 1]) / 2 * np.exp(1j * rng.uniform(0, 2 * np.pi, len(p)))
    return (np.concatenate([mean, mean[::-1]]).astype(complex),
            np.concatenate([cross, cross[::-1].conj()]))


@pytest.mark.parametrize("n", [3, 12])
def test_x_matrix_certificate(n):
    from entbound.qstate import _check_x_matrix

    diag, anti = _x_vectors(n)
    _check_x_matrix(diag, anti)
    k = 2 ** (n - 1) - 2  # a block inside the vectors, not at their ends

    # block k is [[d, a*], [a, d]], with eigenvalues d -/+ |a|
    neg = anti.copy()
    neg[k] = (diag[k].real + 1e-6) * 1j
    neg[-1 - k] = np.conj(neg[k])
    with pytest.raises(StateValidityError, match=r"^smallest eigenvalue -1\.000e-06 below -1e-09$"):
        _check_x_matrix(diag, neg)

    for vector, entry in ((diag, math.nan), (anti, math.inf), (diag, complex(0, math.inf))):
        bad = vector.copy()
        bad[k] = entry
        args = (bad, anti) if vector is diag else (diag, bad)
        with pytest.raises(StateValidityError, match="^matrix entries must be finite$"):
            _check_x_matrix(*args)

    skew = anti.copy()
    skew[-1 - k] += 1e-9
    with pytest.raises(StateValidityError, match=r"^matrix is not Hermitian: residue 1\.000e-09$"):
        _check_x_matrix(diag, skew)

    with pytest.raises(StateValidityError, match="^trace is .*, expected 1$"):
        _check_x_matrix(diag * 1.001, anti)
