"""The three-setting protocol: measurement records, the counts-to-triple step,
and Born probabilities read from each built state's form."""

import ast
import itertools
import json
import math

import numpy as np
import pytest

from conftest import FORMS, random_ghz_spectrum, refuse_matrix
from dense_reference import ghz_dense
from dense_rotation import apply_product_unitary
from entbound import _linalg, qstate
from entbound._linalg import pauli_power_entries
from entbound.cli import main
from entbound.errors import ParameterError
from entbound.estimate import (
    _BASIS_CHANGES,
    MeasurementRecord,
    _outcome_keys,
    counts_to_triple,
    simulate_measurements,
)
from entbound.optimize import _screen_overlaps, _shared_grid
from entbound.pauli import (
    LocalRotation,
    correlation_tensor,
    correlation_triple,
    rotated_triple,
    su2_from_angles,
)
from entbound.qstate import DenseState, StateFamily, build_state
from simulate_reference import simulate_per_setting


# -- records ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "axis, shots, counts, message",
    [
        (0, 1, {"++": 1}, "axis must be 1, 2 or 3"),
        (4, 1, {"++": 1}, "axis must be 1, 2 or 3"),
        (1, 0, {}, "shots must be >= 1"),
        (1, 1, {"+": 1}, "malformed outcome string '\\+'"),
        (1, 1, {"+-+": 1}, "malformed outcome string"),
        (1, 1, {"+x": 1}, "malformed outcome string"),
        (1, 1, {"0-": 1}, "malformed outcome string"),
        (1, 1, {"+\n": 1}, "malformed outcome string"),
        (1, 2, {"++": 3, "--": -1}, "negative count for outcome '--'"),
        (1, 5, {"++": 3, "--": 1}, "counts sum to 4, expected shots=5"),
    ],
)
def test_record_rejects_malformed_input(axis, shots, counts, message):
    with pytest.raises(ParameterError, match=message):
        MeasurementRecord(2, axis, shots, counts)


@pytest.mark.parametrize("key", ["", "+", "-", "++", "+-", "-+-", "+ ", "x-", "+\t", "−+"])
def test_record_key_check_matches_per_character_test(key):
    legal = len(key) == 2 and all(ch in "+-" for ch in key)
    try:
        MeasurementRecord(2, 3, 1, {key: 1})
    except ParameterError:
        assert not legal
    else:
        assert legal


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"++": 1, "+x": 1, "-": 1}, "malformed outcome string '\\+x'"),
        ({"--": 1, "-": 1, "+x": 1}, "malformed outcome string '-' "),
        ({"++": -1, "+x": 2}, "negative count for outcome '\\+\\+'"),
        ({"+x": 2, "++": -1}, "malformed outcome string '\\+x'"),
        ({"++": 2, "--": 0, "+-": -1, "-+": 0}, "negative count for outcome '\\+-'"),
    ],
)
def test_record_names_the_first_bad_key(counts, message):
    with pytest.raises(ParameterError, match=message):
        MeasurementRecord(2, 1, 1, counts)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_record_products_are_the_parity_of_minus_signs(n):
    keys = _outcome_keys(np.arange(2**n), n)
    rec = MeasurementRecord(n, 2, 2**n * (2**n + 1) // 2, {k: i + 1 for i, k in enumerate(keys[::-1])})
    prods, cnts = rec.products()
    ordered = sorted(rec.counts)
    assert prods.tolist() == [-1.0 if k.count("-") % 2 else 1.0 for k in ordered]
    assert cnts.tolist() == [float(rec.counts[k]) for k in ordered]


def _records(n=2, **by_axis):
    counts = {axis: {"+" * n: 1} for axis in (1, 2, 3)}
    counts.update({int(k[1:]): v for k, v in by_axis.items()})
    return [MeasurementRecord(n, axis, sum(c.values()), c) for axis, c in counts.items()]


def test_counts_to_triple_pins_mean_and_sigma():
    records = _records(a1={"++": 6, "+-": 2, "--": 2}, a2={"-+": 3, "+-": 1}, a3={"+-": 1})
    est = counts_to_triple(records)
    # axis 1: products +1 x 8, -1 x 2; sample variance 0.64 * 10/9 over 10 shots
    assert est.c.c1 == pytest.approx(0.6, abs=1e-15)
    assert est.sigma[0] == pytest.approx(0.8 / 3, abs=1e-15)
    # axis 2: every product is -1, so no spread; axis 3: one shot has variance 0
    assert (est.c.c2, est.sigma[1]) == (-1.0, 0.0)
    assert (est.c.c3, est.sigma[2]) == (-1.0, 0.0)
    assert est.n == 2


def test_counts_to_triple_single_shot_positive_product():
    est = counts_to_triple(_records(a1={"--": 1}))
    assert est.c.as_array().tolist() == [1.0, 1.0, 1.0]
    assert est.sigma == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "records, message",
    [
        (_records()[:2], "need exactly three records, got 2"),
        (_records()[:2] + _records()[:1], "need one record per axis 1, 2, 3"),
        (_records()[:2] + _records(n=3)[2:], "records disagree on the qubit count"),
    ],
    ids=["two-records", "missing-axis", "mixed-n"],
)
def test_counts_to_triple_rejects_bad_record_sets(records, message):
    with pytest.raises(ParameterError, match=message):
        counts_to_triple(records)


@pytest.mark.parametrize("n", range(1, 8))
def test_outcome_keys_match_binary_format(n):
    indices = np.arange(2**n)
    keys = _outcome_keys(indices, n)
    assert keys == [format(i, f"0{n}b").replace("0", "+").replace("1", "-") for i in indices]
    assert keys == sorted(keys)
    assert _outcome_keys(indices[:0], n) == []


# -- Born probabilities from the state's form -------------------------------------

def _families(n):
    """Every built family that exists at n, with white-noise mixes of a pure
    and an X-matrix state and one nested mix."""
    out = [StateFamily.ghz(), StateFamily.w(), StateFamily.dicke(n // 2),
           StateFamily.cluster_linear(), StateFamily.m3n((0.3, -0.2, 0.4))]
    if n in (4, 6, 8):
        out += [StateFamily.cluster_rect(2), StateFamily.smolin()]
    if n >= 4:
        out.append(StateFamily.wei(0.4))
    if n == 4:
        out.append(StateFamily.singlet4())
    mix_w = StateFamily.white_noise_mix(StateFamily.w(), 0.7)
    out += [mix_w, StateFamily.white_noise_mix(StateFamily.m3n((0.1, 0.2, -0.3)), 0.6),
            StateFamily.white_noise_mix(mix_w, 0.5)]
    return out


def _rotations(n, rng):
    return [None, LocalRotation.from_shared(rng.uniform(0, math.pi, 3)),
            LocalRotation.from_per_qubit(rng.uniform(0, math.pi, (n, 3)))]


def _assert_form_matches_dense(state, rotations):
    n = state.n
    outside = DenseState(n, np.array(state.rho))
    assert not isinstance(state._form, FORMS["dense"])
    for rot in rotations:
        us = rot.unitaries(n) if rot is not None else [np.eye(2)] * n
        for axis in (1, 2, 3):
            ws = [_BASIS_CHANGES[axis - 1] @ u for u in us]
            fast, _ = state.lines_under(ws, anti=False)
            assert np.max(np.abs(fast - outside.lines_under(ws, anti=False)[0])) <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_born_from_form_matches_dense_contraction(n, rng):
    for family in _families(n):
        _assert_form_matches_dense(build_state(family, n), _rotations(n, rng))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_born_from_ghz_diagonal_form_matches_dense(n, rng):
    _assert_form_matches_dense(ghz_dense(random_ghz_spectrum(n, rng)), _rotations(n, rng))


def test_outside_matrix_becomes_a_dense_form():
    state = build_state(StateFamily.ghz(), 3)
    outside = DenseState(3, np.array(state.rho))
    assert isinstance(outside._form, FORMS["dense"])
    assert outside._form.rho.tobytes() == state.rho.tobytes()
    assert not outside._form.rho.flags.writeable
    # a form passed without the builders' certificate is ignored: the matrix is checked
    assert isinstance(DenseState(3, np.array(state.rho), None, state._form)._form, FORMS["dense"])


# -- lines of a locally rotated state, from the form ------------------------------

def _unitary_sets(n, rng):
    """Shared, per-qubit and batched unitaries: a (3, 2) stack of them on every qubit."""
    shared = su2_from_angles(rng.uniform(0, math.pi, 3))
    return [[shared] * n, list(su2_from_angles(rng.uniform(0, math.pi, (n, 3)))),
            list(su2_from_angles(rng.uniform(0, math.pi, (n, 3, 2, 3))))]


def _assert_lines_match_dense(state, rng):
    n = state.n
    outside = DenseState(n, np.array(state.rho))
    for us in _unitary_sets(n, rng):
        batch = us[0].shape[:-2]
        got, want = state.lines_under(us), outside.lines_under(us)
        for line, dense in zip(got, want):
            assert line.shape == dense.shape == batch + (2**n,)
            assert np.max(np.abs(line - dense)) <= 1e-14
        for b in np.ndindex(batch):
            single = outside.lines_under([u[b] for u in us])
            assert all(np.array_equal(line[b], one) for line, one in zip(want, single))


@pytest.mark.parametrize("n", range(2, 9))
def test_lines_under_match_dense_contraction(n, rng):
    for family in _families(n):
        _assert_lines_match_dense(build_state(family, n), rng)
    _assert_lines_match_dense(ghz_dense(random_ghz_spectrum(n, rng)), rng)


def _extended_rotated_triple(state, rot):
    """The rotated triple of a dense conjugation in extended precision (np.clongdouble)."""
    n = state.n
    us = [u.astype(np.clongdouble) for u in rot.unitaries(n)]
    rotated = apply_product_unitary(state.rho.astype(np.clongdouble), us, n)
    diag, anti = np.diagonal(rotated), np.diagonal(rotated[:, ::-1])
    return np.array([float(np.sum(line * pauli_power_entries(j, n)).real)
                     for j, line in ((1, anti), (2, anti), (3, diag))])


@pytest.mark.parametrize("n", range(2, 9))
def test_rotated_triple_matches_tensor_contraction(n, rng):
    for family in _families(n):
        state = build_state(family, n)
        tensor = correlation_tensor(state)
        for rot in _rotations(n, rng)[1:]:
            # both paths sum 2^n rounded terms: at n = 8 the lines are off the
            # extended-precision value by up to 1.7e-15, the tensor by up to 8e-16
            got = correlation_triple(state, rot).as_array()
            assert np.max(np.abs(got - _extended_rotated_triple(state, rot))) <= 2e-15
            assert np.max(np.abs(got - rotated_triple(tensor, rot).as_array())) <= 2e-15


@pytest.fixture
def no_dense_contraction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense contraction called")

    monkeypatch.setattr(qstate, "contract_qubit_pairs", refuse)
    monkeypatch.setattr(_linalg, "contract_qubit_pairs", refuse)
    refuse_matrix(monkeypatch)


@pytest.mark.parametrize(
    "family",
    [StateFamily.ghz(), StateFamily.w(), StateFamily.m3n((0.3, -0.2, 0.4)),
     StateFamily.white_noise_mix(StateFamily.w(), 0.7)],
    ids=["ghz", "w", "m3n", "w-mix"],
)
def test_simulate_at_n12_reads_the_form(family, no_dense_contraction):
    state = build_state(family, 12)
    rot = LocalRotation.from_shared((0.3, 0.2, 0.1))
    records = simulate_measurements(state, rot, 200, seed=3)
    assert [sum(r.counts.values()) for r in records] == [200, 200, 200]
    assert correlation_triple(state, rot).abs_sum <= 3
    overlaps = _screen_overlaps(state, _shared_grid(6))
    assert overlaps.shape == (216, 2**12)
    assert np.allclose(overlaps.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_outside_matrix_takes_the_dense_path(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _linalg.contract_qubit_pairs(*args, **kwargs)

    monkeypatch.setattr(qstate, "contract_qubit_pairs", counting)
    built = build_state(StateFamily.m3n((0.3, -0.2, 0.4)), 5)
    outside = DenseState(5, np.array(built.rho))
    rot = LocalRotation.from_shared((0.7, 0.4, 1.1))
    fast = simulate_measurements(built, rot, 5000, seed=11)
    assert calls == []
    dense = simulate_measurements(outside, rot, 5000, seed=11)
    assert len(calls) == 1  # the three settings share one contraction
    # every outcome has positive probability, so the 1e-17 rounding gap draws the same counts
    assert [r.counts for r in dense] == [r.counts for r in fast]


# -- one read for the three settings, integer outcomes -------------------------------

def _simulate_states(n, rng):
    """A pure, an X-matrix and a mixed built state, and a dense matrix from outside."""
    pure = build_state(StateFamily.w() if rng.integers(2) else StateFamily.cluster_linear(), n)
    x = build_state(StateFamily.m3n(tuple(rng.uniform(-0.3, 0.3, 3))), n)
    mix = build_state(StateFamily.white_noise_mix(StateFamily.ghz(), rng.uniform(0.2, 0.9)), n)
    outside = DenseState(n, np.array(build_state(StateFamily.white_noise_mix(
        StateFamily.dicke(n // 2), rng.uniform(0.2, 0.9)), n).rho))
    states = {"pure": pure, "x": x, "mix": mix, "dense": outside}
    assert [type(s._form) for s in states.values()] == [FORMS[form] for form in states]
    return states


def test_simulate_matches_the_per_setting_reference(rng):
    # counts dicts (their key order too) and estimate bits against one read per setting
    calls = 0
    for n in range(2, 11):
        for form, state in _simulate_states(n, rng).items():
            rounds = 2 if form == "dense" and n >= 9 else 3
            for rot, _ in itertools.product(_rotations(n, rng), range(rounds)):
                # every seventh call takes an end of the range, 1 or 10^5 shots
                shots = int(10 ** rng.uniform(0, 5)) if calls % 7 else (1, 10**5)[calls % 2]
                seed = int(rng.integers(2**32))
                got = simulate_measurements(state, rot, shots, seed)
                want = simulate_per_setting(state, rot, shots, seed)
                assert [list(r.counts.items()) for r in got] == \
                    [list(r.counts.items()) for r in want], (n, form, shots, seed)
                est, ref = counts_to_triple(got), counts_to_triple(want)
                assert est.c.as_array().tobytes() == ref.c.as_array().tobytes()
                assert np.array(est.sigma).tobytes() == np.array(ref.sigma).tobytes()
                calls += 1
    assert calls >= 300


@pytest.mark.parametrize("n", range(2, 13))
def test_simulate_never_draws_an_outcome_of_zero_probability(n):
    # the Born lines may hold rounding residues (below 1e-36) where exact arithmetic
    # cancels to 0; no such outcome may show up in the counts
    ghz = build_state(StateFamily.ghz(), n)
    for seed in (1, 2, 3):
        x, y, z = simulate_measurements(ghz, None, 100_000, seed)
        assert all(key.count("-") % 2 == 0 for key in x.counts), seed
        assert set(z.counts) <= {"+" * n, "-" * n}, seed
        est = counts_to_triple((x, y, z))
        assert (est.c.c1, est.sigma[0]) == (1.0, 0.0)
        # all '-' has an even product only at even n
        assert n % 2 or (est.c.c3, est.sigma[2]) == (1.0, 0.0)
    if n == 6:
        z = simulate_measurements(build_state(StateFamily.w(), n), None, 100_000, seed=1)[2]
        assert all(key.count("-") == 1 for key in z.counts)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_simulated_record_equals_its_dict_record(n, rng):
    state = build_state(StateFamily.white_noise_mix(StateFamily.ghz(), 0.6), n) if n > 1 else \
        DenseState(1, np.array([[0.7, 0.2j], [-0.2j, 0.3]]))
    for shots in (1, 37, 5000):
        for rec in simulate_measurements(state, _rotations(n, rng)[1], shots, seed=shots):
            again = MeasurementRecord(n, rec.axis, shots, dict(rec.counts))
            assert rec == again and repr(rec) == repr(again)
            assert list(rec.counts) == sorted(rec.counts)
            for mine, theirs in zip(rec.products(), again.products()):
                assert mine.dtype == theirs.dtype == float
                assert mine.tobytes() == theirs.tobytes()
                assert not mine.flags.writeable and not theirs.flags.writeable


@pytest.mark.parametrize("family", [["--family", "w"], ["--family", "m3n", "--params",
                                                          '{"c": [0.5, 0.3, -0.2]}']])
def test_pretty_simulate_prints_counts_in_sorted_order(family, capsys):
    argv = ["simulate", "--n", "5", "--shots", "400", "--seed", "3"] + family
    assert main(argv + ["--full-precision"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert main(argv + ["--pretty"]) == 0
    line = next(row for row in capsys.readouterr().out.splitlines()
                if row.strip().startswith("records:"))
    printed = ast.literal_eval(line.split(":", 1)[1].strip())
    assert printed == records
    assert all(list(r["counts"]) == sorted(r["counts"]) for r in printed)


# -- which commands build a dense matrix ------------------------------------------

_N12_SOURCES = {
    "ghz": ["--family", "ghz"],
    "w": ["--family", "w"],
    "m3n": ["--family", "m3n", "--params", '{"c": [0.3, -0.2, 0.4]}'],
    "wei": ["--family", "wei", "--params", '{"x": 0.4}'],
    "w-mix": ["--family", "white_noise_mix", "--params", '{"inner": {"family": "w"}, "q": 0.7}'],
}


@pytest.mark.parametrize(
    "command",
    [["state"], ["triple"], ["triple", "--angles", "0.3,0.2,0.1"], ["simulate", "--shots", "1000"],
     ["simulate", "--shots", "1000", "--angles", "0.3,0.2,0.1"],
     ["optimise", "--objective", "overlap"], ["optimise"]],
    ids=["state", "triple", "triple-angles", "simulate", "simulate-angles", "optimise-overlap",
         "optimise"],
)
@pytest.mark.parametrize("source", list(_N12_SOURCES.values()), ids=list(_N12_SOURCES))
def test_form_commands_build_no_dense_matrix_at_n12(command, source, monkeypatch, capsys):
    refuse_matrix(monkeypatch)
    assert main(command + source + ["--n", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 12


@pytest.mark.parametrize("source", list(_N12_SOURCES.values()), ids=list(_N12_SOURCES))
def test_per_qubit_overlap_search_builds_no_dense_matrix(source, monkeypatch, capsys):
    refuse_matrix(monkeypatch)
    argv = ["optimise", "--objective", "overlap", "--mode", "per-qubit", "--restarts", "1"]
    assert main(argv + source + ["--n", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 8


@pytest.mark.parametrize("argv", [["state", "--dense"]], ids=["state-dense"])
def test_dense_commands_build_the_matrix_once(argv, monkeypatch, capsys):
    built = []
    materialise = FORMS["pure"].matrix

    def counting(form):
        built.append(form.dim)
        return materialise(form)

    monkeypatch.setattr(FORMS["pure"], "matrix", counting)
    assert main(argv + ["--family", "w", "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 4
    assert built == [16]


# -- default-precision output of a simulate record --------------------------------

def _rounded(obj):
    """Six significant digits on every finite float, walking every value."""
    if isinstance(obj, float):
        return float(f"{obj:.6g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def _nodes(obj):
    """Floats, dicts and lists in a parsed JSON document, itself included."""
    if isinstance(obj, dict):
        return 1 + sum(_nodes(v) for v in obj.values())
    if isinstance(obj, list):
        return 1 + sum(_nodes(v) for v in obj)
    return int(isinstance(obj, float))


@pytest.mark.parametrize("angles", [[], ["--angles", "0.3,1.2,2.4"]], ids=["plain", "angles"])
def test_simulate_rounding_skips_counts(angles, monkeypatch, capsys):
    from entbound import cli

    argv = ["simulate", "--family", "w", "--n", "8", "--shots", "3000", "--seed", "5"] + angles
    assert main(argv + ["--full-precision"]) == 0
    full = json.loads(capsys.readouterr().out)
    calls = []
    walk = cli._round_floats

    def counting(obj, digits):
        calls.append(1)
        return walk(obj, digits)

    monkeypatch.setattr(cli, "_round_floats", counting)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(_rounded(full), sort_keys=True, separators=(",", ":")) + "\n"
    # one call per float and container; the integer counts and the outcome strings cost none
    assert len(calls) == _nodes(full)
    assert sum(len(r["counts"]) for r in full["records"]) > len(calls)
