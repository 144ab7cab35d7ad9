"""Property tests for the closed-form kernels in ``measures``.

Every closed form has one array kernel. These tests check that a kernel on an
array agrees element by element with the public scalar function, that both
agree with a plain ``math`` transcription of the formulas, and that the
derivatives used by the delta method match central finite differences of the
kernels away from kinks and endpoints. Even-n triple-correlation values go
through the GHZ-overlap kernel at p = (1 + |c1| + |c2| + |c3|)/4; ``_ref_excess``
keeps their independent transcription in the excess h = 2p - 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbound.measures import (
    ALL_DISTANCES,
    DistanceKind,
    SeparabilityLevel,
    _bound_values,
    _odd_branches,
    _odd_trace_gradient,
    _odd_trace_values,
    _overlap_values,
    entanglement_m3n,
    genuine_from_overlap,
    lower_bound_from_triple,
    overlap_derivative,
)
from entbound.estimate import TripleEstimate, bound_with_uncertainty
from entbound.qstate import CorrelationTriple, M3NState

#: two ulps at 1.0: numpy and math may round a log2 or sqrt differently
ULP_TOL = 4.5e-16
FD_STEP = 1e-6

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

distances = st.sampled_from(ALL_DISTANCES)
unit = st.floats(0.0, 1.0)


def _xlog2(x):
    return 0.0 if x <= 0 else x * math.log2(x)


def _ref_excess(h, kind):
    if h <= 0:
        return 0.0
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return 0.5 * (_xlog2(1 - h) + _xlog2(1 + h))
    if kind is DistanceKind.TRACE:
        return 0.5 * h
    if kind is DistanceKind.INFIDELITY:
        return 0.5 * (1 - math.sqrt(1 - h * h))
    return 2 - math.sqrt(1 - h) - math.sqrt(1 + h)


def _ref_overlap(p, kind):
    if p <= 0.5:
        return 0.0
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return 1 + _xlog2(p) + _xlog2(1 - p)
    if kind is DistanceKind.TRACE:
        return p - 0.5
    if kind is DistanceKind.INFIDELITY:
        return 0.5 - math.sqrt(p * (1 - p))
    return 2 - math.sqrt(2) * (math.sqrt(1 - p) + math.sqrt(p))


def _ref_odd_trace(c):
    mags = [abs(x) for x in c]
    h = 0.5 * (sum(mags) - 1)
    if h <= 0:
        return 0.0
    if all(h <= 1.5 * m for m in mags):
        return h / math.sqrt(3)
    return min(0.5 * math.sqrt(m * m + 0.5 * (2 * h - m) ** 2) for m in mags)


@st.composite
def physical_triples(draw, n):
    """A triple inside the physical region: the tetrahedron (even n) or the unit ball (odd n)."""
    if n % 2 == 0:
        e = (-1) ** (n // 2)
        verts = np.array([[1, e, 1], [-1, -e, 1], [1, -e, -1], [-1, e, -1]], dtype=float)
        w = np.array(draw(st.lists(unit, min_size=4, max_size=4).filter(lambda w: sum(w) > 0)))
        c = (w / w.sum()) @ verts
    else:
        c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        norm = float(np.linalg.norm(c))
        if norm > 1:
            c = c / norm
    return tuple(float(x) for x in np.clip(c, -1.0, 1.0))


@st.composite
def bound_cases(draw):
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, n))
    kind = draw(distances) if n % 2 == 0 else DistanceKind.TRACE
    triples = draw(st.lists(physical_triples(n), min_size=1, max_size=12))
    return n, SeparabilityLevel(m=m), kind, triples


excess_inputs = st.lists(st.one_of(st.sampled_from([-0.5, 0.0, 1.0]), st.floats(-0.5, 1.0)), min_size=1)
overlap_inputs = st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit), min_size=1)


def _diagonal_triples(hs):
    """Triples (x, x, x) of excess h, x = (1 + 2h)/3, in the n=4 tetrahedron for h in [-1/2, 1]."""
    return np.repeat((1 + 2 * np.array(hs, dtype=float))[:, None] / 3, 3, axis=1)


@SETTINGS
@given(excess_inputs, distances)
def test_even_bound_kernel_matches_scalar_over_the_excess(hs, kind):
    triples = _diagonal_triples(hs)
    level = SeparabilityLevel(m=4)
    values = _bound_values(triples, 4, level, kind)
    for c, v in zip(triples, values):
        scalar = lower_bound_from_triple(CorrelationTriple(*c), 4, level, kind).value
        assert abs(v - scalar) <= ULP_TOL
        assert abs(scalar - _ref_excess(0.5 * (np.abs(c).sum() - 1), kind)) <= ULP_TOL


@SETTINGS
@given(overlap_inputs, distances)
def test_overlap_kernel_matches_scalar(ps, kind):
    values = _overlap_values(np.array(ps), kind)
    for p, v in zip(ps, values):
        scalar = genuine_from_overlap(p, kind) if p > 0.5 else 0.0
        assert abs(v - scalar) <= ULP_TOL
        assert abs(scalar - _ref_overlap(p, kind)) <= ULP_TOL


@SETTINGS
@given(bound_cases())
def test_bound_kernel_matches_scalar(case):
    n, level, kind, triples = case
    values = _bound_values(np.array(triples), n, level, kind)
    assert values.shape == (len(triples),)
    for c, v in zip(triples, values):
        scalar = entanglement_m3n(M3NState(n, CorrelationTriple(*c)), level, kind).value
        assert abs(v - scalar) <= ULP_TOL
        if level.is_trivial(n):
            assert scalar == 0.0
        elif n % 2:
            assert abs(scalar - _ref_odd_trace(c)) <= ULP_TOL
        else:
            assert abs(scalar - _ref_excess(0.5 * (sum(map(abs, c)) - 1), kind)) <= ULP_TOL


@SETTINGS
@given(st.lists(physical_triples(3), min_size=1, max_size=12))
def test_odd_trace_kernel_on_stacked_axes(triples):
    arr = np.array(triples)
    flat = _odd_trace_values(arr)
    stacked = _odd_trace_values(arr.reshape(len(triples), 1, 3))
    assert stacked.shape == (len(triples), 1)
    assert np.array_equal(stacked[:, 0], flat)


def _central_difference(f, x):
    return (float(f(x + FD_STEP)) - float(f(x - FD_STEP))) / (2 * FD_STEP)


def _away_from_even_kinks(c, margin=0.01):
    h = 0.5 * (sum(map(abs, c)) - 1)
    return margin <= h <= 1 - margin and min(map(abs, c)) >= margin


@SETTINGS
@given(st.sampled_from([2, 4, 6, 8]).flatmap(
    lambda n: st.tuples(st.just(n), physical_triples(n).filter(_away_from_even_kinks))
), distances)
def test_even_delta_uncertainty_matches_finite_difference(case, kind):
    # the delta error bar is the value's slope in h times sigma_h = sqrt(sum sigma^2) / 2
    n, c = case
    c = np.array(c)
    sigma = (1e-3, 2e-3, 1.5e-3)
    level = SeparabilityLevel(m=n)
    report = bound_with_uncertainty(TripleEstimate(CorrelationTriple(*c), sigma), n, level, kind)
    assert report.meta == {"method": "delta"}
    # moving every |c_j| by 2t/3 moves h by t
    signs = np.sign(c)
    fd = _central_difference(lambda t: _bound_values(c + signs * (2 * t / 3), n, level, kind), 0.0)
    sigma_h = 0.5 * math.sqrt(sum(s * s for s in sigma))
    assert report.uncertainty == pytest.approx(fd * sigma_h, abs=1e-10)


@SETTINGS
@given(st.floats(0.51, 0.99), distances)
def test_overlap_derivative_matches_finite_difference(p, kind):
    fd = _central_difference(lambda x: _overlap_values(x, kind), p)
    assert overlap_derivative(p, kind) == pytest.approx(fd, abs=1e-7)


def _away_from_odd_kinks(c, margin=0.01):
    h, mags, face, edge = _odd_branches(np.array(c))
    if h < margin or mags.min() < margin or np.abs(h - 1.5 * mags).min() < margin:
        return False
    gap = np.diff(np.sort(edge))[0]
    return bool(face or gap >= margin)


@SETTINGS
@given(physical_triples(3).filter(_away_from_odd_kinks))
def test_odd_trace_gradient_matches_finite_difference(c):
    c = np.array(c)
    grad = _odd_trace_gradient(c)
    for j in range(3):
        step = np.zeros(3)
        step[j] = 1.0
        fd = _central_difference(lambda x: _odd_trace_values(c + (x - c[j]) * step), c[j])
        assert grad[j] == pytest.approx(fd, abs=1e-8)


def test_kernels_are_not_negative_just_above_the_threshold():
    # the formulas themselves round to about -1e-16 at a few hundred of these points;
    # |c|_1 = 1 + 4 tiny is exact, so the even-n p is exactly 1/2 + tiny
    tiny = np.arange(1, 3000) * 2.0**-53
    triples = np.stack([np.full_like(tiny, 0.25), np.full_like(tiny, -0.75), 4 * tiny], axis=-1)
    assert np.array_equal((1 + np.abs(triples).sum(axis=-1)) / 4, 0.5 + tiny)
    for kind in ALL_DISTANCES:
        assert np.all(_bound_values(triples, 4, SeparabilityLevel(m=4), kind) >= 0)
        assert np.all(_overlap_values(0.5 + tiny, kind) >= 0)
    assert np.all(_bound_values(triples, 3, SeparabilityLevel(m=3), DistanceKind.TRACE) >= 0)
