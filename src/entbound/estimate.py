"""Measurement data to entanglement bounds with propagated uncertainty.

Simulates the three-setting local-measurement protocol, turns shot counts
into correlation estimates with standard errors, and propagates those errors
through the bound formulas: first-order delta method on the active branch,
with a parametric bootstrap fallback near the non-smooth points (the zero
threshold, sign kinks, odd-n branch switches, and the diverging endpoints).
This module only samples, decides when to bootstrap and propagates errors;
every formula and derivative it evaluates is a kernel in ``measures``.

Correlation-data files are JSON ``{"n": 4, "c": [..], "sigma": [..]}`` or CSV
with header ``n,c1,c2,c3,s1,s2,s3``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _frozen, hamming_weights
from .errors import (ParameterError, SchemaError, _json_field, _json_number, _json_numbers,
                     _json_object, read_json, reading)
from .measures import (
    DistanceKind,
    EntanglementReport,
    SeparabilityLevel,
    _bound_values,
    _odd_branches,
    _odd_trace_gradient,
    _overlap_values,
    lower_bound_from_triple,
    octahedron_excess,
    overlap_derivative,
)
from .pauli import LocalRotation
from .qstate import CorrelationTriple, DenseState

#: basis changes mapping the eigenbasis of sigma_j to the computational basis, sigma_j's
#: at index j - 1, so that one leading axis serves the three settings
_BASIS_CHANGES = _frozen(np.stack([
    np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2),
    np.eye(2, dtype=complex),
]))

#: parametric bootstrap draws behind every bootstrapped error bar
_BOOTSTRAP_SAMPLES = 10_000


@dataclass(frozen=True)
class MeasurementRecord:
    """Shot counts for one product-Pauli setting.

    Outcome strings use '+' and '-' per qubit; counts must add up to shots.
    A record keeps its outcome products (+/-1) and their counts as read-only
    float arrays in sorted-outcome order, which ``products`` returns. One made
    from a dict is validated and computes them from its sorted keys; one that
    ``simulate_measurements`` draws is valid by construction, skips the checks
    and takes them straight from the drawn outcome indices.
    """

    n: int
    axis: int
    shots: int
    counts: dict
    _prods: np.ndarray = field(init=False, repr=False, compare=False)
    _cnts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.axis not in (1, 2, 3):
            raise ParameterError(f"axis must be 1, 2 or 3, got {self.axis}")
        if self.shots < 1:
            raise ParameterError(f"shots must be >= 1, got {self.shots}")
        counts = self.counts
        for key, cnt in counts.items():
            if len(key) != self.n or key.strip("+-"):
                raise ParameterError(f"malformed outcome string {key!r} for n={self.n}")
            if cnt < 0:
                raise ParameterError(f"negative count for outcome {key!r}")
        total = sum(counts.values())
        if total != self.shots:
            raise ParameterError(f"counts sum to {total}, expected shots={self.shots}")
        object.__setattr__(self, "counts", dict(counts))
        keys = sorted(counts)
        # the keys are n-character '+'/'-' strings: one byte per qubit once joined
        chars = np.frombuffer("".join(keys).encode(), dtype=np.uint8).reshape(len(keys), self.n)
        self._store(np.count_nonzero(chars == ord("-"), axis=1),
                    np.array([counts[k] for k in keys], dtype=float))

    def _store(self, minus_signs: np.ndarray, cnts: np.ndarray) -> None:
        prods = np.where(minus_signs % 2, -1.0, 1.0)
        object.__setattr__(self, "_prods", _frozen(prods))
        object.__setattr__(self, "_cnts", _frozen(cnts))

    @classmethod
    def _drawn(cls, n: int, axis: int, shots: int, drawn: np.ndarray) -> "MeasurementRecord":
        """The record of one multinomial draw over the 2^n outcome indices, n <= QUBIT_CAP.

        Index i stands for the outcome string whose '-' signs are i's 1 bits,
        qubit 0 first, so the ascending hit indices are in sorted-outcome order
        ('+' sorts before '-') and their Hamming weights count the '-' signs.
        """
        hit = np.flatnonzero(drawn)
        cnts = drawn[hit]
        rec = cls.__new__(cls)
        for name, value in (("n", n), ("axis", axis), ("shots", shots),
                            ("counts", dict(zip(_outcome_keys(hit, n), cnts.tolist())))):
            object.__setattr__(rec, name, value)
        rec._store(hamming_weights(n)[hit], cnts.astype(float))
        return rec

    def products(self) -> tuple[np.ndarray, np.ndarray]:
        """Outcome products (+/-1) and their counts, aligned read-only arrays."""
        return self._prods, self._cnts


@dataclass(frozen=True)
class TripleEstimate:
    """A correlation triple with one standard error per component."""

    c: CorrelationTriple
    sigma: tuple
    n: int | None = None

    def __post_init__(self):
        sigma = tuple(float(s) for s in self.sigma)
        if len(sigma) != 3 or any(not math.isfinite(s) or s < 0 for s in sigma):
            raise ParameterError(f"sigma needs 3 finite nonnegative entries, got {self.sigma}")
        object.__setattr__(self, "sigma", sigma)

    def to_json_dict(self) -> dict:
        out = {"c": [self.c.c1, self.c.c2, self.c.c3], "sigma": list(self.sigma)}
        if self.n is not None:
            out["n"] = self.n
        return out


def _outcome_keys(indices: np.ndarray, n: int) -> list:
    """Outcome strings of basis indices: qubit 0 first, '+' for a 0 bit, '-' for a 1."""
    bits = (indices[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.where(bits == 1, "-", "+").view(f"<U{n}").ravel().tolist()


def simulate_measurements(
    state: DenseState,
    rot: LocalRotation | None,
    shots: int,
    seed: int,
) -> tuple[MeasurementRecord, MeasurementRecord, MeasurementRecord]:
    """Sample the three-setting protocol from the Born distribution.

    Setting j measures the rotated Pauli on every qubit; outcomes are
    deterministic for a fixed seed. Its outcome probabilities are the
    diagonal of W rho W^dag, W = (B_j u_1) x ... x (B_j u_n) with B_j the
    basis change of sigma_j. One ``DenseState.lines_under`` call reads all
    three settings from the state's form, the three B_j u_k stacked on a
    leading axis: O(n 2^n) for a built state (n products over the whole
    line per setting), O(4^n) for a matrix from outside, and never a rotated
    matrix. An outcome of probability zero may read as a rounding residue of
    the products (below 1e-36 on GHZ's lines at n = 10 and 16), far too small
    for any shot count to draw. Each setting's outcomes stay the
    integer counts of the multinomial draw, indexed by basis state, until
    the record turns them into its outcome strings and products.
    """
    if shots < 1:
        raise ParameterError(f"shots must be >= 1, got {shots}")
    if shots > np.iinfo(np.int64).max:
        raise ParameterError(f"shots must be at most 2^63 - 1 (numpy's multinomial), got {shots}")
    n = state.n
    us = rot.unitaries(n) if rot is not None else [np.eye(2, dtype=complex)] * n
    born, _ = state.lines_under([_BASIS_CHANGES @ u for u in us], anti=False)
    rng = np.random.default_rng(seed)
    records = []
    for axis, line in zip((1, 2, 3), born):
        probs = np.clip(line, 0.0, None)
        probs /= probs.sum()
        records.append(MeasurementRecord._drawn(n, axis, shots, rng.multinomial(shots, probs)))
    return tuple(records)


def counts_to_triple(records) -> TripleEstimate:
    """Sample means of the outcome products, with standard errors.

    sigma_j is the sample standard deviation of the products over sqrt(shots).
    """
    records = list(records)
    if len(records) != 3:
        raise ParameterError(f"need exactly three records, got {len(records)}")
    if len({r.n for r in records}) != 1:
        raise ParameterError("records disagree on the qubit count")
    if sorted(r.axis for r in records) != [1, 2, 3]:
        raise ParameterError("need one record per axis 1, 2, 3")
    cs, sigmas = [0.0] * 3, [0.0] * 3
    for rec in records:
        prods, cnts = rec.products()
        if cnts.sum() == 0:
            raise ParameterError("record has no counts")
        mean = float(np.sum(prods * cnts) / rec.shots)
        if rec.shots > 1:
            var = float(np.sum(cnts * (prods - mean) ** 2) / (rec.shots - 1))
        else:
            var = 0.0
        cs[rec.axis - 1] = mean
        sigmas[rec.axis - 1] = math.sqrt(max(var, 0.0) / rec.shots)
    return TripleEstimate(CorrelationTriple(*cs), tuple(sigmas), n=records[0].n)


# -- error propagation ------------------------------------------------------------

def _needs_bootstrap_triple(est: TripleEstimate, n: int) -> bool:
    c = est.c.as_array()
    sig = np.asarray(est.sigma)
    if np.all(sig == 0):
        return False
    h = octahedron_excess(est.c)
    sigma_h = 0.5 * math.sqrt(float(np.sum(sig**2)))
    if abs(h) <= 2 * sigma_h or h >= 1 - 2 * sigma_h:
        return True
    if np.any(np.abs(c) <= 2 * sig):
        return True
    if n % 2:
        _, mags, face, edge = _odd_branches(c)
        if np.any(np.abs(h - 1.5 * mags) <= 2 * (sigma_h + 1.5 * sig)):
            return True
        order = np.sort(edge)
        if not face and order[1] - order[0] <= 2 * sigma_h:
            return True
    return False


def bound_with_uncertainty(
    est: TripleEstimate,
    n: int,
    level: SeparabilityLevel,
    kind: DistanceKind,
    *,
    seed: int = 0,
) -> EntanglementReport:
    """Lower bound from a measured triple with a propagated standard error.

    Uses the delta method on the active branch; switches to a parametric
    bootstrap (Gaussian per component, clipped to [-1, 1]) whenever the
    estimate sits within two standard errors of a kink or threshold.
    """
    base = lower_bound_from_triple(est.c, n, level, kind)
    sig = np.asarray(est.sigma, dtype=float)
    if level.is_trivial(n):
        return EntanglementReport(0.0, kind, level, "lower_bound", 0.0, {"method": "exact-zero"})

    if _needs_bootstrap_triple(est, n):
        rng = np.random.default_rng(seed)
        # c + sigma z, as rng.normal(c, sigma) draws it, scaled into one entry-major
        # buffer, so the bound's reductions over the three entries run along rows
        z = rng.standard_normal((_BOOTSTRAP_SAMPLES, 3))
        samples = np.multiply(sig[:, None], z.T, out=np.empty((3, _BOOTSTRAP_SAMPLES)))
        samples += est.c.as_array()[:, None]
        clipped = np.mean((samples < -1) | (samples > 1))
        np.clip(samples, -1.0, 1.0, out=samples)
        values = _bound_values(samples.T, n, level, kind)
        unc = float(np.std(values, ddof=1))
        meta = {
            "method": "bootstrap",
            "seed": seed,
            "samples": _BOOTSTRAP_SAMPLES,
            "clipped_fraction": float(clipped),
        }
        return EntanglementReport(base.value, kind, level, "lower_bound", unc, meta)

    c = est.c.as_array()
    # even n reads the kernel's p = (1 + h)/2, which can round to 1/2 where h > 0
    p = float((1 + np.abs(c).sum()) / 4)
    live = p > 0.5 if n % 2 == 0 else octahedron_excess(est.c) > 0
    if not live or np.all(sig == 0):
        unc = 0.0
    elif n % 2 == 0:
        # sigma_p = sigma_h / 2 = sqrt(sum sigma^2) / 4
        unc = overlap_derivative(p, kind) * 0.25 * math.sqrt(float(np.sum(sig**2)))
    else:
        grad = _odd_trace_gradient(c)
        unc = math.sqrt(float(np.sum((grad * sig) ** 2)))
    return EntanglementReport(base.value, kind, level, "lower_bound", unc, {"method": "delta"})


def genuine_bound_with_uncertainty(
    p_max: float,
    sigma: float,
    kind: DistanceKind,
    *,
    seed: int = 0,
) -> EntanglementReport:
    """Genuine-entanglement lower bound from a measured GHZ overlap.

    Delta method away from the threshold; bootstrap near p_max = 1/2 (kink)
    and near p_max = 1 (diverging derivative for the non-trace distances).
    """
    return _genuine_reports(p_max, sigma, (kind,), seed)[0]


def _genuine_reports(p_max: float, sigma: float, kinds, seed: int) -> list:
    """:func:`genuine_bound_with_uncertainty` under each distance of ``kinds``; a
    bootstrap draws its samples once and reads every distance from them."""
    if not 0 <= p_max <= 1:
        raise ParameterError(f"p_max must lie in [0, 1], got {p_max}")
    if not math.isfinite(sigma) or sigma < 0:
        raise ParameterError(f"sigma must be finite and >= 0, got {sigma}")
    level = SeparabilityLevel.genuine()
    near_kink = abs(p_max - 0.5) <= 2 * sigma or p_max >= 1 - 2 * sigma
    samples = None
    if sigma > 0 and near_kink:
        rng = np.random.default_rng(seed)
        samples = np.clip(rng.normal(p_max, sigma, size=_BOOTSTRAP_SAMPLES), 0.0, 1.0)
    reports = []
    for kind in kinds:
        value = float(_overlap_values(p_max, kind))
        if samples is not None:
            unc = float(np.std(_overlap_values(samples, kind), ddof=1))
            meta = {"method": "bootstrap", "seed": seed, "samples": _BOOTSTRAP_SAMPLES}
        elif sigma == 0 or p_max <= 0.5:
            unc, meta = 0.0, {"method": "delta"}
        else:
            unc = overlap_derivative(min(p_max, 1 - 1e-12), kind) * sigma
            meta = {"method": "delta"}
        reports.append(EntanglementReport(value, kind, level, "lower_bound", unc, meta))
    return reports


# -- file ingestion ----------------------------------------------------------------

def _parse_correlation_json(path) -> TripleEstimate:
    spec = _json_object(read_json(path), path)
    n = _json_number(_json_field(spec, "n", path), f'{path}: field "n"', integer=True)
    c = _json_numbers(_json_field(spec, "c", path), 3, f'{path}: field "c"')
    sigma = _json_numbers(spec.get("sigma", [0.0, 0.0, 0.0]), 3, f'{path}: field "sigma"')
    try:
        return TripleEstimate(CorrelationTriple(*c), tuple(sigma), n=n)
    except ParameterError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_correlation_csv(path) -> TripleEstimate:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SchemaError(f"{path}: empty CSV")
    header = [h.strip() for h in rows[0]]
    if header[:4] != ["n", "c1", "c2", "c3"]:
        raise SchemaError(f"{path}: header must start with n,c1,c2,c3 got {header}")
    if len(rows) < 2:
        raise SchemaError(f"{path}: no data row")
    row = rows[1]
    if any(field.strip() for later in rows[2:] for field in later):
        raise SchemaError(f"{path}: one data row expected, got a second one")
    if len(row) != 4 and len(row) < 7:
        raise SchemaError(
            f"{path}: data row needs 4 columns (n,c1,c2,c3) or at least 7 (and s1,s2,s3), "
            f"got {len(row)}"
        )
    if len(row) >= 7 and header[4:7] != ["s1", "s2", "s3"]:
        raise SchemaError(f"{path}: a data row with sigmas needs the header n,c1,c2,c3,s1,s2,s3, "
                          f"got {header}")
    try:
        n = int(row[0])
        c = [float(x) for x in row[1:4]]
        sigma = [float(x) for x in row[4:7]] if len(row) >= 7 else [0.0, 0.0, 0.0]
        return TripleEstimate(CorrelationTriple.from_sequence(c), tuple(sigma), n=n)
    except (ParameterError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def ingest_correlation_file(path) -> TripleEstimate:
    """Read a correlation-data file (JSON or CSV by extension)."""
    parse = _parse_correlation_csv if str(path).endswith(".csv") else _parse_correlation_json
    with reading(path):
        return parse(path)


__all__ = [
    "MeasurementRecord",
    "TripleEstimate",
    "bound_with_uncertainty",
    "counts_to_triple",
    "genuine_bound_with_uncertainty",
    "ingest_correlation_file",
    "simulate_measurements",
]
