"""Distance functionals and closed-form multiparticle-entanglement values.

Covers the five distances (relative entropy, trace, infidelity, squared
Bures, squared Hellinger), the closed forms for triple-correlation states
(exact for even n under every distance, and for odd n under trace),
and the genuine-entanglement closed form for GHZ-diagonal states.

This module is the only home of the closed forms. Each is written once as a
private kernel that takes scalars or arrays (``_overlap_values``,
``_odd_trace_values`` and the ``_bound_values`` dispatch); the public
functions validate their input and call a kernel, and the bootstrap in
``estimate`` calls the same kernels on sample arrays. The two families share
one kernel: an even-n triple-correlation state's largest class eigenvalue is
p = (1 + |c1| + |c2| + |c3|)/4 and its separable set maps onto the
biseparable GHZ-diagonal spectra, so its value is the genuine closed form at p.

Logarithms are base 2 throughout, with 0*log(0) = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedDistanceError
from .locc import GHZDiagonalState
from .qstate import CorrelationTriple, M3NState

_EIG_ZERO = 1e-12
_SUPPORT_TOL = 1e-9


class DistanceKind(str, enum.Enum):
    """The five contractive, jointly convex distances with closed forms."""

    RELATIVE_ENTROPY = "relative_entropy"
    TRACE = "trace"
    INFIDELITY = "infidelity"
    SQUARED_BURES = "squared_bures"
    SQUARED_HELLINGER = "squared_hellinger"

    @classmethod
    def parse(cls, text: str) -> "DistanceKind":
        key = text.strip().lower().replace("-", "_").replace(" ", "_")
        aliases = {
            "re": cls.RELATIVE_ENTROPY,
            "relative_entropy": cls.RELATIVE_ENTROPY,
            "tr": cls.TRACE,
            "trace": cls.TRACE,
            "f": cls.INFIDELITY,
            "infidelity": cls.INFIDELITY,
            "b": cls.SQUARED_BURES,
            "bures": cls.SQUARED_BURES,
            "squared_bures": cls.SQUARED_BURES,
            "h": cls.SQUARED_HELLINGER,
            "hellinger": cls.SQUARED_HELLINGER,
            "squared_hellinger": cls.SQUARED_HELLINGER,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ParameterError(
                f"unknown distance {text!r}; choose from "
                "relative_entropy, trace, infidelity, squared_bures, squared_hellinger"
            )


ALL_DISTANCES = tuple(DistanceKind)


@dataclass(frozen=True)
class SeparabilityLevel:
    """Either a partition-independent level M or an explicit partition.

    The partition is a multiset of group sizes; which qubits sit in which
    group never matters for the reference families.
    """

    m: int | None = None
    partition: tuple | None = None

    def __post_init__(self):
        if (self.m is None) == (self.partition is None):
            raise ParameterError("give exactly one of M or a partition")
        if self.m is not None:
            if self.m < 2:
                raise ParameterError(f"M must be >= 2, got {self.m}")
        else:
            parts = tuple(int(k) for k in self.partition)
            if len(parts) < 2 or any(k < 1 for k in parts):
                raise ParameterError(f"a partition needs >= 2 parts of size >= 1, got {parts}")
            object.__setattr__(self, "partition", parts)

    @classmethod
    def genuine(cls) -> "SeparabilityLevel":
        return cls(m=2)

    def check_for(self, n: int) -> None:
        if self.m is not None:
            if self.m > n:
                raise ParameterError(f"M={self.m} exceeds the qubit count {n}")
        elif sum(self.partition) != n:
            raise ParameterError(
                f"partition {self.partition} sums to {sum(self.partition)}, not n={n}"
            )

    def is_trivial(self, n: int) -> bool:
        """True when every triple-correlation state is separable at this level.

        Partition-independent: M <= ceil(n/2). Partition-dependent: at most
        one odd group size.
        """
        self.check_for(n)
        if self.m is not None:
            return self.m <= (n + 1) // 2
        odd = sum(1 for k in self.partition if k % 2)
        return odd <= 1

    def to_json_dict(self) -> dict:
        if self.m is not None:
            return {"M": self.m}
        return {"partition": list(self.partition)}


@dataclass(frozen=True)
class EntanglementReport:
    """A single entanglement figure with its defining choices."""

    value: float
    distance: DistanceKind
    level: SeparabilityLevel
    kind: str  # "exact" | "lower_bound"
    uncertainty: float | None = None
    meta: dict | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ParameterError(f"entanglement value must be >= 0, got {self.value}")
        if self.kind not in ("exact", "lower_bound"):
            raise ParameterError(f"kind must be 'exact' or 'lower_bound', got {self.kind!r}")
        if self.uncertainty is not None and self.uncertainty < 0:
            raise ParameterError(f"uncertainty must be >= 0, got {self.uncertainty}")

    def to_json_dict(self) -> dict:
        out = {"value": self.value, "distance": self.distance.value}
        out.update(self.level.to_json_dict())
        out["kind"] = self.kind
        if self.uncertainty is not None:
            out["uncertainty"] = self.uncertainty
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


# -- closed forms ---------------------------------------------------------------
# Just above a threshold some formulas round to about -1e-16, which a report
# would reject as negative, so the kernels clamp at zero.

def _excess(c) -> np.ndarray:
    """The excess h = (|c1| + |c2| + |c3| - 1) / 2 of triples of shape (..., 3)."""
    return 0.5 * (np.abs(c).sum(axis=-1) - 1)


def octahedron_excess(c: CorrelationTriple) -> float:
    """Half the amount by which |c1|+|c2|+|c3| exceeds the separability octahedron.

    Positive exactly when the triple lies outside the octahedron; equals the
    two-qubit concurrence for n = 2. Range [-1/2, 1].
    """
    return float(_excess(c.as_array()))


def _overlap_values(p, kind: DistanceKind) -> np.ndarray:
    """Genuine entanglement as a function of the largest GHZ overlap; 0 where p <= 1/2."""
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is DistanceKind.RELATIVE_ENTROPY:
            # only p > 1/2 is kept, where p log p is finite; (1 - p) log(1 - p) is 0 at p = 1
            vals = 1 + p * np.log2(p) + (1 - p) * np.log2(np.maximum(1 - p, 1e-300))
        elif kind is DistanceKind.TRACE:
            vals = p - 0.5
        elif kind is DistanceKind.INFIDELITY:
            vals = 0.5 - np.sqrt(np.clip(p * (1 - p), 0.0, None))
        else:
            vals = 2 - math.sqrt(2) * (np.sqrt(np.clip(1 - p, 0.0, None)) + np.sqrt(p))
    return np.where(p > 0.5, np.maximum(vals, 0.0), 0.0)


def _odd_branches(c):
    """Odd-n trace-formula geometry of triples (..., 3): (h, |c|, on-face test, edge values).

    The projection lands on the face when h <= 1.5 |c_j| for every j; off the
    face the formula is the smallest of the per-axis edge values.
    """
    mags = np.abs(c)
    h = _excess(c)
    face = np.all(h[..., None] <= 1.5 * mags, axis=-1)
    # 0.5 sqrt(|c|^2 + 0.5 (2h - |c|)^2), in place in one buffer laid out as mags
    edge = 2 * h[..., None] - mags
    np.square(edge, out=edge)
    edge *= 0.5
    edge += np.square(mags)
    np.sqrt(edge, out=edge)
    edge *= 0.5
    return h, mags, face, edge


def _odd_trace_values(c) -> np.ndarray:
    """The three-branch odd-n trace formula for triples of shape (..., 3); 0 where h <= 0."""
    h, _, face, edge = _odd_branches(np.asarray(c, dtype=float))
    vals = np.where(face, h / math.sqrt(3), edge.min(axis=-1))
    return np.where(h > 0, vals, 0.0)


def _bound_values(c, n: int, level: SeparabilityLevel, kind: DistanceKind) -> np.ndarray:
    """Triple-correlation entanglement of triples (..., 3); odd n means trace distance."""
    c = np.asarray(c, dtype=float)
    if level.is_trivial(n):
        return np.zeros(c.shape[:-1])
    if n % 2:
        return _odd_trace_values(c)
    return _overlap_values((1 + np.abs(c).sum(axis=-1)) / 4, kind)


def genuine_from_overlap(p_max: float, kind: DistanceKind) -> float:
    """Genuine entanglement of a GHZ-diagonal state from its largest eigenvalue.

    Defined for p_max in (1/2, 1]; callers short-circuit p_max <= 1/2 to zero.
    """
    if p_max <= 0.5:
        raise ParameterError(f"the closed form needs p_max > 1/2, got {p_max}")
    if p_max > 1 + 1e-12:
        raise ParameterError(f"p_max cannot exceed 1, got {p_max}")
    return float(_overlap_values(p_max, kind))


def overlap_derivative(p_max: float, kind: DistanceKind) -> float:
    """d/dp of genuine_from_overlap, for first-order error propagation."""
    if not 0.5 < p_max < 1:
        raise ParameterError(f"the derivative needs p_max in (1/2, 1), got {p_max}")
    p = p_max
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return math.log2(p / (1 - p))
    if kind is DistanceKind.TRACE:
        return 1.0
    if kind is DistanceKind.INFIDELITY:
        return (2 * p - 1) / (2 * math.sqrt(p * (1 - p)))
    return (1 / math.sqrt(1 - p) - 1 / math.sqrt(p)) / math.sqrt(2)


def _odd_trace_gradient(c) -> np.ndarray:
    """Gradient of the odd-n trace formula on the active branch of a triple array (3,)."""
    h, mags, face, edge = _odd_branches(c)
    signs = np.where(c >= 0, 1.0, -1.0)
    if face:
        return signs / (2 * math.sqrt(3))
    k = int(np.argmin(edge))
    u = mags[k]
    v = 2 * h - u
    s = math.sqrt(u * u + v * v / 2)
    grad = signs * v / (4 * s)
    grad[k] = signs[k] * u / (2 * s)
    return grad


def entanglement_m3n(
    state: M3NState, level: SeparabilityLevel, kind: DistanceKind
) -> EntanglementReport:
    """Exact entanglement of a triple-correlation state at a separability level.

    Even n: zero at trivial levels or nonpositive excess, else the genuine
    GHZ-diagonal closed form at p = (1 + |c1| + |c2| + |c3|)/4 for the chosen
    distance. Odd n: only trace distance is supported (the closest state is
    distance-dependent otherwise); three-branch formula.
    """
    level.check_for(state.n)
    if state.n % 2 and kind is not DistanceKind.TRACE:
        raise UnsupportedDistanceError(
            f"odd n has no common closest separable state; only trace distance is "
            f"exact, got {kind.value}"
        )
    value = float(_bound_values(state.c.as_array(), state.n, level, kind))
    return EntanglementReport(value, kind, level, "exact")


def lower_bound_from_triple(
    c: CorrelationTriple,
    n: int,
    level: SeparabilityLevel,
    kind: DistanceKind,
) -> EntanglementReport:
    """Accessible lower bound for any state with the given correlation triple.

    Same value as the exact formula on the matching triple-correlation state,
    reported with kind "lower_bound".
    """
    report = entanglement_m3n(M3NState(n, c), level, kind)
    return EntanglementReport(report.value, kind, level, "lower_bound")


def genuine_ghz_diag(state: GHZDiagonalState, kind: DistanceKind) -> EntanglementReport:
    """Exact genuine entanglement of a GHZ-diagonal state.

    Zero when the largest eigenvalue is at most 1/2, else a monotone function
    of that eigenvalue alone.
    """
    p = state.p_max
    value = 0.0 if p <= 0.5 else genuine_from_overlap(p, kind)
    return EntanglementReport(value, kind, SeparabilityLevel.genuine(), "exact")


# -- distances -----------------------------------------------------------------

def classical_distance(p, q, kind: DistanceKind):
    """The classical counterpart of each distance on probability vectors.

    ``p`` has shape (m,) and ``q`` shape (..., m); the result has q's leading
    shape, a float for one vector. On commuting density matrices these are
    the quantum distances of their spectra; for relative entropy, entries of
    q at most 1e-12 count as zero eigenvalues, and p's weight on them above
    1e-9 gives inf. A caller scoring many points, such as the reference
    octahedron grid in ``tests/oracle_reference.py``, passes q with the entry
    axis slowest in memory (the ``.T`` of an (m, ...) buffer), so each sum over
    the few entries adds whole contiguous rows instead of running a 4-step
    inner loop per point: over 3,721 points of 4 entries, trace distance takes
    66 instead of 216 us and relative entropy 230 instead of 465 us (2-vCPU
    VM), with the same bits.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim < 1 or q.shape[-1] != p.size:
        raise ParameterError(f"need vectors of equal length, got {p.shape} and {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if v.min() < -1e-12:
            raise ParameterError(f"{name} has a negative entry {v.min():.3e}")
        total = v.sum(axis=-1)
        if np.any(np.abs(total - 1) > 1e-9):
            raise ParameterError(f"{name} sums to {total}, expected 1")
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    if kind is DistanceKind.TRACE:
        vals = 0.5 * np.sum(np.abs(p - q), axis=-1)
    elif kind is DistanceKind.RELATIVE_ENTROPY:
        null = q <= _EIG_ZERO
        live = (p > 0) & ~null
        ratio = np.where(live, p, 1.0) / np.where(live, q, 1.0)
        vals = np.maximum(np.sum(p * np.log2(ratio), axis=-1), 0.0)
        vals = np.where(np.sum(p * null, axis=-1) > _SUPPORT_TOL, math.inf, vals)
    else:
        root_f = np.sum(np.sqrt(p * q), axis=-1)
        if kind is DistanceKind.INFIDELITY:
            vals = np.maximum(1.0 - root_f * root_f, 0.0)
        else:  # squared Bures and squared Hellinger coincide classically
            vals = np.maximum(2.0 * (1.0 - root_f), 0.0)
    return float(vals) if q.ndim == 1 else vals


__all__ = [
    "ALL_DISTANCES",
    "DistanceKind",
    "EntanglementReport",
    "SeparabilityLevel",
    "classical_distance",
    "entanglement_m3n",
    "genuine_from_overlap",
    "genuine_ghz_diag",
    "lower_bound_from_triple",
    "octahedron_excess",
    "overlap_derivative",
]
