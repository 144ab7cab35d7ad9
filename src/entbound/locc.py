"""LOCC reduction onto the GHZ-diagonal family.

GHZ-diagonalisation dephases a state in the GHZ basis; the other reduction,
onto the triple-correlation family, keeps only the triple that
``pauli.correlation_triple`` reads. GHZ spectra serialise as
``{"n": 3, "p": {"000+": 0.97, ...}}``; absent keys mean zero, and entries
rounded so that they sum to within 1e-5 of 1 are renormalised on reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import GRID_BUDGET, check_budget
from .errors import (CapacityError, ParameterError, SchemaError, StateValidityError, _json_field,
                     _json_number, _json_object, read_json)
from .qstate import DenseState

_SUM_TOL = 1e-12
#: spectra read from files may carry rounded entries; sums this close to 1 are renormalised
_ROUNDED_SUM_TOL = 1e-5
_NEG_TOL = -1e-12


@dataclass(frozen=True)
class GHZBasisIndex:
    """Index (i, sign) of the GHZ basis vector (|i> +/- |flip i>)/sqrt(2).

    ``i`` is restricted to bitstrings with leading bit 0, which picks one
    representative per flipped pair.
    """

    n: int
    i: int
    sign: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"qubit count must be positive, got {self.n}")
        if self.sign not in (+1, -1):
            raise ParameterError(f"sign must be +1 or -1, got {self.sign}")
        if not 0 <= self.i < 2 ** (self.n - 1):
            raise ParameterError(
                f"index {self.i} must have leading bit 0 for n={self.n} "
                f"(range 0..{2 ** (self.n - 1) - 1})"
            )

    @property
    def bits(self) -> str:
        return format(self.i, f"0{self.n}b")

    @property
    def key(self) -> str:
        return self.bits + ("+" if self.sign > 0 else "-")

    @classmethod
    def from_key(cls, key: str) -> "GHZBasisIndex":
        if len(key) < 2 or key[-1] not in "+-" or any(b not in "01" for b in key[:-1]):
            raise SchemaError(f"malformed GHZ basis key {key!r}; expected e.g. '001+'")
        return cls(len(key) - 1, int(key[:-1], 2), +1 if key[-1] == "+" else -1)


@dataclass(frozen=True)
class GHZDiagonalState:
    """Eigenvalues of a GHZ-diagonal state, indexed by (i, sign).

    ``p`` has shape (2^(n-1), 2); column 0 holds the '+' branch, column 1
    the '-' branch. Entries are clipped to [0, inf) after validation.
    """

    n: int
    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape != (2 ** (self.n - 1), 2):
            raise ParameterError(
                f"spectrum shape {p.shape} does not match (2^{self.n - 1}, 2)"
            )
        if not np.all(np.isfinite(p)):
            raise StateValidityError("spectrum entries must be finite")
        if p.min() < _NEG_TOL:
            raise StateValidityError(f"negative eigenvalue {p.min():.3e}")
        total = float(p.sum())
        if abs(total - 1) > _SUM_TOL:
            raise StateValidityError(f"eigenvalues sum to {total}, expected 1")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def p_max(self) -> float:
        return float(self.p.max())

    def argmax(self) -> GHZBasisIndex:
        flat = int(np.argmax(self.p))
        return GHZBasisIndex(self.n, flat // 2, +1 if flat % 2 == 0 else -1)

    def flat(self) -> np.ndarray:
        """Eigenvalues as a flat vector of length 2^n."""
        return self.p.reshape(-1)

    # -- JSON exchange --------------------------------------------------------
    def to_json_dict(self) -> dict:
        entries = {}
        for i in range(2 ** (self.n - 1)):
            for col, sign in ((0, +1), (1, -1)):
                if self.p[i, col] != 0:
                    entries[GHZBasisIndex(self.n, i, sign).key] = float(self.p[i, col])
        return {"n": self.n, "p": entries}

    @classmethod
    def from_json_dict(cls, spec: dict) -> "GHZDiagonalState":
        spec = _json_object(spec, "GHZ spectrum")
        n = _json_number(_json_field(spec, "n", "GHZ spectrum"), 'GHZ spectrum field "n"',
                         integer=True)
        if n < 2:
            raise SchemaError(f'GHZ spectrum field "n" must be an integer >= 2, got {n}')
        entries = _json_object(_json_field(spec, "p", "GHZ spectrum"), 'GHZ spectrum field "p"')
        # the (2^(n-1), 2) float spectrum takes 8 * 2^n bytes, and a command holds
        # up to about 6.4 copies of it (the oracle, tracemalloc at n = 12..18):
        # eight copies are charged to the budget, so n >= 24 is refused; from n = 64
        # on without forming 2^n, which for an n like 10^12 would not finish
        what = f"a GHZ spectrum at n={n}"
        if n >= 64:
            raise CapacityError(f"{what} takes over 2^70 bytes, above the {GRID_BUDGET >> 20} MiB budget")
        check_budget(8 * 8 * 2**n, what)
        p = np.zeros((2 ** (n - 1), 2))
        for key, value in entries.items():
            idx = GHZBasisIndex.from_key(str(key))
            if idx.n != n:
                raise SchemaError(f"key {key!r} has length {idx.n}, expected n={n}")
            p[idx.i, 0 if idx.sign > 0 else 1] = _json_number(
                value, f'GHZ spectrum field "p" entry {key!r}')
        total = float(p.sum())
        if _SUM_TOL < abs(total - 1) <= _ROUNDED_SUM_TOL:
            p /= total
        return cls(n, p)

    @classmethod
    def from_file(cls, path) -> "GHZDiagonalState":
        return cls.from_json_dict(read_json(path))


def ghz_overlaps(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """GHZ-basis overlaps p_i^+/- = (d[i] + d[~i]) / 2 +/- Re a[i], shape (..., 2^(n-1), 2).

    ``diag`` and ``anti`` are a state's diagonal and anti-diagonal, shape
    (..., 2^n); ~i = 2^n - 1 - i. Only the real parts and the first half of
    ``anti`` are read, so ``anti`` may hold just that half.
    """
    half = diag.shape[-1] // 2
    diag = np.real(diag)
    cross = np.real(anti[..., :half])
    mean = 0.5 * (diag[..., :half] + diag[..., ::-1][..., :half])
    return np.stack([mean + cross, mean - cross], axis=-1)


def ghz_diagonalise(state: DenseState) -> GHZDiagonalState:
    """Dephase in the GHZ basis: p_i^+/- = <beta_i^+/-| rho |beta_i^+/->.

    GHZ-diagonal inputs come back with their eigenvalues unchanged. Reads
    only the diagonal and anti-diagonal (``state.lines()``).
    """
    p = ghz_overlaps(*state.lines())
    total = p.sum()
    if abs(total - 1) > 1e-10:
        raise StateValidityError(f"GHZ overlaps sum to {total}, expected 1")
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return GHZDiagonalState(state.n, p)


__all__ = [
    "GHZBasisIndex",
    "GHZDiagonalState",
    "ghz_diagonalise",
]
