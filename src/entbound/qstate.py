"""Construction and validation of N-qubit states.

Density matrices for the reference families (GHZ, W, Dicke, cluster,
Wei, Smolin, four-qubit singlet), triple-correlation states built from a
correlation triple, and white-noise mixtures.

A ``DenseState`` holds one form and hands every read to it. Each form is a
private class with the same reads (``lines``, ``lines_under``, ``sandwich``,
``qubit_gram``, ``bloch``, ``purity``, ``top_eigenvalue``):
``_PureForm`` holds a state vector (GHZ, W, Dicke, both clusters, the singlet),
``_XForm`` the two lines of an X matrix (triple-correlation, Smolin, Wei),
``_MixForm`` q inner + (1 - q) I/2^n of a built form, and ``_DenseForm`` a matrix
from outside the package, which gets the full dense check. A built form also
makes its 2^n x 2^n matrix (``matrix``); it carries an O(2^n) certificate and
answers every other read without that matrix: ``lines``, ``purity`` and
``top_eigenvalue`` in O(2^n), ``lines_under`` in O(n 2^n), ``sandwich`` of m
vectors in O(m 2^n), and ``qubit_gram`` in O(m 2^n), or O(m^2 2^n) on an X form.
A dense form's ``lines_under`` costs O(4^n), and its ``sandwich`` and
``qubit_gram`` one matrix product. Of the commands only ``state --dense`` reads
a built state's ``rho`` (made on the first read, then cached); the tests' dense
references read it too. States go up to ``_linalg.QUBIT_CAP`` qubits.
``rho``, ``bloch`` and the dense export charge their working sets to
``_linalg.GRID_BUDGET`` (``check_budget``), which admits them up to n = 12, 13
and 10.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._linalg import (CHUNK_ENTRIES, QUBIT_CAP, SIGMA_STACK, _frozen, check_budget, chunks,
                      contract_qubit_pairs, kron_all, kron_apply, pauli_power_entries)
from .errors import (CapacityError, ParameterError, SchemaError, StateValidityError, _json_field,
                     _json_number, _json_numbers, _json_object, read_json)

#: Bytes ``bloch`` charges per (3,)^n block entry, for the correlation-sum search that
#: reads it, plus 3 CHUNK_ENTRIES complex entries for the pure form's N_a; tracemalloc
#: peaks of ``optimise`` were at most 49 B an entry at n = 13 and 51 MiB at n = 10..12
_BLOCK_ENTRY_BYTES = 128
_BLOCK_FIXED_BYTES = 48 * CHUNK_ENTRIES

#: Dimension above which the dense PSD check of a matrix from outside the
#: package is skipped (it costs O(dim^3)); hermiticity and trace are always
#: verified. Up to it, such a matrix is screened by a Cholesky factorisation
#: and only a failed screen runs the eigenvalue test. States the package
#: builds carry a certificate instead and are checked at every n.
_PSD_CHECK_MAX_DIM = 1024

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-9
_TRIPLE_TOL = 1e-12

#: Passed to ``DenseState`` only with a form the package's builders certified;
#: it skips the dense checks, and the matrix waits for its first read.
_CERTIFIED = object()

#: sigma_1..3 transposed: Tr(rho sigma) pairs row r of rho with column r of sigma
_PAULIS_T = SIGMA_STACK[1:].transpose(0, 2, 1)


def _check_qubits(n: int) -> None:
    if n > QUBIT_CAP:
        raise CapacityError(f"n={n} exceeds the qubit cap {QUBIT_CAP}")


@dataclass(frozen=True)
class CorrelationTriple:
    """The three full-weight correlations (<s1^xN>, <s2^xN>, <s3^xN>)."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name, value in zip(("c1", "c2", "c3"), self):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
            if abs(value) > 1 + _TRIPLE_TOL:
                raise ParameterError(f"|{name}| must be <= 1, got {value}")

    def __iter__(self):
        return iter((self.c1, self.c2, self.c3))

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=float)

    @property
    def abs_sum(self) -> float:
        return abs(self.c1) + abs(self.c2) + abs(self.c3)

    @classmethod
    def from_sequence(cls, c: Sequence[float]) -> "CorrelationTriple":
        c = list(c)
        if len(c) != 3:
            raise ParameterError(f"a correlation triple needs 3 entries, got {len(c)}")
        return cls(*map(float, c))


def _clears_psd_screen(rho: np.ndarray) -> bool:
    """True when rho + (|floor|/2) I has a finite Cholesky factor.

    Then the smallest eigenvalue of rho lies above floor/2, to within about
    1e-13 of rounding, so the eigenvalue test would pass; a failed screen
    decides nothing and the caller runs that test. No command reaches it,
    since only a matrix from outside the package gets the dense check, but the
    tests' dense references build their states that way: without the screen
    every one of them runs the eigenvalue test, and the test suite took 123 s
    instead of 93 s (user CPU 185 s instead of 131 s, one run each on a 2-vCPU VM).
    """
    shifted = rho.copy()
    shifted[np.diag_indices_from(shifted)] -= _EIGENVALUE_FLOOR / 2
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


class DenseState:
    """An N-qubit density matrix, validated on construction; immutable.

    Qubit 0 is the leftmost tensor factor and the computational basis is
    binary ordered. ``DenseState(n, rho)`` checks shape, finiteness,
    hermiticity, trace and (up to ``_PSD_CHECK_MAX_DIM``) positivity, then
    keeps ``rho`` read-only in a ``_DenseForm``. The package's builders pass a
    form they certified, with ``_CERTIFIED``, and no matrix; ``rho`` is then
    built on its first read, frozen and cached. Every other read delegates to
    the form (see the module docstring).
    """

    def __init__(self, n: int, rho, _certificate=None, _form=None):
        if n < 1:
            raise ParameterError(f"qubit count must be positive, got {n}")
        object.__setattr__(self, "n", n)
        if _certificate is _CERTIFIED:
            object.__setattr__(self, "_rho", None)
            object.__setattr__(self, "_form", _form)
            return
        rho = np.array(rho, dtype=complex)
        dim = 2**n
        if rho.shape != (dim, dim):
            raise ParameterError(f"matrix shape {rho.shape} does not match n={n}")
        with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
            herm = np.max(np.abs(rho - rho.conj().T))
        if not np.isfinite(herm):  # any NaN or inf entry makes the residue non-finite
            raise StateValidityError("matrix entries must be finite")
        if herm > _HERMITICITY_TOL:
            raise StateValidityError(f"matrix is not Hermitian: residue {herm:.3e}")
        tr = np.trace(rho)
        if abs(tr - 1) > _TRACE_TOL:
            raise StateValidityError(f"trace is {tr}, expected 1")
        if dim <= _PSD_CHECK_MAX_DIM and not _clears_psd_screen(rho):
            lo = float(np.linalg.eigvalsh(rho)[0])
            if lo < _EIGENVALUE_FLOOR:
                raise StateValidityError(f"smallest eigenvalue {lo:.3e} below {_EIGENVALUE_FLOOR}")
        rho.flags.writeable = False
        object.__setattr__(self, "_rho", rho)
        object.__setattr__(self, "_form", _DenseForm(rho))

    def __setattr__(self, name, value):
        raise AttributeError(f"DenseState is immutable; cannot set {name!r}")

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def rho(self) -> np.ndarray:
        """The read-only 2^n x 2^n matrix; a built state makes it here, once."""
        if self._rho is None:
            check_budget(16 * self.dim**2, f"the dense matrix at n={self.n}")
            rho = self._form.matrix()
            rho.flags.writeable = False
            object.__setattr__(self, "_rho", rho)
        return self._rho

    def lines(self) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal rho[i, i] and the anti-diagonal rho[i, 2^n - 1 - i], bit for bit."""
        return self._form.lines()

    def lines_under(self, us, anti: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """The real diagonal and the anti-diagonal (None unless ``anti``) of U rho U^dag.

        U = us[0] x ... x us[n-1]; unitaries of shape (..., 2, 2), the same
        leading axes on every qubit, give lines of shape (..., 2^n), so one
        call serves several settings: ``simulate_measurements`` stacks its
        three basis changes on a leading axis of length 3."""
        return self._form.lines_under(list(us), anti)

    def sandwich(self, vs) -> np.ndarray:
        """V^dag rho V for the columns of V: vs of shape (..., 2^n, m) gives (..., m, m)."""
        return self._form.sandwich(np.asarray(vs))

    def qubit_gram(self, heads, tails) -> np.ndarray:
        """The Gram matrix under rho of the 2m vectors h_e x |c> x t_e, c on qubit k.

        heads (..., m, 2^k) and tails (..., m, 2^(n-k-1)) give (..., m, 2, m, 2),
        entry [e, c, f, d] = <h_e c t_e| rho |h_f d t_f>: ``sandwich`` of those
        vectors, which a built state reads without building them."""
        return self._form.qubit_gram(np.asarray(heads), np.asarray(tails))

    def bloch(self) -> np.ndarray:
        """The complex (3,)^n block Tr(rho sigma_{i_1} x ... x sigma_{i_n})."""
        check_budget(_BLOCK_ENTRY_BYTES * 3**self.n + _BLOCK_FIXED_BYTES,
                     f"the correlation block at n={self.n}")
        return self._form.bloch(self.n)

    def purity(self) -> float:
        """tr rho^2, the sum of |rho_ij|^2 for Hermitian rho."""
        return float(self._form.purity())

    def top_eigenvalue(self) -> float:
        """An upper bound on rho's largest eigenvalue, without an eigensolve.

        Exact on a built state; on a dense form it is 1, the trace, which
        bounds every eigenvalue of a density matrix.
        """
        return float(self._form.top_eigenvalue())

    @classmethod
    def from_vector(cls, psi: np.ndarray) -> "DenseState":
        """Projector onto a vector, normalised here.

        Its trace is the squared norm of the normalised vector; when that is 1,
        every entry is finite and the matrix is rank-1 PSD, so the dense checks
        run only on a vector that is zero, not finite or out of float range.
        """
        psi = np.asarray(psi, dtype=complex)
        n = int(round(math.log2(psi.size)))
        if 2**n != psi.size:
            raise ParameterError(f"vector length {psi.size} is not a power of 2")
        unit = psi / np.linalg.norm(psi)
        if abs(np.vdot(unit, unit) - 1) <= _TRACE_TOL:
            unit.flags.writeable = False
            return cls(n, None, _CERTIFIED, _PureForm(unit))
        return cls(n, np.outer(unit, unit.conj()))

    def export_row_major(self) -> list:
        """Row-major list of [re, im] pairs, the dense exchange format.

        The list and the JSON a command makes of it take up to about 460 bytes
        an entry (tracemalloc, n = 6..9), so the export is charged 512 bytes for
        each of its 4^n entries, and refused from n = 11 before rho is read.
        """
        check_budget(512 * self.dim**2, f"the dense export at n={self.n}")
        flat = self.rho.reshape(-1)
        return [[float(z.real), float(z.imag)] for z in flat]


# -- forms: one class each, with the same reads ------------------------------------
# ~r = 2^n - 1 - r; u^ is u with its rows swapped, u~ with its columns swapped.

class _PureForm:
    """The projector onto ``psi``; a squared norm of 1 certifies it (``from_vector``)."""

    def __init__(self, psi: np.ndarray):
        self.psi, self.dim = psi, psi.size

    def matrix(self) -> np.ndarray:
        return np.outer(self.psi, self.psi.conj())

    def lines(self):
        conj = self.psi.conj()
        return self.psi * conj, self.psi * conj[::-1]

    def lines_under(self, us: list, anti: bool):
        phi = kron_apply(us, self.psi)
        return phi.real**2 + phi.imag**2, phi * phi[..., ::-1].conj() if anti else None

    def sandwich(self, vs: np.ndarray) -> np.ndarray:
        a = self.psi.conj() @ vs
        return a.conj()[..., :, None] * a[..., None, :]

    def qubit_gram(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """a_ec = <psi|h_e c t_e>: conj(psi) as (2^k, 2, J) with h_e, then with t_e."""
        rows, cols = heads.shape[-1], tails.shape[-1]
        a = heads @ self.psi.conj().reshape(rows, -1)
        a = (a.reshape(a.shape[:-1] + (2, cols)) @ tails[..., None])[..., 0]
        return a.conj()[..., :, :, None, None] * a[..., None, None, :, :]

    def bloch(self, n: int) -> np.ndarray:
        """psi as a 2^k x 2^(n-k) matrix P, k the fewest leading qubits keeping
        N_a = P^T sigma_a^T conj(P) within CHUNK_ENTRIES; each string a leaves N_a,
        contracted as rho is (summed over outer products, N is rho at k = 0, bit for bit)."""
        k = max(0, n - (CHUNK_ENTRIES.bit_length() - 1) // 2)
        p, rows = self.psi.reshape(2**k, -1), []
        for string in itertools.product(_PAULIS_T, repeat=k):
            y = kron_all(string) @ p.conj()
            n_a = np.multiply.outer(p[0], y[0])
            for pr, yr in zip(p[1:], y[1:]):
                n_a += np.multiply.outer(pr, yr)
            rows.append(contract_qubit_pairs(n_a, [_PAULIS_T] * (n - k), n - k))
        return np.reshape(rows, (3,) * n)

    def purity(self) -> float:
        norm2 = np.vdot(self.psi, self.psi).real
        return norm2 * norm2

    def top_eigenvalue(self) -> float:
        return np.vdot(self.psi, self.psi).real


def _x_blocks(diag: np.ndarray, anti: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius of each 2x2 block (i, 2^n-1-i), i in the first half.

    A Hermitian block [[d_i, conj(a_i)], [a_i, d_~i]] has the eigenvalues
    (d_i + d_~i)/2 -/+ hypot((d_i - d_~i)/2, |a_i|).
    """
    half = diag.size // 2
    top, bottom = diag.real[:half], diag.real[::-1][:half]
    return (top + bottom) / 2, np.hypot((top - bottom) / 2, np.abs(anti[:half]))


def _check_x_matrix(diag: np.ndarray, anti: np.ndarray) -> None:
    """Validity of the X matrix with diagonal ``diag`` and ``anti[i]`` at (2^n-1-i, i).

    The matrix splits into 2x2 blocks on the index pairs (i, 2^n-1-i), so it
    is Hermitian when diag is real and anti[~i] = conj(anti[i]), and PSD when
    every block's smaller eigenvalue is; each check costs O(2^n). Raises
    ``StateValidityError`` with the messages of the dense checks.
    """
    with np.errstate(invalid="ignore"):  # inf - inf
        herm = max(np.max(np.abs(diag - diag.conj())), np.max(np.abs(anti - anti[::-1].conj())))
    if not np.isfinite(herm):
        raise StateValidityError("matrix entries must be finite")
    if herm > _HERMITICITY_TOL:
        raise StateValidityError(f"matrix is not Hermitian: residue {herm:.3e}")
    tr = np.sum(diag)
    if abs(tr - 1) > _TRACE_TOL:
        raise StateValidityError(f"trace is {tr}, expected 1")
    centre, radius = _x_blocks(diag, anti)
    lo = float(np.min(centre - radius))
    if lo < _EIGENVALUE_FLOOR:
        raise StateValidityError(f"smallest eigenvalue {lo:.3e} below {_EIGENVALUE_FLOOR}")


class _XForm:
    """The X matrix with ``diag`` on its diagonal and ``anti[i]`` at (~i, i).

    Constructing one certifies it with ``_check_x_matrix`` and freezes both lines.
    """

    def __init__(self, diag: np.ndarray, anti: np.ndarray):
        _check_x_matrix(diag, anti)
        diag.flags.writeable = False
        anti.flags.writeable = False
        self.diag, self.anti, self.dim = diag, anti, diag.size

    def matrix(self) -> np.ndarray:
        idx = np.arange(self.dim)
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[idx, idx] = self.diag
        rho[self.dim - 1 - idx, idx] = self.anti
        return rho

    def lines(self):
        return self.diag, self.anti[::-1]

    def lines_under(self, us: list, anti: bool):
        """With (x m) each qubit's entrywise product m applied to a line by ``kron_apply``:
        Re[(x |u|^2) diag + (x u~ conj(u)) anti] and (x u conj(u^)) diag + (x u~ conj(u^)) anti."""
        diag, off = self.diag, self.anti
        swapped = [u[..., ::-1, :] for u in us]
        flips = [u[..., ::-1] * u.conj() for u in us]
        born = np.real(kron_apply([np.abs(u) ** 2 for u in us], diag) + kron_apply(flips, off))
        return born, (kron_apply([u * s.conj() for u, s in zip(us, swapped)], diag)
                      + kron_apply([u[..., ::-1] * s.conj() for u, s in zip(us, swapped)], off)
                      ) if anti else None

    def sandwich(self, vs: np.ndarray) -> np.ndarray:
        rho_v = self.diag[:, None] * vs + self.anti[::-1, None] * vs[..., ::-1, :]
        return np.swapaxes(vs.conj(), -1, -2) @ rho_v

    def qubit_gram(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """rho[r, r] = diag[r] keeps c = d and rho[r, ~r] = anti[~r] flips c: each line is
        contracted with conj(h_e) h_f and conj(t_e) t_f, reversing h_f and t_f for anti."""
        rows, cols = heads.shape[-1], tails.shape[-1]
        gram = 0
        for line, turn, flip in ((self.diag, np.eye(2), slice(None)),
                                 (self.anti[::-1], np.eye(2)[::-1], slice(None, None, -1))):
            h = heads.conj()[..., :, None, :] * heads[..., None, :, flip]
            t = tails.conj()[..., :, None, :] * tails[..., None, :, flip]
            part = h @ line.reshape(rows, -1)  # (..., m, m, 2 J)
            part = (part.reshape(part.shape[:-1] + (2, cols)) @ t[..., None])[..., 0]
            gram = gram + np.einsum("...efc,cd->...ecfd", part, turn)
        return gram

    def bloch(self, n: int) -> np.ndarray:
        """sigma_3^{xn} from row (1, -1) on the diagonal, {sigma_1, sigma_2}^{xn} from rows
        (1, 1) and (i, -i) on rho[r, ~r], all else 0, summed as the dense contraction sums."""
        diag, anti = self.lines()
        block = np.zeros((3,) * n, dtype=complex)
        block[(slice(2),) * n] = kron_apply([[[1, 1], [1j, -1j]]] * n, anti).reshape((2,) * n)
        block[(2,) * n] = kron_apply([[[1, 1], [1, -1]]] * n, diag)[-1]
        return block

    def purity(self) -> float:
        return np.vdot(self.diag, self.diag).real + np.vdot(self.anti, self.anti).real

    def top_eigenvalue(self) -> float:
        centre, radius = _x_blocks(self.diag, self.anti)
        return np.max(centre + radius)


class _MixForm:
    """q inner + (1 - q) I/2^n, a convex combination for q in [0, 1]: each read is q
    times the inner form's plus the white noise's."""

    def __init__(self, q: float, inner):
        self.q, self.inner, self.dim = q, inner, inner.dim

    def matrix(self) -> np.ndarray:
        """``+= 0.0`` turns -0.0 into 0.0 as adding the identity's zeros would."""
        rho = self.inner.matrix()
        rho *= self.q
        rho += 0.0
        rho.reshape(-1)[:: self.dim + 1] += (1 - self.q) / self.dim
        return rho

    def lines(self):
        diag, anti = (self.q * line for line in self.inner.lines())
        diag += 0.0
        anti += 0.0
        diag += (1 - self.q) / self.dim
        return diag, anti

    def lines_under(self, us: list, anti: bool):
        born, line = self.inner.lines_under(us, anti)
        return self.q * born + (1 - self.q) / self.dim, self.q * line if anti else None

    def sandwich(self, vs: np.ndarray) -> np.ndarray:
        noise = np.swapaxes(vs.conj(), -1, -2) @ vs
        return self.q * self.inner.sandwich(vs) + (1 - self.q) / self.dim * noise

    def qubit_gram(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        # the noise's <v_ec|v_fd> = (h_e^dag h_f) delta_cd (t_e^dag t_f)
        overlap = (heads.conj() @ np.swapaxes(heads, -1, -2)) * (
            tails.conj() @ np.swapaxes(tails, -1, -2))
        return (self.q * self.inner.qubit_gram(heads, tails)
                + (1 - self.q) / self.dim * np.einsum("...ef,cd->...ecfd", overlap, np.eye(2)))

    def bloch(self, n: int) -> np.ndarray:
        return self.q * self.inner.bloch(n)

    def purity(self) -> float:  # q^2 P + 2q(1 - q)/2^n + (1 - q)^2/2^n
        return self.q * self.q * self.inner.purity() + (1 - self.q * self.q) / self.dim

    def top_eigenvalue(self) -> float:
        return self.q * self.inner.top_eigenvalue() + (1 - self.q) / self.dim


class _DenseForm:
    """A checked matrix ``rho`` from outside the package, read by dense contractions."""

    def __init__(self, rho: np.ndarray):
        self.rho, self.dim = rho, len(rho)

    def lines(self):
        return np.diagonal(self.rho), np.diagonal(self.rho[:, ::-1])

    def lines_under(self, us: list, anti: bool):
        """Each qubit's axes of rho contracted with u[i, r] conj(u[i, c]), or conj(u^[i, c])."""
        n, lines = len(us), []
        swapped = [u[..., ::-1, :] for u in us]
        for rows in [us, swapped][: 1 + anti]:
            mats = [np.reshape(u[..., None] * r.conj()[..., None, :], (-1, 2, 2, 2))
                    for u, r in zip(us, rows)]
            # per unitary: 4^n entries after the first step, and a transposed copy
            line = np.empty((len(mats[0]), 2**n), dtype=complex)
            for chunk in chunks(len(line), 4 ** (n + 1)):
                line[chunk] = contract_qubit_pairs(self.rho, [m[chunk] for m in mats], n).reshape(
                    -1, 2**n)
            lines.append(line.reshape(np.shape(us[0])[:-2] + (-1,)))
        return np.real(lines[0]), lines[1] if anti else None

    def sandwich(self, vs: np.ndarray) -> np.ndarray:
        cols = np.moveaxis(vs, -2, 0)
        rho_v = np.moveaxis((self.rho @ cols.reshape(len(cols), -1)).reshape(cols.shape), 0, -2)
        return np.swapaxes(vs.conj(), -1, -2) @ rho_v

    def qubit_gram(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        batch, m = heads.shape[:-2], heads.shape[-2]
        vecs = np.zeros(batch + (heads.shape[-1], 2, tails.shape[-1], m, 2),
                        dtype=np.result_type(heads, tails, float))
        # h_e[i] t_e[j] in the c = d slots, zero elsewhere: the einsum of h, t and the
        # identity bit for bit, as einsum's complex product may round unlike np.multiply's
        products = np.einsum("...ei,...ej->...ije", heads, tails)
        for c in range(2):
            vecs[..., :, c, :, :, c] = products
        return self.sandwich(vecs.reshape(batch + (-1, 2 * m))).reshape(batch + (m, 2, m, 2))

    def bloch(self, n: int) -> np.ndarray:
        return contract_qubit_pairs(self.rho, [_PAULIS_T] * n, n)

    def purity(self) -> float:
        return np.vdot(self.rho, self.rho).real

    def top_eigenvalue(self) -> float:
        return 1.0  # the trace, which bounds every eigenvalue


@functools.cache
def _even_signs(n: int) -> np.ndarray:
    """The 4x3 sign matrix S of even n: an m3n state's eigenvalues are (1 + S c) / 2^n.

    At even n the sigma_j^{xn} commute, and row s of S holds their joint
    eigenvalues on one eigenspace of dimension 2^(n-2): rows (sign, parity) =
    (+, 0), (+, 1), (-, 0), (-, 1) read (sign, sign e (-1)^parity, (-1)^parity)
    with e = (-1)^(n/2). Cached per n and read-only.
    """
    e = (-1.0) ** (n // 2)
    rows = [[sign, sign * e * par, par] for sign in (1.0, -1.0) for par in (1.0, -1.0)]
    return _frozen(np.array(rows))


@dataclass(frozen=True)
class M3NState:
    """Triple-correlation reference state: qubit count plus a valid triple.

    The density matrix is (1/2^n)(I + sum_j c_j sigma_j^{xn}); all single-qubit
    marginals are maximally mixed. Validity is the tetrahedron constraint for
    even n (four nonnegative spectral expressions) and the unit ball for odd n.
    """

    n: int
    c: CorrelationTriple

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"qubit count must be >= 2, got {self.n}")
        if self.n % 2 == 0:
            c1, c2, c3 = self.c
            signs = _even_signs(self.n).tolist()
            worst = min(1 + s1 * c1 + s2 * c2 + s3 * c3 for s1, s2, s3 in signs)
            if worst < -_TRIPLE_TOL:
                raise StateValidityError(
                    f"triple {tuple(self.c)} lies outside the physical tetrahedron "
                    f"for n={self.n} (spectral expression {worst:.3e})"
                )
        else:
            r2 = float(np.sum(self.c.as_array() ** 2))
            if r2 > 1 + _TRIPLE_TOL:
                raise StateValidityError(
                    f"triple {tuple(self.c)} lies outside the unit ball (|c|^2 = {r2})"
                )


# family tag -> set of accepted parameter names
_FAMILY_PARAMS = {
    "ghz": set(),
    "w": set(),
    "dicke": {"k"},
    "cluster_linear": set(),
    "cluster_rect": {"rows", "cols"},
    "wei": {"x"},
    "smolin": set(),
    "singlet4": set(),
    "m3n": {"c"},
    "white_noise_mix": {"inner", "q"},
}
# family tag -> parameter names without a default
_REQUIRED_PARAMS = {"wei": {"x"}, "m3n": {"c"}, "white_noise_mix": {"inner", "q"}}


def _check_param(name: str, value) -> None:
    """Type of one family parameter: integers, real numbers, a triple or a family."""
    if name in ("k", "rows", "cols"):
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        kind = "an integer"
    elif name in ("x", "q"):
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        kind = "a real number"
    elif name == "c":
        ok, kind = isinstance(value, CorrelationTriple), "a correlation triple"
    else:
        ok, kind = isinstance(value, StateFamily), "a state family"
    if not ok:
        raise ParameterError(f"family parameter {name!r} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class StateFamily:
    """A named state family with its parameters (qubit count supplied later)."""

    tag: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.tag, str) or self.tag not in _FAMILY_PARAMS:
            raise ParameterError(
                f"unknown family {self.tag!r}; known: {sorted(_FAMILY_PARAMS)}"
            )
        unknown = set(self.params) - _FAMILY_PARAMS[self.tag]
        if unknown:
            raise ParameterError(f"family {self.tag!r} got unknown params {sorted(unknown)}")
        missing = _REQUIRED_PARAMS.get(self.tag, set()) - set(self.params)
        if missing:
            raise ParameterError(f"family {self.tag!r} needs params {sorted(missing)}")
        for name, value in self.params.items():
            _check_param(name, value)
        object.__setattr__(self, "params", dict(self.params))

    # -- convenience constructors -------------------------------------------
    @classmethod
    def ghz(cls):
        return cls("ghz")

    @classmethod
    def w(cls):
        return cls("w")

    @classmethod
    def dicke(cls, k: int):
        return cls("dicke", {"k": int(k)})

    @classmethod
    def cluster_linear(cls):
        return cls("cluster_linear")

    @classmethod
    def cluster_rect(cls, rows: int = 2, cols: int | None = None):
        params = {"rows": int(rows)}
        if cols is not None:
            params["cols"] = int(cols)
        return cls("cluster_rect", params)

    @classmethod
    def wei(cls, x: float):
        return cls("wei", {"x": float(x)})

    @classmethod
    def smolin(cls):
        return cls("smolin")

    @classmethod
    def singlet4(cls):
        return cls("singlet4")

    @classmethod
    def m3n(cls, c) -> "StateFamily":
        triple = c if isinstance(c, CorrelationTriple) else CorrelationTriple.from_sequence(c)
        return cls("m3n", {"c": triple})

    @classmethod
    def white_noise_mix(cls, inner: "StateFamily", q: float):
        return cls("white_noise_mix", {"inner": inner, "q": float(q)})

    @classmethod
    def from_json_dict(cls, spec: Mapping) -> "StateFamily":
        """Parse the {"family": ..., "params": {...}} part of a state file."""
        tag = _json_field(_json_object(spec, "state spec"), "family", "state spec")
        params = dict(_json_object(spec.get("params", {}), 'state spec field "params"'))
        if tag == "white_noise_mix" and "inner" in params:
            params["inner"] = cls.from_json_dict(params["inner"])
        if tag == "m3n" and "c" in params:
            c = _json_numbers(params["c"], 3, "family parameter 'c'")
            try:
                params["c"] = CorrelationTriple(*c)
            except ParameterError as exc:
                raise SchemaError(f"family parameter 'c': {exc}") from exc
        try:
            return cls(tag, params)
        except ParameterError as exc:
            raise SchemaError(str(exc)) from exc


def load_state_spec(path) -> tuple[StateFamily, int]:
    """Read a state-specification JSON file, returning (family, n)."""
    spec = _json_object(read_json(path), path)
    n = _json_number(_json_field(spec, "n", path), f'{path}: field "n"', integer=True)
    return StateFamily.from_json_dict(spec), n


# -- family builders ----------------------------------------------------------

def _ghz_vector(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return v


def _dicke_vector(n: int, k: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    for positions in itertools.combinations(range(n), k):
        idx = sum(1 << (n - 1 - p) for p in positions)
        v[idx] = 1
    return v / math.sqrt(math.comb(n, k))


def _graph_state_vector(n: int, edges) -> np.ndarray:
    """Plus states on every vertex, controlled-Z across every edge."""
    v = np.full(2**n, 1 / math.sqrt(2**n), dtype=complex)
    idx = np.arange(2**n)
    for a, b in edges:
        both = (((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)).astype(bool)
        v[both] *= -1
    return v


def _rect_edges(rows: int, cols: int):
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return edges


def _singlet4_vector() -> np.ndarray:
    v = np.zeros(16, dtype=complex)
    v[0b0011] = v[0b1100] = 1
    for idx in (0b0101, 0b0110, 0b1001, 0b1010):
        v[idx] = -0.5
    return v / math.sqrt(3)


def _wei_density(n: int, x: float) -> DenseState:
    """x |GHZ><GHZ| plus (1 - x)/(2n) on each basis state of weight 1 or n - 1."""
    if not 0 <= x <= 1:
        raise ParameterError(f"Wei parameter x must be in [0, 1], got {x}")
    if n < 4:
        raise ParameterError(f"the Wei family needs n >= 4, got {n}")
    dim = 2**n
    ghz = _ghz_vector(n)
    ends = (ghz / np.linalg.norm(ghz))[[0, -1]]  # normalised as ``from_vector`` does
    corners = x * np.outer(ends, ends.conj())
    w = (1 - x) / (2 * n)
    diag = np.zeros(dim, dtype=complex)
    for k in range(1, n + 1):
        idx = 2 ** (k - 1)
        diag[idx] += w
        diag[dim - 1 - idx] += w
    anti = np.zeros(dim, dtype=complex)
    diag[[0, -1]] = np.diagonal(corners)
    anti[[0, -1]] = corners[1, 0], corners[0, 1]
    return DenseState(n, None, _CERTIFIED, _XForm(diag, anti))


def build_state(family: StateFamily, n: int) -> DenseState:
    """Dense density matrix of a named family; pure families come out rank 1."""
    _check_qubits(n)
    tag, params = family.tag, family.params
    if tag == "ghz":
        if n < 2:
            raise ParameterError("GHZ needs n >= 2")
        return DenseState.from_vector(_ghz_vector(n))
    if tag == "w":
        if n < 2:
            raise ParameterError("W needs n >= 2")
        return DenseState.from_vector(_dicke_vector(n, 1))
    if tag == "dicke":
        k = params.get("k", n // 2)
        if not 0 <= k <= n:
            raise ParameterError(f"Dicke excitation k={k} outside 0..{n}")
        return DenseState.from_vector(_dicke_vector(n, k))
    if tag == "cluster_linear":
        if n < 2:
            raise ParameterError("linear cluster needs n >= 2")
        edges = [(k, k + 1) for k in range(n - 1)]
        return DenseState.from_vector(_graph_state_vector(n, edges))
    if tag == "cluster_rect":
        rows = params.get("rows", 2)
        cols = params.get("cols", n // rows if rows else 0)
        if rows < 2 or cols < 2 or rows * cols != n:
            raise ParameterError(
                f"rectangular cluster needs rows, cols >= 2 with rows*cols = n, "
                f"got {rows}x{cols} for n={n}"
            )
        return DenseState.from_vector(_graph_state_vector(n, _rect_edges(rows, cols)))
    if tag == "wei":
        return _wei_density(n, params["x"])
    if tag == "smolin":
        if n % 2 or n < 4:
            raise ParameterError(f"the generalised Smolin state needs even n >= 4, got n={n}")
        s = float((-1) ** (n // 2))
        return m3n_density(M3NState(n, CorrelationTriple(s, s, s)))
    if tag == "singlet4":
        if n != 4:
            raise ParameterError(f"the four-qubit singlet exists only at n=4, got n={n}")
        return DenseState.from_vector(_singlet4_vector())
    if tag == "m3n":
        return m3n_density(M3NState(n, params["c"]))
    if tag == "white_noise_mix":
        q = params["q"]
        if not 0 <= q <= 1:
            raise ParameterError(f"mixing probability q must be in [0, 1], got {q}")
        # a convex combination of two density matrices is one
        inner = build_state(params["inner"], n)
        return DenseState(n, None, _CERTIFIED, _MixForm(q, inner._form))
    raise ParameterError(f"unknown family {tag!r}")


def m3n_density(state: M3NState) -> DenseState:
    """Dense matrix (1/2^n)(I + sum_j c_j sigma_j^{xn}) of a valid triple.

    Only the diagonal (I and sigma_3^{xn}) and the anti-diagonal (sigma_1^{xn}
    and sigma_2^{xn}) are nonzero; they are summed as vectors into an ``_XForm``.
    """
    _check_qubits(state.n)
    n = state.n
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    anti = np.zeros(dim, dtype=complex)
    for j, cj in enumerate(state.c, start=1):
        if cj != 0:
            line = diag if j == 3 else anti
            line += cj * pauli_power_entries(j, n)
    return DenseState(n, None, _CERTIFIED, _XForm(diag / dim, anti / dim))


__all__ = [
    "CorrelationTriple",
    "DenseState",
    "M3NState",
    "StateFamily",
    "build_state",
    "load_state_spec",
    "m3n_density",
]
