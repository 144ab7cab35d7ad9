"""Small dense linear-algebra helpers shared across modules.

Qubit 0 is the leftmost tensor factor; computational basis states are
binary ordered, so basis index ``i`` has qubit ``k`` in bit ``(n-1-k)``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapacityError

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: sigma_0 .. sigma_3 in the usual 0=identity, 1=x, 2=y, 3=z order.
SIGMA = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)

#: stack of the four Paulis, shape (4, 2, 2), for tensor contractions.
SIGMA_STACK = np.stack(SIGMA)

#: matrix entries one batched step may hold; longer batches run in chunks
CHUNK_ENTRIES = 1 << 20
#: bytes one working set (a matrix, a block, a search or an oracle grid) may hold
GRID_BUDGET = 512 << 20
#: largest qubit count of a built state and an m3n density
QUBIT_CAP = 16


def check_budget(nbytes: int, what: str) -> None:
    """Refuse a working set of ``nbytes`` bytes above GRID_BUDGET, before it is allocated."""
    if nbytes > GRID_BUDGET:
        raise CapacityError(
            f"{what} takes {-(-nbytes >> 20)} MiB, above the {GRID_BUDGET >> 20} MiB budget"
        )


def chunk_rows(per_row: int) -> int:
    """Rows of one chunk: CHUNK_ENTRIES // per_row, at least one."""
    return max(1, CHUNK_ENTRIES // per_row)


def chunks(count: int, per_row: int) -> list[slice]:
    """Slices covering range(count), of ``chunk_rows(per_row)`` rows each."""
    step = chunk_rows(per_row)
    return [slice(i, i + step) for i in range(0, count, step)]


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def hamming_weights(n: int) -> np.ndarray:
    """Bit counts of 0 .. 2^n - 1; cached per n and read-only."""
    idx = np.arange(2**n, dtype=np.uint64)
    w = np.zeros(2**n, dtype=np.int64)
    for k in range(n):
        w += ((idx >> np.uint64(k)) & np.uint64(1)).astype(np.int64)
    return _frozen(w)


@functools.cache
def pauli_power_entries(j: int, n: int) -> np.ndarray:
    """The 2^n nonzero entries of sigma_j^{xn} (j in 1..3), one per column i.

    sigma_3^{xn} holds (-1)^{weight(i)} at (i, i); sigma_1^{xn} holds 1 and
    sigma_2^{xn} holds i^n (-1)^{weight(i)} at the bit flip (2^n - 1 - i, i).
    Cached per (j, n) and read-only.
    """
    if j == 1:
        return _frozen(np.ones(2**n, dtype=complex))
    if j == 2:
        return _frozen((1j) ** n * (-1.0) ** hamming_weights(n))
    if j == 3:
        return _frozen(((-1.0) ** hamming_weights(n)).astype(complex))
    raise ValueError(f"pauli index out of range: {j}")


def contract_qubit_pairs(rho: np.ndarray, mats, n: int) -> np.ndarray:
    """Contract each qubit's (row, column) axis pair of rho with one tensor.

    ``mats[k]`` has shape (..., d_k, 2, 2), the leading (batch) axes the same
    for every k; the result has shape (..., d_0, ..., d_{n-1}) with entry
    sum over rows r and columns c of rho[r, c] prod_k mats[k][..., i_k, r_k, c_k].
    Qubit 0 goes first; each qubit is one batched matrix product of the
    partial sums, (r_k, c_k) on their last axis, with mats[k].
    """
    batch = np.shape(mats[0])[:-3]
    dims = tuple(np.shape(m)[-3] for m in mats)
    h = 2**n
    cur = rho.reshape(1, h, h, 1)
    for m, d in zip(mats, dims):
        outs, h = cur.shape[-1], h // 2
        cur = cur.reshape(-1, 2, h, 2, h, outs).transpose(0, 1, 3, 2, 4, 5)
        cur = cur.reshape(len(cur), 4, -1).swapaxes(1, 2)
        cur = cur @ np.reshape(m, (-1, d, 4)).swapaxes(1, 2)
        cur = cur.reshape(len(cur), h, h, -1)
    return cur.reshape(batch + dims)


def kron_apply(mats, v: np.ndarray) -> np.ndarray:
    """(mats[0] x ... x mats[n-1]) @ v for a 2^n vector, one 2x2 factor at a time: O(n 2^n).

    Factors of shape (..., 2, 2), the same leading axes for every k, give (..., 2^n).
    Each qubit is one product over the whole line: the line, read as (2, 2^(n-1)) with
    that qubit leading, is multiplied by its factor, and the product is written
    transposed, (2^(n-1), 2), so the next qubit leads and after n steps the qubits are
    back in order. Two lines per batch row, allocated once, take the steps in turn (a
    step reads one and writes the other), so a step holds one more 2^n line per batch
    row than its input: the whole call, two such lines beside v.
    """
    out = np.asarray(v)
    mats = [np.asarray(m) for m in mats]
    shape = np.broadcast_shapes(out.shape[:-1], *(m.shape[:-2] for m in mats)) + out.shape[-1:]
    lines = [np.empty(shape, np.result_type(out, *mats)) for _ in range(2)]
    for k, m in enumerate(mats):
        line = lines[k % 2]
        np.matmul(m, out.reshape(out.shape[:-1] + (2, -1)),
                  out=line.reshape(shape[:-1] + (-1, 2)).swapaxes(-1, -2))
        out = line
    return out
