"""The three-setting simulation that reads one setting at a time, kept as a test reference.

``simulate_measurements`` reads the Born lines of all three settings in one
``DenseState.lines_under`` call and builds its records straight from the
drawn outcome indices. This module keeps the loop it replaced: one read per
setting, every drawn outcome turned into its '+'/'-' string, and each record
built, validated and parsed through the public ``MeasurementRecord(n, axis,
shots, counts)``, so tests can check that the batched path draws the same
counts and gives the same estimate bits. Import it with
``from simulate_reference import simulate_per_setting``.
"""

from __future__ import annotations

import numpy as np

from entbound.estimate import _BASIS_CHANGES, MeasurementRecord, _outcome_keys


def simulate_per_setting(state, rot, shots: int, seed: int) -> tuple:
    """The three records of ``simulate_measurements``, one ``lines_under`` read per setting."""
    n = state.n
    us = rot.unitaries(n) if rot is not None else [np.eye(2, dtype=complex)] * n
    rng = np.random.default_rng(seed)
    records = []
    for axis in (1, 2, 3):
        probs, _ = state.lines_under([_BASIS_CHANGES[axis - 1] @ u for u in us], anti=False)
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        drawn = rng.multinomial(shots, probs)
        hit = np.flatnonzero(drawn)
        counts = dict(zip(_outcome_keys(hit, n), drawn[hit].tolist()))
        records.append(MeasurementRecord(n, axis, shots, counts))
    return tuple(records)
