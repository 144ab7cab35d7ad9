"""Spans around calls into the package's public functions, timed from outside.

``Tracer.install`` replaces each target wherever the package binds it (``cli``
imports most of them by name), and ``Tracer.uninstall`` puts every original
back. Spans stay in memory as (name, start, end, parent, case, error) and are
written once the run ends. The program's own code is not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "entbound"

#: (layer metric name, module, attribute path) of every wrapped callable
TARGETS = (
    ("cli.main", "cli", "main"),
    ("qstate.build_state", "qstate", "build_state"),
    ("qstate.DenseState", "qstate", "DenseState.__init__"),
    ("qstate.m3n_density", "qstate", "m3n_density"),
    ("pauli.correlation_triple", "pauli", "correlation_triple"),
    ("pauli.correlation_tensor", "pauli", "correlation_tensor"),
    ("pauli.rotated_triple", "pauli", "rotated_triple"),
    ("pauli.CorrelationTensor.is_symmetric", "pauli", "CorrelationTensor.is_symmetric"),
    ("locc.ghz_diagonalise", "locc", "ghz_diagonalise"),
    ("locc.GHZDiagonalState.from_file", "locc", "GHZDiagonalState.from_file"),
    ("measures.lower_bound_from_triple", "measures", "lower_bound_from_triple"),
    ("measures.genuine_ghz_diag", "measures", "genuine_ghz_diag"),
    ("measures.entanglement_m3n", "measures", "entanglement_m3n"),
    ("estimate.bound_with_uncertainty", "estimate", "bound_with_uncertainty"),
    ("estimate.genuine_bound_with_uncertainty", "estimate", "genuine_bound_with_uncertainty"),
    ("estimate.simulate_measurements", "estimate", "simulate_measurements"),
    ("estimate.counts_to_triple", "estimate", "counts_to_triple"),
    ("estimate.ingest_correlation_file", "estimate", "ingest_correlation_file"),
    ("optimize.optimise_triple", "optimize", "optimise_triple"),
    ("optimize.optimise_ghz_overlap", "optimize", "optimise_ghz_overlap"),
    # scipy's minimize as bound inside entbound.optimize
    ("optimize.minimize", "optimize", "minimize"),
    ("oracle.brute_min_over_octahedron", "oracle", "brute_min_over_octahedron"),
    ("oracle.brute_min_biseparable_ghz", "oracle", "brute_min_biseparable_ghz"),
)

SPAN_STATS = ("calls", "busy_s", "self_s", "errors")
#: counters read from arguments and results at the span boundaries
COUNTERS = (
    "qstate.dense_bytes",
    "estimate.bound_with_uncertainty.bootstrap_calls",
    "estimate.bound_with_uncertainty.delta_calls",
    "estimate.bootstrap_clipped_frac",
    "optimize.minimize.nfev",
    "optimize.minimize.nit",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.case = None
        self.counts = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- wrapping -------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.case, False])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][5] = True
                raise
            finally:
                spans[idx][1:3] = start, time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for name, module, path in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(owner, path)
            traced = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    # -- results ----------------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-callable calls, busy time, self time and errors, plus the counters."""
        out = {f"{name}.{stat}": 0.0 for name, _, _ in TARGETS for stat in SPAN_STATS}
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _, error) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.errors"] += error
            out[f"{name}.self_s"] += end - start - child_time[idx]
            if not self._nested_in_same(idx):
                out[f"{name}.busy_s"] += end - start
        for key in COUNTERS:
            out[key] = float(self.counts[key])
        samples = self.counts["bootstrap_samples"]
        out["estimate.bootstrap_clipped_frac"] = (
            self.counts["bootstrap_clipped"] / samples if samples else 0.0
        )
        return out

    def _nested_in_same(self, idx: int) -> bool:
        name, parent = self.spans[idx][0], self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def by_size(self, size_of) -> dict:
        """{callable: {n: [calls, busy seconds]}}, n taken from each span's case."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for idx, (name, start, end, _, case, _) in enumerate(self.spans):
            if self._nested_in_same(idx):
                continue
            cell = out[name][str(size_of(case))]
            cell[0] += 1
            cell[1] += end - start
        return {k: dict(v) for k, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, case, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case, "error": error}) + "\n")


def _dense_state_hook(counts, args, kwargs, _result):
    n = kwargs["n"] if "n" in kwargs else args[1]
    counts["qstate.dense_bytes"] += 16 * 4**n


def _bound_hook(counts, _args, _kwargs, report):
    meta = report.meta or {}
    if meta.get("method") == "bootstrap":
        counts["estimate.bound_with_uncertainty.bootstrap_calls"] += 1
        counts["bootstrap_samples"] += meta["samples"]
        counts["bootstrap_clipped"] += meta["clipped_fraction"] * meta["samples"]
    elif meta.get("method") == "delta":
        counts["estimate.bound_with_uncertainty.delta_calls"] += 1


def _minimize_hook(counts, _args, _kwargs, res):
    counts["optimize.minimize.nfev"] += res.nfev
    counts["optimize.minimize.nit"] += res.nit


_HOOKS = {
    "qstate.DenseState": _dense_state_hook,
    "estimate.bound_with_uncertainty": _bound_hook,
    "optimize.minimize": _minimize_hook,
}

METRIC_NAMES = tuple(
    f"{name}.{stat}" for name, _, _ in TARGETS for stat in SPAN_STATS
) + COUNTERS
