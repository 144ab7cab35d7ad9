"""Reference checks behind ``success_frac``.

A case fails on a wrong exit code, a traceback, stdout that is not strict JSON
(``NaN`` and ``Infinity`` included), or output that disagrees with the value
recorded at the reference commit. Keys present in the reference must match;
keys the reference lacks are allowed, so a later change may add fields.
"""

from __future__ import annotations

import json
import math

#: closed forms and recorded estimates agree to this relative tolerance
REL_TOL = 1e-9
ABS_TOL = 1e-12
#: an optimiser objective may not fall further than this below the reference
OBJECTIVE_TOL = 1e-9
#: a simulated triple lies within this many standard errors of the exact one
SIGMA_MULTIPLE = 5.0


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def parse_strict(text: str):
    """Parse one CLI JSON document, refusing NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def match(ref, out, path: str = "$") -> str | None:
    """First disagreement between a reference value and an output, or None."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return None if out == ref else f"{path}: {out!r} != {ref!r}"
    if isinstance(ref, (int, float)):
        if isinstance(out, bool) or not isinstance(out, (int, float)):
            return f"{path}: {out!r} is not a number"
        return None if _close(float(out), float(ref)) else f"{path}: {out!r} != {ref!r}"
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{path}: list shape differs"
        for k, (r, o) in enumerate(zip(ref, out)):
            bad = match(r, o, f"{path}[{k}]")
            if bad:
                return bad
        return None
    if not isinstance(out, dict):
        return f"{path}: not an object"
    for key, r in ref.items():
        if key not in out:
            return f"{path}.{key}: missing"
        bad = match(r, out[key], f"{path}.{key}")
        if bad:
            return bad
    return None


def _check_exact(entry, out):
    return match(entry["output"], out)


def _check_optimise(entry, out):
    ref = entry["output"]
    for key in ("n", "objective", "shared"):
        if out.get(key) != ref[key]:
            return f"{key}: {out.get(key)!r} != {ref[key]!r}"
    if not isinstance(out.get("angles"), list) or len(out["angles"]) != len(ref["angles"]):
        return "angles: shape differs"
    name = "sum_abs_c" if ref["objective"] == "correlation_sum" else "p_max"
    value = out.get(name)
    if not isinstance(value, (int, float)) or value < ref[name] - OBJECTIVE_TOL:
        return f"{name}: {value!r} below the reference {ref[name]!r}"
    if name == "sum_abs_c":
        if abs(sum(abs(x) for x in out["c"]) - value) > OBJECTIVE_TOL:
            return "sum_abs_c disagrees with the reported triple"
    elif value > 1 + OBJECTIVE_TOL:
        return f"p_max {value!r} above 1"
    return None


def _check_oracle(entry, out):
    ref = entry["output"]
    bad = match(ref["formula_value"], out.get("formula_value"), "$.formula_value")
    bad = bad or match(ref["config"], out.get("config"), "$.config")
    if bad:
        return bad
    if not out.get("oracle_value", -1) >= 0:
        return f"oracle_value {out.get('oracle_value')!r} is negative"
    # A case whose reference deviation already exceeds the oracle's tolerance
    # is a known oracle miss at the reference commit; it may not get worse.
    tolerance = max(ref["config"]["tolerance"], ref["deviation"] * (1 + REL_TOL))
    if not out.get("deviation", math.inf) <= tolerance:
        return f"deviation {out.get('deviation')!r} above the tolerance {tolerance}"
    return None


def _check_simulate(entry, out):
    bad = match(entry["output"], out)
    if bad:
        return bad
    shots = entry["output"]["shots"]
    records = out.get("records", [])
    if sorted(r.get("axis") for r in records) != [1, 2, 3]:
        return "records must cover axes 1, 2, 3"
    for rec in records:
        if sum(rec["counts"].values()) != shots:
            return f"axis {rec['axis']} counts do not sum to {shots}"
    est = out["estimate"]
    for j, (c, s, exact) in enumerate(zip(est["c"], est["sigma"], entry["exact_c"])):
        spread = max(s, math.sqrt(max(1 - exact * exact, 0.0) / shots))
        if abs(c - exact) > SIGMA_MULTIPLE * spread + 1e-9:
            return f"c{j + 1} = {c!r} is more than {SIGMA_MULTIPLE} sigma from {exact!r}"
    return None


_CHECKS = {
    "exact": _check_exact,
    "optimise": _check_optimise,
    "oracle": _check_oracle,
    "simulate": _check_simulate,
}


def check_case(entry: dict, rc, stdout: str, stderr: str) -> str | None:
    """Reason the case failed, or None when it passes."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if rc != entry["exit"]:
        return f"exit code {rc!r}, expected {entry['exit']}"
    if entry["check"] == "error":
        if stdout or not stderr.strip():
            return "an input error must print nothing on stdout and a message on stderr"
        return None
    try:
        out = parse_strict(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    return _CHECKS[entry["check"]](entry, out)
