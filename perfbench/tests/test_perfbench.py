"""Self-tests of the benchmark: case stream, input domains, checker and tracer.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

import cases  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

REFERENCES = {w: run._load_reference(w) for w in cases.WORKLOADS}
DENSE_COMMANDS = {"state", "triple", "simulate", "optimise"}


def _flag(argv, name):
    for k, a in enumerate(argv):
        if a == name:
            return argv[k + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def _floats(text):
    return [float(x) for x in text.split(",")]


# -- the seeded stream --------------------------------------------------------------

@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_one_seed_gives_one_case_list_and_two_seeds_two(workload):
    by_stratum = cases.strata(REFERENCES[workload]["cases"])

    def ids(seed):
        selected = cases.select(by_stratum, workload, seed)
        return [e["id"] for k in range(run.planned_passes(selected, 15))
                for e in cases.shuffled(selected, workload, seed, k)]

    assert ids(7) == ids(7)
    assert ids(7) != ids(8)
    selected = cases.select(by_stratum, workload, 7)
    assert {e["stratum"] for e in selected} == set(by_stratum)
    assert run.planned_passes(selected, 15) >= run.MIN_PASSES


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_recorded_catalog_is_what_the_generator_draws(workload):
    fresh = cases.build_catalog(workload)
    stored = REFERENCES[workload]["cases"]
    assert [(e["id"], e["argv"], e.get("files")) for e in fresh] == [
        (e["id"], e["argv"], e.get("files")) for e in stored
    ]


# -- input domains ------------------------------------------------------------------

def _check_spectrum(doc):
    assert isinstance(doc["p"], dict), "spectra use the mapping form"
    n = doc["n"]
    for key, value in doc["p"].items():
        assert len(key) == n + 1 and set(key[:-1]) <= {"0", "1"} and key[-1] in "+-"
        assert value >= 0
    assert abs(sum(doc["p"].values()) - 1) <= 1e-12


def _check_params(family, params, n):
    if family == "m3n":
        assert cases.in_domain(params["c"], n, margin=0.0)
    if family == "white_noise_mix":
        assert 0 <= params["q"] <= 1
        assert params["inner"]["family"] in cases.PURE_FAMILIES
    if family == "wei":
        assert 0 <= params["x"] <= 1
    if family == "dicke":
        assert 0 <= params["k"] <= n
    if family == "cluster_rect":
        assert params["rows"] >= 2 and params["cols"] >= 2 and params["rows"] * params["cols"] == n


def _check_entry(entry):
    argv = entry["argv"]
    command = argv[0]
    n = _flag(argv, "--n")
    if n is not None:
        n = int(n)
        assert 2 <= n <= 20
        if command in DENSE_COMMANDS:
            assert n <= 10, "n >= 11 is excluded from the dense workloads"
        if command == "oracle":
            assert n <= 5
    if _flag(argv, "--c") is not None:
        assert cases.in_domain(_floats(_flag(argv, "--c")), n, margin=0.0)
    if _flag(argv, "--sigma") is not None:
        sigma = _floats(_flag(argv, "--sigma"))
        assert len(sigma) == 3 and all(math.isfinite(s) and s >= 0 for s in sigma)
    if _flag(argv, "--pmax") is not None:
        assert 0 <= float(_flag(argv, "--pmax")) <= 1
    if _flag(argv, "--sigma-p") is not None:
        assert 0 <= float(_flag(argv, "--sigma-p")) < 1
    if _flag(argv, "--family") is not None:
        family = _flag(argv, "--family")
        assert family in cases.PURE_FAMILIES + cases.MIXED_FAMILIES
        _check_params(family, json.loads(_flag(argv, "--params") or "{}"), n)
    if _flag(argv, "--angles") is not None:
        angles = _floats(_flag(argv, "--angles"))
        assert len(angles) in (3, 3 * n)
        for k in range(0, len(angles), 3):
            assert 0 <= angles[k] <= math.pi
            assert 0 <= angles[k + 1] < 2 * math.pi and 0 <= angles[k + 2] < 2 * math.pi
    for name, text in entry.get("files", {}).items():
        assert "{work}/" + name in argv
        if "spectrum" in name:
            _check_spectrum(json.loads(text))
        elif name.endswith(".json"):
            doc = json.loads(text)
            assert cases.in_domain(doc["c"], doc["n"], margin=0.0)
            assert all(s >= 0 for s in doc["sigma"])
        else:
            header, row = text.strip().splitlines()
            assert header == "n,c1,c2,c3,s1,s2,s3"
            values = _floats(row)
            assert cases.in_domain(values[1:4], int(values[0]), margin=0.0)
            assert all(s >= 0 for s in values[4:])


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_generated_input_is_in_its_valid_domain(workload):
    ref = REFERENCES[workload]
    for entry in [ref["probe"]] + ref["cases"]:
        if entry["check"] == "error":
            assert entry["exit"] == 2, "deliberately invalid input is a usage error"
            continue
        assert entry["exit"] == 0, entry["id"]
        _check_entry(entry)


# -- the checker --------------------------------------------------------------------

def _first_float_path(obj):
    if isinstance(obj, float):
        return []
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        path = _first_float_path(value)
        if path is not None:
            return [key] + path
    return None


def _perturb_first_float(obj, rel):
    obj = copy.deepcopy(obj)
    path = _first_float_path(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    value = target[path[-1]]
    target[path[-1]] = value * (1 + rel) if value else rel
    return obj


def _fake_simulate(entry, c):
    n, shots = entry["output"]["n"], entry["output"]["shots"]
    return dict(entry["output"], estimate={"c": c, "sigma": [0.01] * 3, "n": n},
                records=[{"axis": j, "counts": {"+" * n: shots}} for j in (1, 2, 3)])


def _by_check(kind):
    return [e for ref in REFERENCES.values() for e in ref["cases"] if e["check"] == kind]


def _passes(entry, out):
    return check.check_case(entry, entry["exit"], json.dumps(out), "") is None


def test_checker_accepts_reference_and_rejects_perturbed_exact_outputs():
    for entry in _by_check("exact"):
        assert _passes(entry, entry["output"]), entry["id"]
        assert not _passes(entry, _perturb_first_float(entry["output"], 1e-6)), entry["id"]


def test_checker_rejects_lower_optimiser_objective():
    for entry in _by_check("optimise"):
        out = entry["output"]
        name = "sum_abs_c" if out["objective"] == "correlation_sum" else "p_max"
        assert _passes(entry, out), entry["id"]
        worse = dict(out, **{name: out[name] - 1e-3})
        if name == "sum_abs_c":
            worse["c"] = [math.copysign(abs(x) - 1e-3 / 3, x) for x in out["c"]]
        assert not _passes(entry, worse), entry["id"]


def test_checker_rejects_oracle_deviation_and_formula_changes():
    for entry in _by_check("oracle"):
        out = entry["output"]
        assert _passes(entry, out), entry["id"]
        tol = max(out["config"]["tolerance"], out["deviation"])
        assert not _passes(entry, dict(out, deviation=10 * tol)), entry["id"]
        assert not _passes(entry, dict(out, formula_value=out["formula_value"] + 1e-6))


def test_checker_rejects_simulated_triple_far_from_exact():
    for entry in _by_check("simulate"):
        assert _passes(entry, _fake_simulate(entry, entry["exact_c"])), entry["id"]
        off = [c - 0.2 if c > 0 else c + 0.2 for c in entry["exact_c"]]
        assert not _passes(entry, _fake_simulate(entry, off)), entry["id"]


def test_checker_rejects_nan_traceback_and_wrong_exit_code():
    entry = REFERENCES["data-bounds"]["cases"][0]
    text = json.dumps(entry["output"])
    assert check.check_case(entry, 0, text, "") is None
    assert check.check_case(entry, 0, '{"value":NaN}', "")
    assert check.check_case(entry, 0, text, "Traceback (most recent call last):")
    assert check.check_case(entry, 1, text, "")
    error = next(e for e in REFERENCES["data-bounds"]["cases"] if e["check"] == "error")
    assert check.check_case(error, 2, "", "error: bad input") is None
    assert check.check_case(error, 2, "{}", "error: bad input")


# -- the tracer ---------------------------------------------------------------------

def _bindings():
    """Every attribute of every loaded package module and wrapped class."""
    import entbound.locc
    import entbound.pauli
    import entbound.qstate

    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "entbound" or name.startswith("entbound.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (entbound.qstate.DenseState, entbound.pauli.CorrelationTensor,
                entbound.locc.GHZDiagonalState):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_traced_stdout_is_identical_and_wrappers_are_removed():
    from entbound.cli import main as cli_main

    picked = []
    for workload, ref in REFERENCES.items():
        for entry in ref["cases"]:
            cheap = entry["seconds"] < 0.3 and entry["stratum"] not in {
                e["stratum"] for e in picked
            }
            if cheap:
                picked.append(entry)
    workdir = run.WORK / "selftest"
    run._write_inputs(picked, workdir)
    try:
        before = _bindings()
        plain = [run.run_case(cli_main, e, str(workdir)) for e in picked]
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_main = sys.modules["entbound.cli"].main
            traced = [run.run_case(traced_main, e, str(workdir), tracer) for e in picked]
        finally:
            tracer.uninstall()
        after = _bindings()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p, t in zip(plain, traced):
        assert (t["rc"], t["stdout"]) == (p["rc"], p["stdout"]), p["id"]
    # running cases may import more modules (the table data package), so compare
    # what was bound before, and look for any wrapper left anywhere
    assert all(after[k] is v for k, v in before.items())
    assert not any(hasattr(v, "__wrapped_original__") for v in after.values())
    metrics = tracer.metrics()
    assert set(metrics) == set(spans.METRIC_NAMES)
    assert metrics["cli.main.calls"] == len(picked)
    wrapped = {name for name, _, _ in spans.TARGETS}
    assert {s[0] for s in tracer.spans} <= wrapped
    assert metrics["qstate.DenseState.calls"] > 0 and metrics["qstate.dense_bytes"] > 0
    assert all(metrics[f"{n}.self_s"] <= metrics[f"{n}.busy_s"] + 1e-9
               for n in wrapped if metrics[f"{n}.calls"])


# -- metric helpers -----------------------------------------------------------------

def test_import_breakdown_counts_outermost_package_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        70 |        120 |   scipy",
        "import time:        30 |        150 | scipy.optimize",
        "import time:        10 |         10 | json",
    ])
    out = run.import_breakdown(text)
    assert out["import.numpy_s"] == pytest.approx(300e-6)
    assert out["import.scipy_s"] == pytest.approx(150e-6)
    assert out["import.total_s"] == pytest.approx(460e-6)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    for count in (20, 36, 100, 4000):
        p = run.tail_percentile(count)
        assert count * (1 - p / 100) >= run.TAIL_SAMPLES - 1e-9
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(100_000) == 99.9
