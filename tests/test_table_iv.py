"""Table IV a/b pinned at full precision.

The values, uncertainties and estimation methods below were recorded from
``entbound reproduce table-iv-a|table-iv-b --full-precision``. The rows run
both the delta-method and the bootstrap paths of the error propagation.
"""

import json

import pytest

from entbound import cli
from entbound.cli import _load_table_data, main
from entbound.estimate import (
    TripleEstimate,
    bound_with_uncertainty,
    genuine_bound_with_uncertainty,
)
from entbound.measures import DistanceKind, SeparabilityLevel
from entbound.qstate import CorrelationTriple

REL = 1e-12

#: state: (sum_abs_c, trace_bound, uncertainty, method)
TABLE_IV_A = {
    "smolin4_photonic": (1.1600000000000001, 0.040000000000000036, 0.0024494897427831783, "delta"),
    "dicke6_photonic_a": (1.6, 0.15000000000000002, 0.06771840791037217, "bootstrap"),
    "dicke6_photonic_b": (1.68, 0.16999999999999998, 0.008660254037844387, "delta"),
    "ghz3_ion": (1.353, 0.10190232251196894, 0.0, "delta"),
    "ghz4_ion": (2.247, 0.31174999999999997, 0.0, "delta"),
    "w4_ion_a": (1.2360000000000002, 0.05900000000000005, 0.0, "delta"),
    "w4_ion_b": (1.386, 0.09649999999999997, 0.0, "delta"),
}

#: state: (p_max, method, {distance: (value, uncertainty)})
TABLE_IV_B = {
    "ghz3_ion": (0.97, "delta", {
        "relative_entropy": (0.8056081421684237, 0.01504485102439791),
        "trace": (0.47, 0.003),
        "infidelity": (0.3294127789076801, 0.00826556638282374),
        "squared_bures": (0.36221219800327, 0.01009357423806267),
    }),
    "ghz4_ion": (0.9570000000000001, "delta", {
        "relative_entropy": (0.7441180843532299, 0.01342833107935179),
        "trace": (0.4570000000000001, 0.003),
        "infidelity": (0.2971429074446744, 0.006758452380096521),
        "squared_bures": (0.3232685455859954, 0.008061460721458835),
    }),
    "ghz5_ion": (0.9440000000000001, "delta", {
        "relative_entropy": (0.6886426295707172, 0.020376440636521193),
        "trace": (0.44400000000000006, 0.005),
        "infidelity": (0.2700782741888015, 0.009655459883869198),
        "squared_bures": (0.29129086640095636, 0.01130146693080754),
    }),
    "ghz6_ion": (0.892, "delta", {
        "relative_entropy": (0.5061462763004794, 0.012184049591027346),
        "trace": (0.392, 0.004),
        "infidelity": (0.18961958824693853, 0.00505186519711012),
        "squared_bures": (0.19957736988999009, 0.005611865917061305),
    }),
    "ghz8_ion": (0.8170000000000001, "delta", {
        "relative_entropy": (0.3134038688189162, 0.008633969719446567),
        "trace": (0.31700000000000006, 0.004),
        "infidelity": (0.11333347701152102, 0.003279311563359162),
        "squared_bures": (0.1167405670078494, 0.0034825914113691104),
    }),
    "ghz10_ion": (0.626, "delta", {
        "relative_entropy": (0.04630604151570816, 0.004458746322269891),
        "trace": (0.126, 0.006),
        "infidelity": (0.016136382851531184, 0.001562423735132846),
        "squared_bures": (0.016202009126464745, 0.001575184310419485),
    }),
    "ghz14_ion": (0.508, "bootstrap", {
        "relative_entropy": (0.00018467284507928117, 0.0005318977176724261),
        "trace": (0.008000000000000007, 0.007581870408684962),
        "infidelity": (6.400409652440597e-05, 0.00018438254499723714),
        "squared_bures": (6.400512068793773e-05, 0.00018441317187449039),
    }),
}


def _reproduce(table, capsys):
    assert main(["reproduce", table, "--full-precision"]) == 0
    return json.loads(capsys.readouterr().out)


def test_table_iv_a_values(capsys):
    rows = _reproduce("table-iv-a", capsys)
    assert [row["state"] for row in rows] == list(TABLE_IV_A)
    for row in rows:
        abs_sum, value, unc, _ = TABLE_IV_A[row["state"]]
        assert row["sum_abs_c"] == pytest.approx(abs_sum, rel=REL)
        assert row["trace_bound"] == pytest.approx(value, rel=REL)
        assert row["uncertainty"] == pytest.approx(unc, rel=REL)


def test_table_iv_b_values(capsys):
    rows = _reproduce("table-iv-b", capsys)
    assert [row["state"] for row in rows] == list(TABLE_IV_B)
    for row in rows:
        p_max, _, columns = TABLE_IV_B[row["state"]]
        assert row["p_max"] == pytest.approx(p_max, rel=REL)
        for distance, (value, unc) in columns.items():
            assert row[distance] == pytest.approx(value, rel=REL)
            assert row[distance + "_unc"] == pytest.approx(unc, rel=REL)


@pytest.mark.parametrize("seed", [0, 7])
def test_table_iv_b_equals_one_call_per_column(seed, capsys):
    # the table draws a bootstrapped row's samples once for all four columns; each
    # column's own call draws the same samples from the same seed
    rows = []
    for row in _load_table_data()["genuine"]:
        pct, err = row["fidelity_pct"]
        entry = {"state": row["state"], "n": row["n"], "p_max": pct / 100.0}
        for distance in TABLE_IV_B[row["state"]][2]:
            report = genuine_bound_with_uncertainty(
                pct / 100.0, (err or 0.0) / 100.0, DistanceKind(distance), seed=seed)
            entry[distance], entry[distance + "_unc"] = report.value, report.uncertainty
        rows.append(entry)
    assert main(["reproduce", "table-iv-b", "--full-precision", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"


def test_table_iv_methods():
    data = _load_table_data()
    for row in data["global_partial"]:
        est = TripleEstimate(CorrelationTriple.from_sequence(row["c"]), tuple(row["sigma"]))
        level = SeparabilityLevel(m=row["n"])
        report = bound_with_uncertainty(est, row["n"], level, DistanceKind.TRACE)
        assert report.meta["method"] == TABLE_IV_A[row["state"]][3], row["state"]
    for row in data["genuine"]:
        pct, err = row["fidelity_pct"]
        _, method, columns = TABLE_IV_B[row["state"]]
        for distance in columns:
            kind = DistanceKind(distance)
            report = genuine_bound_with_uncertainty(pct / 100, (err or 0.0) / 100, kind)
            assert report.meta["method"] == method, (row["state"], distance)


def test_table_data_is_parsed_once_per_process(monkeypatch, capsys):
    data = _load_table_data()

    def refuse(*args):
        raise AssertionError("table_iv.json opened again")

    monkeypatch.setattr(cli.resources, "files", refuse)
    for table in ("table-iv-a", "table-iv-b"):
        assert main(["reproduce", table]) == 0
    capsys.readouterr()
    assert _load_table_data() is data
