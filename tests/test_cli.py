"""The CLI contract: input errors exit 2 with nothing on stdout; every subcommand
exits 0 with one line of strict JSON, byte-identical across runs."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from entbound import oracle
from entbound.cli import build_parser, main
from entbound.optimize import MAX_GRID_DENSITY
from entbound.oracle import MAX_GRID_RESOLUTION, MAX_REFINE_ROUNDS


def _run(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def _assert_input_error(argv, capsys, fragment):
    rc, out, err = _run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert fragment in err
    return err


@pytest.mark.parametrize("sigma", ["nan,0,0", "0,inf,0", "0,0,-inf"])
def test_bound_rejects_non_finite_sigma(sigma, capsys):
    argv = ["bound", "--n", "4", "--c=0.9,0.9,0.9", "--sigma", sigma]
    _assert_input_error(argv, capsys, "finite")


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_genuine_rejects_non_finite_sigma(sigma, capsys):
    argv = ["genuine", "--pmax", "0.8", "--sigma-p", sigma]
    _assert_input_error(argv, capsys, "finite")


def test_bound_rejects_non_finite_sigma_in_json_file(tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text('{"n": 4, "c": [0.9, 0.9, 0.9], "sigma": [NaN, 0, 0]}')
    _assert_input_error(["bound", "--file", str(path)], capsys, "finite")


def test_bound_rejects_non_finite_sigma_in_csv_file(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("n,c1,c2,c3,s1,s2,s3\n4,0.9,0.9,0.9,nan,0,0\n")
    _assert_input_error(["bound", "--file", str(path)], capsys, "finite")


@pytest.mark.parametrize("n", ["4.7", '"4"', "true"], ids=["float", "string", "bool"])
def test_bound_rejects_non_integer_n_in_json_file(n, tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text(f'{{"n": {n}, "c": [0.6, 0.5, 0.3]}}')
    _assert_input_error(["bound", "--file", str(path)], capsys, 'field "n" must be an integer')


@pytest.mark.parametrize("row", ["4,0.6,0.5,0.3,0.01", "4,0.6,0.5,0.3,0.01,0.02"],
                         ids=["one-sigma", "two-sigmas"])
def test_bound_rejects_partial_sigma_in_csv_file(row, tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text(f"n,c1,c2,c3,s1,s2,s3\n{row}\n")
    _assert_input_error(["bound", "--file", str(path)], capsys, "data row needs 4 columns")


@pytest.mark.parametrize("row, uncertainty", [("4,0.6,0.5,0.3", 0.0),
                                              ("4,0.6,0.5,0.3,0.01,0.02,0.03", 0.00935414)])
def test_bound_reads_csv_rows_without_or_with_all_sigmas(row, uncertainty, tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text(f"n,c1,c2,c3,s1,s2,s3\n{row}\n")
    rc, out, _ = _run(["bound", "--file", str(path)], capsys)
    assert rc == 0
    assert json.loads(out)["uncertainty"] == uncertainty


@pytest.mark.parametrize("later", ["4,0.9,0.9,0.9", "\n4,0.9,0.9,0.9,0.01,0.01,0.01"],
                         ids=["next-line", "after-a-blank-line"])
def test_bound_rejects_a_second_csv_data_row(later, tmp_path, capsys):
    # the first row alone would print a bound (h = 0.2) with exit 0
    path = tmp_path / "data.csv"
    path.write_text(f"n,c1,c2,c3\n4,0.6,0.5,0.3\n{later}\n")
    _assert_input_error(["bound", "--file", str(path)], capsys, "one data row expected")


def test_bound_reads_a_csv_row_followed_by_blank_lines(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("n,c1,c2,c3\n4,0.6,0.5,0.3\n\n , \n")
    rc, out, _ = _run(["bound", "--file", str(path)], capsys)
    assert rc == 0 and json.loads(out)["h"] == 0.2


@pytest.mark.parametrize("header", ["n,c1,c2,c3", "n,c1,c2,c3,s3,s2,s1"],
                         ids=["no-sigmas", "reordered"])
def test_bound_rejects_csv_sigmas_without_their_header(header, tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n4,0.6,0.5,0.3,0.01,0.02,0.03\n")
    _assert_input_error(["bound", "--file", str(path)], capsys,
                        "needs the header n,c1,c2,c3,s1,s2,s3")


def test_finite_sigma_still_accepted(capsys):
    rc, out, _ = _run(["bound", "--n", "4", "--c=0.9,0.9,0.9", "--sigma", "0.01,0,0"], capsys)
    assert rc == 0
    assert '"uncertainty"' in out


@pytest.mark.parametrize("params", ["[1]", '"ghz"', "notjson"])
def test_state_rejects_malformed_params(params, capsys):
    _assert_input_error(["state", "--family", "ghz", "--n", "3", "--params", params], capsys, "params")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bound", "--n", "4", "--c=0.9,0.9,0.9", "--sigma", "a,b,c"], "--sigma"),
        (["bound", "--n", "4", "--c=0.9,0.9,x"], "--c"),
        (["bound", "--n", "4", "--c=0.9,0.9,0.9", "--partition", "a,b"], "--partition"),
        (["triple", "--family", "ghz", "--n", "3", "--angles", "a,b,c"], "--angles"),
    ],
)
def test_malformed_numbers_in_flags(argv, flag, capsys):
    _assert_input_error(argv, capsys, f"error: {flag}:")


SPECTRA = ['{"n": 3, "p": [0.5, 0.5]}', '{"n": 3, "p": {"000+": "x"}}', '{"n": 3, "p": {"000+": [1]}}']


@pytest.mark.parametrize("spectrum", SPECTRA)
def test_genuine_rejects_malformed_spectrum(spectrum, tmp_path, capsys):
    path = tmp_path / "spectrum.json"
    path.write_text(spectrum)
    _assert_input_error(["genuine", "--spectrum-file", str(path)], capsys, '"p"')


@pytest.mark.parametrize("argv", [
    # |c1|+|c2|+|c3| rounds to 1 + 2^-52; the relative-entropy formula rounds below zero there
    ["--n", "2", "--c=-0.1438715798030627,0.7900866967754145,-0.06604172342152287",
     "--distance", "re"],
    # h = 1.1e-16 > 0, but p = (1 + |c1|+|c2|+|c3|)/4 rounds to 1/2, where the overlap
    # derivative is undefined: the delta error bar reads p, not h
    ["--n", "4", "--c=0.5,0.5,2.220446049250313e-16", "--sigma", "1e-20,1e-20,0"],
])
def test_bound_just_outside_the_octahedron_is_zero(argv, capsys):
    rc, out, _ = _run(["bound", *argv, "--full-precision"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["value"] == 0.0
    assert report["meta"] == {"method": "delta"}


def test_shared_optimise_rejects_asymmetric_state(capsys):
    # the linear cluster state has no permutation symmetry at any n
    argv = ["optimise", "--family", "cluster_linear", "--n", "6"]
    _assert_input_error(argv, capsys, "permutation-symmetric")


@pytest.mark.parametrize("mode, angles", [("per-qubit", [[0.0, 0.0, 0.0]] * 4),
                                          ("shared", [[0.0, 0.0, 0.0]])])
def test_certified_correlation_sum_prints_the_identity_of_its_mode(mode, angles, capsys):
    # an m3n block meets its l1 norm unrotated, so no search runs; per qubit the
    # identity keeps one zero triple a qubit and "shared": false
    argv = ["optimise", "--family", "m3n", "--n", "4", "--params", '{"c":[0.3,-0.2,0.4]}',
            "--mode", mode, "--full-precision"]
    rc, out, err = _run(argv, capsys)
    assert rc == 0 and err == ""
    expected = {"angles": angles, "c": [0.3, -0.2, 0.39999999999999997], "n": 4,
                "objective": "correlation_sum", "shared": mode == "shared",
                "sum_abs_c": 0.8999999999999999}
    assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "spec", ['["n"]', '{"n": "x", "family": "ghz"}', '{"n": 3.5, "family": "ghz"}',
             '{"n": true, "family": "ghz"}']
)
def test_state_rejects_malformed_state_file(spec, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(spec)
    fragment = "JSON object" if spec.startswith("[") else '"n"'
    _assert_input_error(["state", "--state-file", str(path)], capsys, fragment)


FAMILY_PARAM_ERRORS = {
    "m3n-no-c": ("m3n", "{}", "needs params ['c']"),
    "wei-no-x": ("wei", "{}", "needs params ['x']"),
    "mix-no-inner": ("white_noise_mix", '{"q": 0.5}', "needs params ['inner']"),
    "mix-q-string": ("white_noise_mix", '{"inner": {"family": "ghz"}, "q": "x"}',
                     "'q' must be a real number"),
    "mix-inner-string": ("white_noise_mix", '{"inner": "ghz", "q": 0.5}', "must be a JSON object"),
    "wei-x-null": ("wei", '{"x": null}', "'x' must be a real number"),
    "dicke-k-string": ("dicke", '{"k": "a"}', "'k' must be an integer"),
    "dicke-k-float": ("dicke", '{"k": 1.5}', "'k' must be an integer"),
    "dicke-k-bool": ("dicke", '{"k": true}', "'k' must be an integer"),
    "rect-rows-string": ("cluster_rect", '{"rows": "a"}', "'rows' must be an integer"),
}


@pytest.mark.parametrize(
    "family, params, fragment", FAMILY_PARAM_ERRORS.values(), ids=FAMILY_PARAM_ERRORS.keys()
)
def test_state_rejects_malformed_family_params(family, params, fragment, capsys):
    argv = ["state", "--family", family, "--n", "4", "--params", params]
    _assert_input_error(argv, capsys, fragment)


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["state", "--family", "ghz", "--n", "17"], "qubit cap"),
        (["optimise", "--family", "w", "--n", "14"], "512 MiB budget"),
        (["state", "--dense", "--family", "w", "--n", "13"], "512 MiB budget"),
        (["state", "--dense", "--family", "w", "--n", "11"], "512 MiB budget"),
        (["state", "--dense", "--family", "w", "--n", "12"], "512 MiB budget"),
        (["bound", "--n", "4", "--c=0.9,0.9,-0.9"], "tetrahedron"),
        (["genuine", "--spectrum-file", "{n40}"], "512 MiB budget"),
        (["oracle", "--spectrum-file", "{n40}"], "512 MiB budget"),
        (["oracle", "--spectrum-file", "{n24}"], "512 MiB budget"),
        (["optimise", "--family", "ghz", "--n", "3", "--mode", "per-qubit",
          "--restarts", "1000000000"], "512 MiB budget"),
        (["optimise", "--family", "ghz", "--n", "3", "--mode", "per-qubit",
          "--objective", "overlap", "--restarts", "1000000000"], "512 MiB budget"),
        (["simulate", "--family", "ghz", "--n", "3", "--shots", str(10**20)], "2^63 - 1"),
    ],
    ids=["state-n17", "optimise-n14", "state-dense-n13", "state-dense-n11", "state-dense-n12",
         "bound-outside-tetrahedron", "genuine-spectrum-n40", "oracle-spectrum-n40",
         "oracle-spectrum-n24",
         "optimise-per-qubit-restarts", "optimise-per-qubit-overlap-restarts", "simulate-shots"],
)
def test_unphysical_or_oversized_input_exits_2(argv, fragment, tmp_path, capsys):
    # GHZ spectra of 2^40 entries, and of 2^24 whose 128 MB array the oracle
    # would hold about 6.4 times; each file itself is a few bytes
    spectrum = tmp_path / "n40.json"
    spectrum.write_text('{"n": 40, "p": {}}')
    two_entries = {"0" * 24 + "+": 0.8, "0" * 23 + "1-": 0.2}
    (tmp_path / "n24.json").write_text(json.dumps({"n": 24, "p": two_entries}))
    argv = [a.replace("{n40}", str(spectrum)).replace("{n24}", str(tmp_path / "n24.json"))
            for a in argv]
    build_parser()  # built once per process; not part of the command's allocations
    tracemalloc.start()
    try:
        err = _assert_input_error(argv, capsys, fragment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.startswith("error: ") and err.count("\n") == 1
    # rejected before anything of the size asked for is allocated
    assert peak < 1 << 20


@pytest.mark.parametrize("distance", ["re", "trace", "infidelity", "bures", "hellinger"])
def test_spectrum_oracle_holds_at_most_eight_spectra(distance, tmp_path, capsys):
    # the reader refuses a spectrum whose eight (2^(n-1), 2) float copies
    # exceed the budget; the oracle holds about 6.4 of them
    n = 16
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text(json.dumps({"n": n, "p": {"0" * n + "+": 0.8, "0" * (n - 1) + "1-": 0.2}}))
    build_parser()  # built once per process; not part of the command's allocations
    tracemalloc.start()
    try:
        rc, out, _ = _run(["oracle", "--spectrum-file", str(spectrum), "--distance", distance],
                          capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert json.loads(out)["deviation"] <= 1e-6
    assert peak <= 8 * 8 * 2**n


def test_simulate_takes_the_largest_shot_count_numpy_draws(capsys):
    argv = ["simulate", "--family", "ghz", "--n", "3", "--shots", str(2**63 - 1)]
    rc, out, _ = _run(argv, capsys)
    assert rc == 0
    assert json.loads(out)["shots"] == 2**63 - 1


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["optimise", "--family", "ghz", "--n", "12", "--objective", "overlap",
          "--grid", str(MAX_GRID_DENSITY + 1)], f"grid_density must be in 2..{MAX_GRID_DENSITY}"),
        (["oracle", "--n", "3", "--c=0.5,0.5,0.5", "--resolution", str(MAX_GRID_RESOLUTION + 1)],
         f"grid_resolution must be in 4..{MAX_GRID_RESOLUTION}"),
    ],
    ids=["optimise-grid", "oracle-resolution"],
)
def test_grid_above_its_maximum_exits_2_before_allocating(argv, fragment, capsys):
    build_parser()  # built once per process; not part of the command's allocations
    tracemalloc.start()
    try:
        _assert_input_error(argv, capsys, fragment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("rounds", [MAX_REFINE_ROUNDS + 1, 100_000])
def test_oracle_rounds_above_the_maximum_exit_2(rounds, capsys):
    # 100,000 rounds once ran until killed; past the maximum no round changes the value
    argv = ["oracle", "--n", "4", "--c=0.537799,-0.42312,-0.884021", "--rounds", str(rounds)]
    _assert_input_error(argv, capsys, f"refine_rounds must be in 0..{MAX_REFINE_ROUNDS}")


@pytest.mark.parametrize("n", ["17", "40"])
@pytest.mark.parametrize("c", ["0.5,0.1,0.1", "0.5,-0.5,-0.7"])
def test_octahedron_oracle_runs_past_the_qubit_cap(n, c, capsys):
    # the oracle reads the triple alone, so it runs at every n that bound accepts
    rc, out, err = _run(["oracle", "--n", n, f"--c={c}"], capsys)
    assert rc == 0, err
    assert json.loads(out, parse_constant=_reject_constant)["deviation"] <= 1e-6


@pytest.mark.parametrize(
    "distance, resolution",
    [("re", 6)] + [(d, r) for r in (8, 11) for d in ("re", "infidelity", "bures", "hellinger")],
)
def test_oracle_at_a_face_corner_to_the_last_round(distance, resolution, capsys):
    # the even-n grid's deep windows at a face corner held grid points with u or v in
    # [-1e-12, 0); unclipped, their n=2 spectra had an entry of -1e-12 and
    # classical_distance refused them. The certified step takes every setting alike
    argv = ["oracle", "--n", "2", "--c=0.2,-0.2,1.0", "--distance", distance,
            "--resolution", str(resolution), "--rounds", str(MAX_REFINE_ROUNDS)]
    rc, out, err = _run(argv, capsys)
    assert rc == 0, err
    assert json.loads(out, parse_constant=_reject_constant)["deviation"] <= 1e-6


def test_oracle_takes_the_maximum_rounds(capsys):
    argv = ["oracle", "--n", "3", "--c=0.5,-0.5,0.5", "--resolution", "16"]
    rc, out, _ = _run(argv + ["--rounds", str(MAX_REFINE_ROUNDS)], capsys)
    assert rc == 0
    assert json.loads(out)["config"]["refine_rounds"] == MAX_REFINE_ROUNDS
    assert main(["oracle", "--help"]) == 0
    assert f"0..{MAX_REFINE_ROUNDS}" in capsys.readouterr().out


@pytest.mark.parametrize("command, maximum",
                         [("optimise", MAX_GRID_DENSITY), ("oracle", MAX_GRID_RESOLUTION)])
def test_help_shows_the_grid_maximum(command, maximum, capsys):
    assert main([command, "--help"]) == 0
    assert f"..{maximum}" in capsys.readouterr().out


#: a triple outside the octahedron at n=4, entangled at every non-trivial level
_ORACLE_LEVEL_TRIPLE = "--c=-0.511822,0.935388,-0.447535"


@pytest.mark.parametrize(
    "level", [["--M", "2"], ["--partition", "2,2"]], ids=["M2", "partition-2-2"]
)
def test_oracle_rejects_a_trivial_level(level, capsys):
    # the oracle minimises over fully separable states, which is the wrong set here
    argv = ["oracle", "--n", "4", _ORACLE_LEVEL_TRIPLE, "--resolution", "16"] + level
    _assert_input_error(argv, capsys, "separable at this level")


@pytest.mark.parametrize(
    "level",
    [["--M", "3"], ["--partition", "1,3"], ["--partition", "1,1,2"]],
    ids=["M3", "partition-1-3", "partition-1-1-2"],
)
def test_oracle_agrees_at_a_non_trivial_level(level, capsys):
    argv = ["oracle", "--n", "4", _ORACLE_LEVEL_TRIPLE, "--resolution", "16"] + level
    rc, out, err = _run(argv, capsys)
    assert rc == 0, err
    report = json.loads(out)
    assert report["formula_value"] > 0.2
    assert report["deviation"] < 1e-6


@pytest.mark.parametrize(
    "spectrum, fragment",
    [('{"n": 2, "p": {"00+": 0.9, "00-": 0.1, "01+": 0.1}}', "sum to 1.1"),
     ('{"n": 2, "p": {"00+": NaN, "01-": 0.5}}', "finite")],
    ids=["sum-1.1", "nan-entry"],
)
def test_unphysical_spectrum_exits_2(spectrum, fragment, tmp_path, capsys):
    path = tmp_path / "spectrum.json"
    path.write_text(spectrum)
    _assert_input_error(["genuine", "--spectrum-file", str(path)], capsys, fragment)


def test_rounded_spectrum_is_renormalised(tmp_path, capsys):
    path = tmp_path / "spectrum.json"
    path.write_text('{"n": 2, "p": {"00+": 0.9, "00-": 0.033333, "01+": 0.033333, "01-": 0.033333}}')
    rc, out, _ = _run(["genuine", "--spectrum-file", str(path), "--full-precision"], capsys)
    assert rc == 0
    assert json.loads(out)["p_max"] == pytest.approx(0.9 / 0.999999, rel=1e-15)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


CONTRACT_CASES = [
    ["state", "--family", "ghz", "--n", "3"],
    ["triple", "--family", "w", "--n", "3", "--angles", "0.1,0.2,0.3"],
    ["bound", "--n", "4", "--c=0.9,0.9,0.9", "--sigma", "0.01,0.02,0.01"],
    ["genuine", "--pmax", "0.55", "--sigma-p", "0.05"],
    ["optimise", "--family", "ghz", "--n", "3", "--restarts", "2", "--grid", "4"],
    ["oracle", "--n", "3", "--c=0.5,-0.5,0.5", "--resolution", "16"],
    ["reproduce", "table-iv-b"],
    ["simulate", "--family", "ghz", "--n", "3", "--shots", "200", "--seed", "5"],
]


@pytest.mark.parametrize("argv", CONTRACT_CASES, ids=lambda argv: argv[0])
def test_cli_contract(argv, capsys):
    runs = [_run(argv, capsys) for _ in range(2)]
    for rc, out, err in runs:
        assert rc == 0, err
        assert out.endswith("\n") and out.count("\n") == 1
    assert runs[0][1] == runs[1][1]
    parsed = json.loads(runs[0][1], parse_constant=_reject_constant)
    if argv[0] == "oracle":
        assert parsed["config"] == {"grid_resolution": 16, "refine_rounds": 3, "tolerance": 1e-06}


@pytest.mark.parametrize(
    "spectrum",
    ['{"n": 0, "p": {}}', '{"n": 1, "p": {"0+": 1}}', '{"n": 1.7, "p": {"0+": 1}}',
     '{"n": "3", "p": {"000+": 1}}', '{"n": true, "p": {"0+": 1}}'],
    ids=["zero", "one", "float", "string", "bool"],
)
def test_spectrum_n_must_be_an_integer_of_at_least_2(spectrum, tmp_path, capsys):
    path = tmp_path / "spectrum.json"
    path.write_text(spectrum)
    _assert_input_error(["genuine", "--spectrum-file", str(path)], capsys,
                        'field "n" must be an integer')


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["bound", "--n", "4"], "--c", "-0.3,0.2,0.1"),
        (["bound", "--n", "4", "--c=0.9,0.9,0.9"], "--sigma", "-0.0,0.02,0.01"),
        (["triple", "--family", "w", "--n", "3"], "--angles", "-0.0,0.1,0.2"),
        (["simulate", "--family", "ghz", "--n", "3", "--shots", "50"], "--angles", "-0.0,0.1,0.2"),
        (["oracle", "--n", "3", "--resolution", "8"], "--c", "-0.5,0.5,0.5"),
    ],
    ids=["bound-c", "bound-sigma", "triple-angles", "simulate-angles", "oracle-c"],
)
def test_number_list_may_follow_its_flag_with_a_leading_minus(argv, flag, value, capsys):
    spaced = _run(argv + [flag, value], capsys)
    joined = _run(argv + [f"{flag}={value}"], capsys)
    assert spaced[0] == 0, spaced[2]
    assert spaced == joined


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["bound", "--n", "4", "--c", "0.5,0.5,0.5", "--sigma", "-0.1,0,0"], "nonnegative"),
        (["triple", "--family", "w", "--n", "3", "--angles", "-0.1,0,0"], "theta must lie"),
    ],
    ids=["negative-sigma", "negative-theta"],
)
def test_negative_led_list_is_validated_as_a_value(argv, fragment, capsys):
    _assert_input_error(argv, capsys, fragment)


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from entbound.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    print(json.dumps([rc, out.getvalue()]))
"""


def test_package_runs_without_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported runs every command
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text('{"n": 3, "p": {"000+": 0.8, "001-": 0.2}}')
    commands = [
        ["bound", "--n", "4", "--c=0.9,0.9,0.9"],
        ["genuine", "--pmax", "0.8", "--sigma-p", "0.05"],
        ["optimise", "--family", "w", "--n", "4"],
        ["optimise", "--family", "w", "--n", "4", "--objective", "overlap"],
        ["simulate", "--family", "ghz", "--n", "3", "--shots", "200", "--seed", "5"],
        ["reproduce", "table-iv-b"],
        ["oracle", "--spectrum-file", str(spectrum), "--distance", "trace"],
        ["oracle", "--spectrum-file", str(spectrum), "--distance", "squared_hellinger"],
        ["oracle", "--n", "3", "--c=0.6,0.6,0.3", "--resolution", "12"],
        ["oracle", "--n", "4", "--c=0.6,0.6,0.3", "--distance", "re", "--resolution", "12"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == len(commands)
    for argv, (rc, out) in zip(commands, runs):
        assert rc == 0, (argv, proc.stderr)
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {argv}"))
    trace = json.loads(runs[6][1])
    assert trace["formula_value"] == pytest.approx(0.3, abs=1e-12)
    assert trace["deviation"] <= 1e-15


QUIET_SCRIPT = """
import contextlib, io, json, sys
from entbound.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        print(main(argv), file=sys.__stdout__)
"""


def test_octahedron_oracle_writes_nothing_to_stderr():
    # a fresh interpreter prints any numpy RuntimeWarning that escapes to stderr; the
    # last two triples lie on a tetrahedron face, where a spectrum entry is 0 (or rounds
    # to -6e-17 before the clip) and the gradients divide by it
    commands = [
        ["oracle", "--n", "4", "--c=0.537799,-0.42312,-0.884021", "--distance", "re"],
        ["oracle", "--n", "4", "--c=-0.511822,0.935388,-0.447535", "--distance", "squared_bures"],
        ["oracle", "--n", "2", "--c=0.83357,0.264753,-0.098323", "--distance", "re"],
        ["oracle", "--n", "2", "--c=0.83357,0.264753,-0.098323", "--distance", "hellinger"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", QUIET_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * len(commands)
    assert proc.stderr == ""


@pytest.mark.parametrize("command", ["bound", "oracle"])
def test_unsupported_distance_is_an_input_error(command, capsys):
    # odd n has an exact value for trace distance only
    err = _assert_input_error([command, "--n", "3", "--c=0.6,0.6,0.3", "--distance", "re"],
                              capsys, "only trace distance")
    assert err.count("\n") == 1 and err.startswith("error: ")


FILE_FLAGS = {
    "bound-json": (["bound", "--file"], "data.json"),
    "bound-csv": (["bound", "--file"], "data.csv"),
    "genuine-spectrum": (["genuine", "--spectrum-file"], "spectrum.json"),
    "oracle-spectrum": (["oracle", "--spectrum-file"], "spectrum.json"),
    "state-file": (["state", "--state-file"], "state.json"),
}


@pytest.mark.parametrize("kind", ["directory", "non-utf8", "malformed"])
@pytest.mark.parametrize("argv, name", FILE_FLAGS.values(), ids=FILE_FLAGS.keys())
def test_unreadable_input_file_exits_2(argv, name, kind, tmp_path, capsys):
    path = tmp_path / name
    if kind == "directory":
        path.mkdir()
        fragment, start = "Is a directory", "cannot "
    elif kind == "non-utf8":
        path.write_bytes(b"\xff\xfe")
        fragment, start = "can't decode", "cannot "
    else:  # a CSV reader takes any text, so a malformed CSV fails on its header
        path.write_text('{"n": 3, ')
        fragment = start = "header must start" if name.endswith(".csv") else "not valid JSON ("
    err = _assert_input_error(argv + [str(path)], capsys, fragment)
    assert err.startswith(f"error: {path}: {start}")  # the message names the file


def _nested_mix(levels):
    """A state file of GHZ inside ``levels`` white-noise mixes."""
    text = '{"family": "ghz"}'
    for _ in range(levels):
        text = '{"family": "white_noise_mix", "params": {"q": 0.5, "inner": ' + text + "}}"
    return '{"n": 3, ' + text[1:]


@pytest.mark.parametrize("text", ["[" * 5000 + "]" * 5000, '{"n": 3, "p": ' * 5000 + "0" + "}" * 5000,
                                  _nested_mix(496)], ids=["list", "object", "mix"])
@pytest.mark.parametrize("argv, name", [v for k, v in FILE_FLAGS.items() if k != "bound-csv"],
                         ids=[k for k in FILE_FLAGS if k != "bound-csv"])
def test_deeply_nested_input_file_exits_2(argv, name, text, tmp_path, capsys):
    # nesting past the recursion limit is an input error, not a traceback
    path = tmp_path / name
    path.write_text(text)
    err = _assert_input_error(argv + [str(path)], capsys, "nested too deeply to parse")
    assert err == f"error: {path}: nested too deeply to parse\n"


def test_deeply_nested_params_exit_2(capsys):
    params = '{"inner": ' * 5000 + "0" + "}" * 5000
    err = _assert_input_error(["state", "--family", "white_noise_mix", "--n", "3", "--params", params],
                              capsys, "nested too deeply to parse")
    assert err == "error: --params: nested too deeply to parse\n"


def test_nested_mix_below_the_recursion_limit_still_builds(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(_nested_mix(200))
    rc, out, _ = _run(["state", "--state-file", str(path)], capsys)
    assert rc == 0 and json.loads(out)["n"] == 3


HUGE = "1" + "0" * 400  # an integer past the float range
PAST_RANGE = "must be a number, got an integer past the float range"
M3N_PARAMS = ["state", "--family", "m3n", "--n", "4", "--params"]
NOT_A_NUMBER = {
    "bound-c-bool": (["bound", "--file"], '{"n": 4, "c": [true, false, false]}',
                     'field "c" entry 0 must be a number, got true'),
    "bound-c-huge": (["bound", "--file"], f'{{"n": 4, "c": [{HUGE}, 0, 0]}}',
                     f'field "c" entry 0 {PAST_RANGE}'),
    "bound-c-string": (["bound", "--file"], '{"n": 4, "c": [0.5, "0.2", 0.1]}',
                       'field "c" entry 1 must be a number, got "0.2"'),
    "bound-sigma-bool": (["bound", "--file"], '{"n": 4, "c": [0.5, 0.2, 0.1], "sigma": [true, 0, 0]}',
                         'field "sigma" entry 0 must be a number, got true'),
    "bound-sigma-huge": (["bound", "--file"], f'{{"n": 4, "c": [0.5, 0, 0], "sigma": [{HUGE}, 0, 0]}}',
                         f'field "sigma" entry 0 {PAST_RANGE}'),
    "bound-sigma-string": (["bound", "--file"],
                           '{"n": 4, "c": [0.5, 0.2, 0.1], "sigma": [0.01, 0.01, "0.01"]}',
                           'field "sigma" entry 2 must be a number, got "0.01"'),
    "state-c-bool": (["state", "--state-file"],
                     '{"n": 4, "family": "m3n", "params": {"c": [false, true, false]}}',
                     "family parameter 'c' entry 0 must be a number, got false"),
    "state-c-huge": (["state", "--state-file"],
                     f'{{"n": 4, "family": "m3n", "params": {{"c": [0, 0, -{HUGE}]}}}}',
                     f"family parameter 'c' entry 2 {PAST_RANGE}"),
    "state-c-string": (["state", "--state-file"],
                       '{"n": 4, "family": "m3n", "params": {"c": ["0.5", "0.2", "0.1"]}}',
                       "family parameter 'c' entry 0 must be a number, got \"0.5\""),
    "params-c-bool": (M3N_PARAMS, '{"c": [true, false, false]}',
                      "family parameter 'c' entry 0 must be a number, got true"),
    "params-c-string": (M3N_PARAMS, '{"c": [0.5, 0.2, "0.1"]}',
                        "family parameter 'c' entry 2 must be a number, got \"0.1\""),
    "genuine-p-bool": (["genuine", "--spectrum-file"], '{"n": 3, "p": {"000+": true}}',
                       "entry '000+' must be a number, got true"),
    "oracle-p-bool": (["oracle", "--spectrum-file"], '{"n": 3, "p": {"000+": 0.5, "000-": true}}',
                      "entry '000-' must be a number, got true"),
    "genuine-p-huge": (["genuine", "--spectrum-file"], f'{{"n": 3, "p": {{"000+": {HUGE}}}}}',
                       f"entry '000+' {PAST_RANGE}"),
    "genuine-p-string": (["genuine", "--spectrum-file"], '{"n": 3, "p": {"000+": "0.8", "001-": 0.2}}',
                         "entry '000+' must be a number, got \"0.8\""),
    "oracle-p-string": (["oracle", "--spectrum-file"], '{"n": 3, "p": {"000+": 0.8, "001-": "0.2"}}',
                        "entry '001-' must be a number, got \"0.2\""),
    # 2^n alone would not finish for an n of 10^400; n = 10^5 fails fast where it is formed
    "genuine-n-huge": (["genuine", "--spectrum-file"], '{"n": 100000, "p": {}}',
                       "a GHZ spectrum at n=100000 takes over 2^70 bytes"),
}


@pytest.mark.parametrize("argv, text, fragment", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys())
def test_file_numbers_refuse_booleans_and_integers_past_the_float_range(
        argv, text, fragment, tmp_path, capsys):
    # and strings; the text goes to a file, or straight to --params
    path = tmp_path / "input.json"
    path.write_text(text)
    _assert_input_error(argv + [text if argv == M3N_PARAMS else str(path)], capsys, fragment)


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_bound_names_the_qubit_count_below_two(n, capsys):
    # no --M was given, so the message is about n, not about the level it defaults to
    err = _assert_input_error(["bound", "--n", n, "--c=0.5,0.5,0.5"], capsys,
                              f"qubit count must be >= 2, got {n}")
    assert "M must be" not in err


def _assert_oracle_fault(argv, capsys, fragment):
    rc, out, err = _run(argv, capsys)
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err


def test_spectrum_oracle_fault_exits_1(monkeypatch, tmp_path, capsys):
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text('{"n": 2, "p": {"00+": 0.7, "00-": 0.2, "01+": 0.1}}')
    # 0.05 moved from the capped entry to an empty one: feasible, but not the minimiser
    bad = np.array([0.45, 0.5 * 0.2 / 0.3, 0.5 * 0.1 / 0.3, 0.05])
    monkeypatch.setattr(oracle, "_analytic_candidate", lambda p: bad)
    argv = ["oracle", "--spectrum-file", str(spectrum), "--distance", "trace"]
    _assert_oracle_fault(argv, capsys, "not certified")


def test_octahedron_oracle_fault_exits_1(monkeypatch, capsys):
    # at even n the octahedron oracle takes the certified capped-simplex step, whose
    # failed check is a fault like the spectrum oracle's
    monkeypatch.setattr(oracle, "_analytic_candidate", lambda p: p.copy())
    argv = ["oracle", "--n", "4", "--c=0.537799,-0.42312,-0.884021"]
    _assert_oracle_fault(argv, capsys, "not certified")


@pytest.mark.parametrize("n", ["1024", "1000000"])
def test_bound_at_huge_even_n(n, capsys):
    rc, out, err = _run(["bound", "--n", n, "--c=0.5,0.5,0.5", "--full-precision"], capsys)
    assert rc == 0, err
    report = json.loads(out, parse_constant=_reject_constant)
    assert (report["n"], report["M"]) == (int(n), int(n))
    assert report["value"] == pytest.approx(0.125, abs=1e-15)
    _assert_input_error(["bound", "--n", n, "--c=0.9,0.9,-0.9"], capsys, "tetrahedron")


def test_bound_level_at_n_beyond_float_precision(capsys):
    # ceil(n/2) is exact at any n: M = 5e17 + 1 is a trivial level for n = 1e18 + 1
    n = 10**18 + 1
    rc, out, err = _run(["bound", "--n", str(n), "--M", str(n // 2 + 1), "--c=0.9,0.1,0.1"], capsys)
    assert rc == 0, err
    assert json.loads(out)["meta"]["method"] == "exact-zero"


@pytest.mark.parametrize("flag", ["--pmax", "--sigma-p", "--distance"])
def test_double_dash_as_option_value_is_a_usage_error(flag, capsys):
    rc, out, err = _run(["genuine", "--pmax", "0.9", f"{flag}=--"], capsys)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["genuine", "--pmax", "0.9", "--sigma-p", "0.1"],
     ["bound", "--n", "4", "--c=0.5,0.5,0.5", "--sigma", "0.1,0.1,0.1"],
     ["simulate", "--family", "ghz", "--n", "3", "--shots", "10"],
     ["optimise", "--family", "ghz", "--n", "3", "--restarts", "1"]],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2(argv, capsys):
    _assert_input_error(argv + ["--seed", "-1"], capsys, "seed must be >= 0")


#: one call of every subcommand, plus the error and help paths; several rely
#: on the defaults of --seed, --distance and --shots
SHARED_PARSER_CASES = [
    ["state", "--family", "ghz", "--n", "3"],
    ["triple", "--family", "w", "--n", "3", "--angles", "0.1,0.2,0.3"],
    ["bound", "--n", "4", "--c=0.9,0.9,0.9", "--sigma", "0.01,0.02,0.01"],
    ["bound", "--n", "4", "--c=0.9,0.9,0.9", "--distance", "re", "--seed", "3"],
    ["genuine", "--pmax", "0.55", "--sigma-p", "0.05"],
    ["genuine", "--pmax", "0.55", "--sigma-p", "0.05", "--seed", "9", "--distance", "f"],
    ["optimise", "--family", "ghz", "--n", "3", "--restarts", "2", "--grid", "4"],
    ["oracle", "--n", "3", "--c=0.5,-0.5,0.5", "--resolution", "16"],
    ["reproduce", "table-iv-b"],
    ["simulate", "--family", "ghz", "--n", "3", "--shots", "200", "--seed", "5"],
    ["simulate", "--family", "ghz", "--n", "3"],
    ["bound", "--n", "four"],
    ["frobnicate"],
    ["optimise", "--family", "ghz", "--n", "3", "--objective", "nope"],
    ["bound", "--n", "4", "--c=0.9,0.9,0.9", "--distance", "nope"],
    ["bound", "--n", "4", "--c", "0.9,0.9"],
    ["genuine", "--help"],
    ["--help"],
]


def test_shared_parser_calls_leak_no_state(capsys):
    assert build_parser() is build_parser()
    first = {i: _run(argv, capsys) for i, argv in enumerate(SHARED_PARSER_CASES)}
    assert {rc for rc, _, _ in first.values()} == {0, 2}
    for i in reversed(range(len(SHARED_PARSER_CASES))):
        assert _run(SHARED_PARSER_CASES[i], capsys) == first[i], SHARED_PARSER_CASES[i]
    build_parser.cache_clear()
    for i, argv in enumerate(SHARED_PARSER_CASES):
        assert _run(argv, capsys) == first[i], argv


def test_shared_parser_has_no_mutable_default():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in [parser, *subparsers.choices.values()]:
        for action in p._actions:
            assert action.default is None or isinstance(action.default, (bool, int, float, str))
        for value in p._defaults.values():
            assert callable(value)
