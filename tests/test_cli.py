"""Input errors reach the CLI as exit code 2 with nothing on stdout."""

import pytest

from entbound.cli import main


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


def test_bound_just_outside_the_octahedron_is_zero(capsys):
    # |c1|+|c2|+|c3| rounds to 1 + 2^-52; the relative-entropy formula rounds below zero there
    argv = ["bound", "--n", "2", "--c=-0.1438715798030627,0.7900866967754145,-0.06604172342152287",
            "--distance", "re"]
    rc, out, _ = _run(argv, capsys)
    assert rc == 0
    assert '"value":0.0' in out


def test_shared_optimise_rejects_asymmetric_state(capsys):
    # the linear cluster state has no permutation symmetry at any n
    argv = ["optimise", "--family", "cluster_linear", "--n", "6"]
    _assert_input_error(argv, capsys, "permutation-symmetric")


@pytest.mark.parametrize(
    "spec", ['["n"]', '{"n": "x", "family": "ghz"}', '{"n": 3.5, "family": "ghz"}',
             '{"n": true, "family": "ghz"}']
)
def test_state_rejects_malformed_state_file(spec, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(spec)
    fragment = "JSON object" if spec.startswith("[") else '"n"'
    _assert_input_error(["state", "--state-file", str(path)], capsys, fragment)
