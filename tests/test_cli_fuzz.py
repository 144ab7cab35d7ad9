"""Hypothesis fuzz of the CLI contract over flag values and input file contents.

Whatever the flag values of ``bound``, ``genuine`` and ``oracle``, and whatever
the JSON in a ``--state-file`` (``state``, ``triple``), a ``bound --file`` or a
``--spectrum-file`` (``genuine``, ``oracle``), no exception escapes ``main``,
the exit code is 0, 1 or 2, exit 0 prints one line of strict JSON, and a
nonzero exit prints nothing on stdout. A valid file, or ``--params``, with a
string, boolean or null in one number position exits 2.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from entbound.cli import main
from entbound.oracle import MAX_GRID_RESOLUTION

JUNK = ["", "x", "four", "--", "-", "1,2", "0x1p-3", " 0.5", "1e", "½", "None", "[1]"]
SPECIAL_FLOATS = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e309", "5e-324",
                  "2.2250738585072014e-308", "-1e-320", "0", "-0.0", "1", "-1"]
HUGE_INTS = ["1024", "1025", "1000000", "1000001", "10" + "0" * 18, "9" * 400]


def _text(valid, *rare):
    """Valid text for about four draws in five, else one of the rarer strategies."""
    return st.integers(0, 4).flatmap(lambda k: valid if k < 4 else st.one_of(*rare))


FLOAT_TEXT = _text(
    st.floats(-1.5, 1.5).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(SPECIAL_FLOATS),
    st.sampled_from(JUNK),
)
PROBABILITY_TEXT = _text(st.floats(0, 1).map(repr), FLOAT_TEXT)
SIGMA_TEXT = _text(st.floats(0, 0.2).map(repr), FLOAT_TEXT)
INT_TEXT = _text(
    st.integers(-3, 24).map(str),
    st.sampled_from(HUGE_INTS),
    st.sampled_from(JUNK + ["4.0", "1e3"]),
)


def _list_text(item, size):
    return st.lists(item, min_size=size, max_size=size).map(",".join)


def _triple_text(component):
    any_count = st.integers(1, 4).flatmap(lambda k: _list_text(FLOAT_TEXT, k))
    return _text(_list_text(component, 3), any_count)


TRIPLE_TEXT = _triple_text(_text(st.floats(-0.5, 0.5).map(repr), FLOAT_TEXT))
PARTITION_TEXT = _text(
    st.integers(1, 4).flatmap(lambda k: _list_text(st.integers(-1, 8).map(str), k)),
    st.sampled_from(JUNK),
)
DISTANCE = st.sampled_from(["trace", "relative_entropy", "infidelity", "squared_bures",
                            "squared_hellinger", "re", "tr", "f", "bures", "hellinger", "x"])


def _flag(flag, value, usual=False):
    """One flag's tokens, "--flag value" or "--flag=value", or none.

    A usual flag is given in about four draws in five, any other in one in three.
    """
    given = st.tuples(value, st.booleans()).map(
        lambda vj: [f"{flag}={vj[0]}"] if vj[1] else [flag, vj[0]]
    )
    if usual:
        return st.integers(0, 14).flatmap(lambda k: given if k < 12 else st.just([]))
    return st.integers(0, 14).flatmap(lambda k: given if k >= 10 else st.just([]))


def _argv(command, *flags):
    return st.tuples(*flags).map(
        lambda chunks: [command] + [token for chunk in chunks for token in chunk]
    )


BOUND_ARGV = _argv(
    "bound",
    _flag("--n", INT_TEXT, usual=True),
    _flag("--c", TRIPLE_TEXT, usual=True),
    _flag("--sigma", _triple_text(SIGMA_TEXT)),
    _flag("--distance", DISTANCE),
    _flag("--M", INT_TEXT),
    _flag("--partition", PARTITION_TEXT),
    _flag("--seed", INT_TEXT),
)
GENUINE_ARGV = _argv(
    "genuine",
    _flag("--pmax", PROBABILITY_TEXT, usual=True),
    _flag("--sigma-p", SIGMA_TEXT),
    _flag("--distance", DISTANCE),
    _flag("--seed", INT_TEXT),
)
SMALL_INT_TEXT = _text(st.integers(-1, 6).map(str), st.sampled_from(JUNK))
ORACLE_ARGV = _argv(
    "oracle",
    _flag("--n", SMALL_INT_TEXT, usual=True),
    _flag("--c", TRIPLE_TEXT, usual=True),
    _flag("--distance", DISTANCE),
    _flag("--M", SMALL_INT_TEXT),
    _flag("--partition", PARTITION_TEXT),
    # rarely above the maximum, which must exit 2 before a grid is allocated
    _flag("--resolution", _text(
        st.integers(-2, 16).map(str),
        st.integers(MAX_GRID_RESOLUTION + 1, 100 * MAX_GRID_RESOLUTION).map(str),
        st.sampled_from(HUGE_INTS + JUNK),
    )),
    _flag("--rounds", _text(st.integers(-2, 4).map(str), st.sampled_from(JUNK))),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        text = out.getvalue()
        assert text.endswith("\n") and text.count("\n") == 1
        json.loads(text, parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(BOUND_ARGV, GENUINE_ARGV, ORACLE_ARGV))
def test_cli_contract_holds_for_any_flag_values(argv):
    _assert_contract(argv)


# -- file contents, written as JSON text: its NaN and Infinity literals, integers past
# the float range and nesting past the recursion limit have no Python value to dump

def _json_list(items):
    return "[" + ", ".join(items) + "]"


def _object_text(fields):
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


def _json_object(required, optional=None):
    """A JSON object of the given fields' texts; each optional field may be left out."""
    return st.fixed_dictionaries(required, optional=optional or {}).map(_object_text)


DEEP_JSON = st.sampled_from([3, 600, 5000]).flatmap(lambda depth: st.sampled_from(
    ["[" * depth + "]" * depth, '{"a": ' * depth + "0" + "}" * depth]))
ODD_JSON = st.one_of(
    st.floats().map(json.dumps),  # NaN, Infinity, -Infinity and any finite float
    st.sampled_from(["true", "false", "null", '"0.5"', "[]", "{}", "1e400", "-1e400"]
                    + HUGE_INTS + ["-" + text for text in HUGE_INTS]),
    DEEP_JSON,
)
NUMBER_JSON = _text(st.floats(-0.5, 0.5).map(json.dumps), ODD_JSON)
PROBABILITY_JSON = _text(st.floats(0, 1).map(json.dumps), ODD_JSON)
QUBITS_JSON = _text(st.integers(-1, 8).map(str), ODD_JSON, st.just("4.0"))
TRIPLE_JSON = _text(
    st.lists(NUMBER_JSON, min_size=3, max_size=3).map(_json_list),
    st.lists(NUMBER_JSON, max_size=4).map(_json_list),
    ODD_JSON,
)
SIGMA_JSON = _text(
    st.lists(_text(st.floats(0, 0.2).map(json.dumps), ODD_JSON), min_size=3, max_size=3)
    .map(_json_list),
    ODD_JSON,
)
CORRELATION_FILE = _text(
    _json_object({"n": QUBITS_JSON, "c": TRIPLE_JSON}, {"sigma": SIGMA_JSON}),
    _json_object({}, {"n": QUBITS_JSON, "c": TRIPLE_JSON, "sigma": SIGMA_JSON}),
    ODD_JSON,
)


def _spectrum(n):
    """A GHZ spectrum at n: normalised weights on valid keys (leading bit 0), or odd
    keys and values."""
    key = st.tuples(st.integers(0, 2 ** (n - 1) - 1), st.sampled_from("+-")).map(
        lambda bits_sign: format(bits_sign[0], f"0{n}b") + bits_sign[1])
    weights = st.dictionaries(key, st.floats(0.01, 1), min_size=1, max_size=6).map(
        lambda p: json.dumps({k: v / sum(p.values()) for k, v in p.items()}))
    odd = st.dictionaries(_text(key, st.sampled_from(["", "0", "01x+", "0+", "0" * 9 + "+"])),
                          _text(st.floats(0, 1).map(json.dumps), ODD_JSON), max_size=6)
    entries = _text(weights, odd.map(_object_text), ODD_JSON)
    return _json_object({"n": _text(st.just(str(n)), QUBITS_JSON), "p": entries})


SPECTRUM_FILE = _text(st.integers(2, 8).flatmap(_spectrum), ODD_JSON)


def _family_spec(tag, inner):
    params = {"dicke": {"k": QUBITS_JSON}, "cluster_rect": {"rows": QUBITS_JSON, "cols": QUBITS_JSON},
              "wei": {"x": PROBABILITY_JSON}, "m3n": {"c": TRIPLE_JSON},
              "white_noise_mix": {"q": PROBABILITY_JSON, "inner": inner}}.get(tag, {})
    return _json_object({"family": st.just(json.dumps(tag))},
                        {"params": _json_object({}, params)} if params else {})


def _nested_mix(levels):
    text = '{"family": "w"}'
    for _ in range(levels):
        text = '{"family": "white_noise_mix", "params": {"q": 0.5, "inner": ' + text + "}}"
    return text


FAMILIES = ["ghz", "w", "dicke", "cluster_linear", "cluster_rect", "wei", "smolin", "singlet4",
            "m3n", "white_noise_mix"]
STATE_SPEC = st.deferred(lambda: _text(
    st.sampled_from(FAMILIES).flatmap(lambda tag: _family_spec(tag, STATE_SPEC)),
    st.sampled_from([3, 600]).map(_nested_mix),
    _json_object({"family": _text(st.sampled_from(FAMILIES).map(json.dumps), ODD_JSON)}),
    ODD_JSON,
))
STATE_FILE = _text(
    st.tuples(QUBITS_JSON, STATE_SPEC).map(
        lambda n_spec: n_spec[1].replace("{", '{"n": ' + n_spec[0] + ", ", 1)
        if n_spec[1].startswith("{") else n_spec[1]),
    ODD_JSON,
)
FILE_ARGV = st.one_of(
    st.tuples(st.sampled_from([["state", "--state-file"], ["triple", "--state-file"]]), STATE_FILE),
    st.tuples(st.just(["bound", "--file"]), CORRELATION_FILE),
    st.tuples(st.sampled_from([["genuine", "--spectrum-file"], ["oracle", "--spectrum-file"]]),
              SPECTRUM_FILE),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv_text=FILE_ARGV)
def test_cli_contract_holds_for_any_file_contents(argv_text, tmp_path_factory):
    argv, text = argv_text
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(text)
    _assert_contract(argv + [str(path)])


# -- a valid input with a JSON string, boolean or null in one number position: the
# readers refuse it (exit 2), where float() once parsed a string as a number

NON_NUMBER_JSON = st.sampled_from(['"0.5"', '"1"', '"0"', '""', '"x"', "true", "false", "null"])
SMALL_JSON = st.floats(-0.3, 0.3).map(json.dumps)
PROBABILITY_NUMBER_JSON = st.floats(0, 1).map(json.dumps)
M3N_PARAMS_ARGV = ["state", "--family", "m3n", "--n", "4", "--params"]


def _one_non_number(template, *slots):
    """``template`` with its ``@`` slots filled from ``slots``, valid numbers, but for
    one slot, which holds a non-number."""
    def fill(drawn):
        values, bad, at = drawn
        values = list(values)
        values[at] = bad
        parts = template.split("@")
        return parts[0] + "".join(value + part for value, part in zip(values, parts[1:]))
    return st.tuples(st.tuples(*slots), NON_NUMBER_JSON, st.integers(0, len(slots) - 1)).map(fill)


NON_NUMBER_ARGV = st.one_of(
    st.tuples(st.just(["bound", "--file"]), _one_non_number(
        '{"n": 4, "c": [@, @, @], "sigma": [@, @, @]}',
        *[SMALL_JSON] * 3, *[st.floats(0, 0.05).map(json.dumps)] * 3)),
    st.tuples(st.sampled_from([["genuine", "--spectrum-file"], ["oracle", "--spectrum-file"]]),
              _one_non_number('{"n": 3, "p": {"000+": @, "011-": @}}', st.just("0.5"), st.just("0.5"))),
    st.tuples(st.sampled_from([["state", "--state-file"], ["triple", "--state-file"]]), st.one_of(
        _one_non_number('{"n": 4, "family": "m3n", "params": {"c": [@, @, @]}}', *[SMALL_JSON] * 3),
        _one_non_number('{"n": 4, "family": "wei", "params": {"x": @}}', PROBABILITY_NUMBER_JSON),
        _one_non_number('{"n": 3, "family": "white_noise_mix", "params": {"q": @, '
                        '"inner": {"family": "dicke", "params": {"k": @}}}}',
                        PROBABILITY_NUMBER_JSON, st.integers(0, 3).map(str)),
    )),
    st.tuples(st.just(M3N_PARAMS_ARGV), _one_non_number('{"c": [@, @, @]}', *[SMALL_JSON] * 3)),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv_text=NON_NUMBER_ARGV)
def test_a_non_number_in_a_number_position_exits_2(argv_text, tmp_path_factory):
    argv, text = argv_text
    given_text = text
    if argv != M3N_PARAMS_ARGV:
        given_text = tmp_path_factory.mktemp("non-number") / "input.json"
        given_text.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + [str(given_text)])
    assert (rc, out.getvalue()) == (2, ""), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
