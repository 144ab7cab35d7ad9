"""Hypothesis fuzz of the CLI contract over ``bound``, ``genuine`` and ``oracle``.

Whatever the flag values, no exception escapes ``main``, the exit code is 0, 1
or 2, exit 0 prints one line of strict JSON, and a nonzero exit prints nothing
on stdout.
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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(BOUND_ARGV, GENUINE_ARGV, ORACLE_ARGV))
def test_cli_contract_holds_for_any_flag_values(argv):
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
