"""The command line's exit-code contract on generated problem files:
every run exits 0, 2, 3 or 4 and raises nothing.  Exit 3 is a soundness
alarm; for `rr` that includes the check, made whenever the chain changed,
that its value times M^(k*) lies in M^(1+k*)."""

import contextlib
import io
import json

import pytest

from reescalc.cli import main

pytest.importorskip("hypothesis")
from hypothesis import (example, given, settings,  # noqa: E402
                        strategies as st)

_ENTRY = st.recursive(
    st.sampled_from(["X", "Y", "0", "1", "2", "-3", "7", "Z"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map("".join),
        st.tuples(inner, st.integers(0, 3)).map(
            lambda t: f"({t[0]})^{t[1]}")),
    max_leaves=4)
_RING = st.sampled_from(["", "ring {\n  char = 0\n}\n",
                         "ring {\n  char = 32003\n}\n",
                         "ring {\n  vars = X, Y\n  char = 2\n}\n",
                         "ring {\n  vars = X, Y, Z\n}\n",
                         "ring {\n  vars = X\n}\n",
                         "ring {\n  char = 4\n}\n"])
_OPTION = st.sampled_from(["lmax = 3", "lmax = -1", "window = 0",
                           "window = 1", "nmax = 2", "smax = two",
                           "deadline = 0", "deadline = 30", "index = 1"])


@st.composite
def _problem_texts(draw):
    rows = draw(st.lists(st.lists(_ENTRY, min_size=1, max_size=3),
                         min_size=1, max_size=2))
    text = draw(_RING) + "matrix {\n" + "".join(
        f"  row = {', '.join(row)}\n" for row in rows) + "}\n"
    options = draw(st.lists(_OPTION, max_size=2))
    if options:
        text += "options {\n" + "".join(f"  {o}\n" for o in options) + "}\n"
    if draw(st.booleans()):
        # one character dropped or one inserted; no digit is inserted,
        # so an exponent grows only where a drop joins two digits
        i = draw(st.integers(0, len(text)))
        insert = draw(st.sampled_from(["", "{", "}", "=", ",", "^", "(",
                                       ")", "*", "#", "\n", "X", "\xff"]))
        text = text[:i] + insert + text[i + (not insert):]
    return text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(["param", "fitting"]),
       text=st.one_of(_problem_texts(),
                      st.text(alphabet="XY01^*+-(),={}#\n matrixrow",
                              max_size=60)))
def test_cli_exit_codes_hold_for_generated_problems(tmp_path_factory,
                                                    command, text):
    path = tmp_path_factory.mktemp("fuzz") / "generated.problem"
    path.write_bytes(text.encode("latin-1"))
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        status = main([command, str(path)])
    assert status in (0, 2, 3, 4), (status, text)
    if status == 4:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        json.loads(out.getvalue())


_MONOMIAL = st.sampled_from(["X", "Y", "X^2", "X*Y", "Y^2"])
_LOW_DEGREE_ENTRY = st.tuples(
    st.sampled_from(["0", "", "2*", "3*"]), _MONOMIAL,
    st.sampled_from(["", " + ", " - "]),
    st.sampled_from(["", "2*", "5*"]), _MONOMIAL).map(
        lambda t: "0" if t[0] == "0" else
        t[0] + t[1] + (t[2] + t[3] + t[4] if t[2] else ""))


@st.composite
def _small_modules(draw):
    """Rank 1 or 2, at most 3 columns, entries in (X, Y) of degree at
    most 2.  The options block bounds the colon chains, and its deadline
    the whole run: it is checked once per power computed and once per
    input or pair of each Groebner basis computation, inside a power
    too, so no power runs far past it.  The examples drawn are still a
    fixed set (derandomize) whose cost is measured."""
    rank = draw(st.integers(1, 2))
    width = draw(st.integers(1, 3))
    rows = [[draw(_LOW_DEGREE_ENTRY) for _ in range(width)]
            for _ in range(rank)]
    return (draw(st.sampled_from(["", "ring {\n  char = 32003\n}\n"]))
            + "matrix {\n"
            + "".join(f"  row = {', '.join(row)}\n" for row in rows)
            + "}\noptions {\n  lmax = 3\n  deadline = 5\n}\n")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(command=st.sampled_from(["rr", "br"]), bound=st.booleans(),
       text=_small_modules())
@example(command="rr", bound=True,
         text="matrix {\n  row = X^4, X^3*Y, X*Y^3, Y^4\n}\n")
def test_rr_and_br_exit_codes_hold_for_generated_modules(tmp_path_factory,
                                                         command, bound,
                                                         text):
    # bound: br fits its polynomial from n_max = 6, and rr runs with
    # --lmax 0, so a module whose chain changes at all exits 2, as the
    # explicit example does
    path = tmp_path_factory.mktemp("fuzz") / "generated.problem"
    path.write_text(text)
    argv = [command, str(path)]
    if bound:
        argv += ["--nmax", "6"] if command == "br" else ["--lmax", "0"]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        status = main(argv)
    assert status in (0, 2, 3, 4), (status, argv, text)
    if status == 4:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    elif status == 2 and not out.getvalue():
        assert err.getvalue().startswith("inconclusive: ")
    else:
        json.loads(out.getvalue())
