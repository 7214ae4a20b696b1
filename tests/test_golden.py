"""Byte-for-byte report stability across code changes.

The JSON reports of the CLI for the acceptance problems, for `fixtures`
and for `br` on two non-monomial inputs (which run the general Buchberger
path) must equal the reports checked in under tests/golden/.
Refactors keep every report byte; a change that means to alter a report
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which bytes changed and why.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from reescalc.cli import main as cli_main

from test_acceptance import PROBLEMS

GOLDEN = Path(__file__).parent / "golden"

# name -> (command, problem text, extra arguments); the acceptance
# problems run the command they are named after.
CASES = {name: (name, text, ()) for name, text in PROBLEMS.items()}
CASES["br-binomial"] = ("br", "matrix {\n"
                        "  row = X^2, X*Y+Y^2, Y^3, 0\n"
                        "  row = 0, X^2-Y^2, X*Y, Y^2\n}\n",
                        ("--nmax", "6"))
CASES["br-shifted"] = ("br", "matrix {\n"
                       "  row = (X+2*Y)^4, (X+2*Y)^3*Y, (X+2*Y)*Y^3, Y^4\n"
                       "}\n", ())
# non-unit lead coefficients: over QQ most normal forms of this job scale
# the terms left to reduce (pseudo-reduction)
CASES["br-nonunit"] = ("br", "matrix {\n"
                       "  row = 3*X^2+2*Y^2, 7*X*Y+Y^2, 5*Y^3, 0\n"
                       "  row = 0, 6*X^2-11*Y^2, 5*X*Y, 9*Y^2\n}\n",
                       ("--nmax", "6"))
# the binomial module under X -> X+2Y, whose S-vectors have many terms,
# and the unshifted one over GF(32003)
CASES["br-binomial-shifted"] = ("br", "matrix {\n"
                                "  row = (X+2*Y)^2, (X+2*Y)*Y+Y^2, Y^3, 0\n"
                                "  row = 0, (X+2*Y)^2-Y^2, (X+2*Y)*Y, Y^2\n"
                                "}\n", ("--nmax", "6"))
CASES["br-binomial-gfp"] = ("br", CASES["br-binomial"][1],
                            ("--nmax", "6", "--char", "32003"))
# the colon chain of a non-monomial module, and the candidate check of a
# presentation: both run the linear-algebra piece colon
CASES["rr-binomial"] = ("rr", CASES["br-binomial"][1], ())
CASES["iclose-presentation"] = (
    "iclose", "matrix {\n"
    "  row = X^3, X^2*Y^2, X*Y^3, Y^5, 0, 0, 0\n"
    "  row = 0, 0, X^3, 0, X^2*Y^2, X*Y^4, Y^5\n}\n"
    "candidates {\n  col = X*Y^4, 0\n}\n"
    "factors {\n  ideal = X, Y^2\n"
    "  ideal = X^5, X^4*Y^2, X^3*Y^4, X^2*Y^5, X*Y^7, Y^8\n}\n", ())
# a module whose chain, on the syzygy route, would intersect two pieces
# that are not nested; it runs the linear-algebra piece colon, over QQ
# and over GF(32003)
CASES["rr-crossing"] = ("rr", "matrix {\n"
                        "  row = Y^2+3*X^2, X^3+3*X*Y^2, X*Y^2-2*X*Y, "
                        "X*Y-3*X^2*Y\n"
                        "  row = X^2*Y-3*X^3, X^3-2*Y^2, Y^2-2*X*Y^2, "
                        "Y^3+2*X*Y^2\n}\n", ())
CASES["rr-crossing-gfp"] = ("rr", CASES["rr-crossing"][1],
                            ("--char", "32003"))
# the theorem check on the presentation and its candidate under X -> X+Y:
# the chains at n = 1 and 2 of a module with no monomial basis
CASES["thm12-presentation-shifted"] = (
    "thm12", "matrix {\n"
    "  row = (X+Y)^3, (X+Y)^2*Y^2, (X+Y)*Y^3, Y^5, 0, 0, 0\n"
    "  row = 0, 0, (X+Y)^3, 0, (X+Y)^2*Y^2, (X+Y)*Y^4, Y^5\n}\n"
    "candidates {\n  col = (X+Y)*Y^4, 0\n}\n", ("--nmax", "2"))
# a module of infinite colength: its chain takes the preimage and
# intersection route
CASES["rr-infinite"] = ("rr", "matrix {\n"
                        "  row = X^2+X*Y, X*Y^2, 0\n"
                        "  row = Y^2, X*Y, X^2-Y^2\n}\n", ())
# the fitting ideals of the presentation, and the theorem check on the
# monomial acceptance problem, which takes the Newton route
CASES["fitting-presentation"] = ("fitting", PROBLEMS["indec"], ())
CASES["thm12-rr"] = ("thm12", PROBLEMS["rr"], ())
NAMES = sorted(CASES) + ["fixtures"]


def _report(name, workdir):
    if name == "fixtures":
        argv = ["fixtures"]
    else:
        command, text, extra = CASES[name]
        path = Path(workdir) / f"{name}.problem"
        path.write_text(text)
        argv = [command, str(path), *extra]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli_main(argv)
    assert status == 0, (name, status)
    return out.getvalue()


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name, tmp_path):
    want = (GOLDEN / f"{name}.json").read_text()
    assert _report(name, tmp_path) == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as workdir:
        for name in NAMES:
            (GOLDEN / f"{name}.json").write_text(_report(name, workdir))
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
