"""Command line front end: report schema, determinism, exit codes."""

import json

import pytest

from reescalc import (InputError, Polynomial, RingContext, SubmoduleData,
                      closures, parse_poly, poly, rees)
from reescalc.cli import main
from reescalc.poly import MAX_EXPONENT, MAX_POWER_BITS, MAX_POWER_TERMS

from test_acceptance import PROBLEMS

RR_PROBLEM = """\
ring {
  vars = X, Y
  char = 0
}
matrix {
  row = X^4, X^3*Y, X*Y^3, Y^4
}
"""

PARAM_PROBLEM = """\
matrix {
  row = X, Y, 0
  row = 0, X, Y
}
"""

INDEC_BLOCK_DIAGONAL = """\
matrix {
  row = X, Y, 0, 0, 0
  row = 0, 0, X^2, X*Y, Y^2
}
factors {
  ideal = X, Y
  ideal = X^2, X*Y, Y^2
}
"""

BINOMIAL = """\
matrix {
  row = X^2, X*Y+Y^2, Y^3, 0
  row = 0, X^2-Y^2, X*Y, Y^2
}
"""

THM12_SQUARE_SUM = """\
matrix {
  row = X^4, X^3*Y^2, X*Y^6, Y^8, 0, 0, 0, 0
  row = 0, 0, 0, 0, X^4, X^3*Y^2, X*Y^6, Y^8
}
"""


def _run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_rr_report_schema_and_content(tmp_path, capsys):
    path = _write(tmp_path, "rr.problem", RR_PROBLEM)
    status, out, err = _run(capsys, ["rr", path])
    assert status == 0
    report = json.loads(out)
    assert sorted(report) == ["certification", "command", "input_digest",
                              "options", "result", "timings", "warnings"]
    assert report["command"] == "rr"
    assert len(report["input_digest"]) == 64
    assert sorted(report["result"]["generators"]) == \
        ["X*Y^3", "X^2*Y^2", "X^3*Y", "X^4", "Y^4"]
    assert report["certification"]["certified"] is False
    assert report["result"]["method"] == "colon-chain"


def test_report_is_byte_stable(tmp_path, capsys):
    path = _write(tmp_path, "rr.problem", RR_PROBLEM)
    _, out1, _ = _run(capsys, ["rr", path])
    _, out2, _ = _run(capsys, ["rr", path])
    assert out1 == out2
    assert out1.endswith("\n")


def test_json_file_matches_stdout(tmp_path, capsys):
    path = _write(tmp_path, "rr.problem", RR_PROBLEM)
    json_path = tmp_path / "out.json"
    _, out, _ = _run(capsys, ["rr", path, "--json", str(json_path)])
    assert json_path.read_text() == out


def test_param_command(tmp_path, capsys):
    path = _write(tmp_path, "param.problem", PARAM_PROBLEM)
    status, out, err = _run(capsys, ["param", path])
    assert status == 0
    report = json.loads(out)
    assert report["result"]["verdict"] is True
    assert report["result"]["reasons"]["mu"] == 3


# I = (X, Y)*(X-1, Y-1)^2: colength 1 at the origin and 3 at (1, 1), two
# generators at the origin and three at (1, 1)
TWO_POINT = ("matrix {\n"
             "  row = X*(X-1)^2, X*(X-1)*(Y-1), X*(Y-1)^2, Y*(X-1)^2, "
             "Y*(X-1)*(Y-1), Y*(Y-1)^2\n"
             "}\n")


def test_param_flags_a_module_supported_away_from_the_origin(tmp_path,
                                                              capsys):
    # mu counts generators at the origin, the colength every point of the
    # support, so the verdict on I mixes the two readings: it is reported
    # uncertified, with a warning, and exits 2
    path = _write(tmp_path, "two-point.problem", TWO_POINT)
    status, out, _ = _run(capsys, ["param", path])
    report = json.loads(out)
    assert report["result"]["reasons"]["mu"] == 2
    assert report["result"]["reasons"]["colength"] == 4
    assert report["certification"] == {"certified": False}
    assert len(report["warnings"]) == 1
    assert "away from the origin" in report["warnings"][0]
    assert status == 2
    # the parameter module is supported at the origin alone
    path = _write(tmp_path, "param.problem", PARAM_PROBLEM)
    status, out, _ = _run(capsys, ["param", path])
    report = json.loads(out)
    assert (status, report["certification"], report["warnings"]) == \
        (0, {"certified": True}, [])


def test_fitting_command(tmp_path, capsys):
    path = _write(tmp_path, "param.problem", PARAM_PROBLEM)
    status, out, _ = _run(capsys, ["fitting", path])
    assert status == 0
    report = json.loads(out)
    assert "0" in report["result"]["fitting_ideals"]
    assert "1" in report["result"]["fitting_ideals"]


def test_a_byte_order_mark_is_read_past(tmp_path, capsys):
    # editors on Windows start UTF-8 files with one; the digest still
    # hashes the raw bytes
    plain = _write(tmp_path, "rr.problem", RR_PROBLEM)
    marked = tmp_path / "rr-bom.problem"
    marked.write_bytes(b"\xef\xbb\xbf" + RR_PROBLEM.encode())
    reports = []
    for path in (plain, str(marked)):
        status, out, err = _run(capsys, ["rr", path])
        assert status == 0, err
        reports.append(json.loads(out))
    assert reports[0].pop("input_digest") != reports[1].pop("input_digest")
    assert reports[0] == reports[1]


def test_malformed_file_exits_4(tmp_path, capsys):
    path = _write(tmp_path, "bad.problem", "matrix {\n  row = X +\n}\n")
    status, out, err = _run(capsys, ["rr", path])
    assert status == 4
    assert out == ""
    assert "error" in err


def test_missing_matrix_exits_4(tmp_path, capsys):
    path = _write(tmp_path, "bad.problem", "ring {\n  char = 0\n}\n")
    status, _, err = _run(capsys, ["rr", path])
    assert status == 4


def test_missing_file_exits_4(capsys):
    status, _, err = _run(capsys, ["rr", "/nonexistent/file.problem"])
    assert status == 4
    assert "error" in err


def test_inconclusive_indecomposability_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "indec.problem", INDEC_BLOCK_DIAGONAL)
    status, out, _ = _run(capsys, ["indec", path])
    assert status == 2
    report = json.loads(out)
    assert report["result"]["conclusion"] == "criterion inconclusive"


def test_inconclusive_thm12_window_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "thm12.problem", THM12_SQUARE_SUM)
    status, out, _ = _run(capsys, ["thm12", path, "--nmax", "1"])
    assert status == 2
    report = json.loads(out)
    assert report["certification"]["inconclusive"] is True
    assert report["warnings"]


def test_unstable_rr_chain_exits_2_with_its_colengths(tmp_path, capsys):
    path = _write(tmp_path, "rr.problem", RR_PROBLEM)
    status, out, err = _run(capsys, ["rr", path, "--lmax", "0"])
    assert status == 2
    assert out == ""
    assert err.startswith("inconclusive: ")
    assert "colengths 11, 10" in err


def test_br_checks_its_deadline_before_each_power(tmp_path, capsys):
    path = _write(tmp_path, "br.problem",
                  BINOMIAL + "options {\n  deadline = 1e-9\n}\n")
    status, out, err = _run(capsys, ["br", path])
    assert status == 2
    assert out == ""
    assert err.startswith("inconclusive: ")


@pytest.mark.parametrize("command", ["buchsbaum", "param"])
def test_expired_deadline_stops_a_command_without_a_chain(command, tmp_path,
                                                           capsys):
    # The whole command runs in the deadline's scope, so the powers that
    # buchsbaum builds on the mixed direct sum and the Groebner bases that
    # param computes on the parameter module check it too.
    path = _write(tmp_path, f"{command}.problem",
                  PROBLEMS[command] + "options {\n  deadline = 1e-9\n}\n")
    status, out, err = _run(capsys, [command, path])
    assert status == 2
    assert out == ""
    assert err.startswith("inconclusive: ")


def test_rr_chain_value_outside_the_closure_exits_3(tmp_path, capsys,
                                                    monkeypatch):
    # a colon that returns the whole free piece: the value contains M, but
    # fails W*M^(k*) in M^(1+k*)
    def free_piece(E, W, G, low, ambient, **kwargs):
        return SubmoduleData.free(E.ctx, rees.piece_rank(E.rank, ambient))

    monkeypatch.setattr(closures, "piece_colon", free_piece)
    path = _write(tmp_path, "rr.problem", BINOMIAL)
    status, out, err = _run(capsys, ["rr", path])
    assert status == 3
    assert out == ""
    assert err.startswith("SOUNDNESS ALERT: ")
    assert "defining colon" in err


def test_indec_with_a_zero_factor_exits_4(tmp_path, capsys):
    path = _write(tmp_path, "indec.problem",
                  "matrix {\n  row = X, Y\n  row = 0, 0\n}\n"
                  "factors {\n  ideal = 0\n}\n")
    status, out, err = _run(capsys, ["indec", path])
    assert status == 4
    assert out == ""
    assert err.startswith("error: ")


def test_prime_field_warning(tmp_path, capsys):
    path = _write(tmp_path, "rr.problem", RR_PROBLEM)
    status, out, _ = _run(capsys, ["rr", path, "--char", "32003"])
    assert status == 0
    report = json.loads(out)
    assert report["options"]["char"] == 32003
    assert any("infinite-field" in w for w in report["warnings"])


def test_prime_field_warning_follows_the_ring_not_the_flag(tmp_path,
                                                           capsys):
    # a file that sets the prime itself warns; --char 0 overrides it and
    # the warning goes with the prime field
    path = _write(tmp_path, "rr.problem",
                  RR_PROBLEM.replace("char = 0", "char = 32003"))
    for flags, char in (((), 32003), (("--char", "0"), 0)):
        status, out, _ = _run(capsys, ["rr", path, *flags])
        assert status == 0
        report = json.loads(out)
        assert report["options"]["char"] == char
        assert any("infinite-field" in w
                   for w in report["warnings"]) == bool(char)


def test_iclose_candidate_warning_for_uncertified(tmp_path, capsys):
    problem = """\
matrix {
  row = X^3, X^2*Y^2, X*Y^3, Y^5, 0, 0, 0
  row = 0, 0, X^3, 0, X^2*Y^2, X*Y^4, Y^5
}
candidates {
  col = X*Y^4, 0
}
"""
    path = _write(tmp_path, "iclose.problem", problem)
    status, out, _ = _run(capsys, ["iclose", path])
    assert status == 0
    report = json.loads(out)
    assert report["certification"]["certified"] is False
    assert any("candidate-verified" in w for w in report["warnings"])


@pytest.mark.parametrize("text", [
    RR_PROBLEM + "scale {\n  ideal = X, Y\n}\n",
    RR_PROBLEM + "options {\n  index = 1\n}\n",
    RR_PROBLEM.replace("char = 0", "char = abc"),
    RR_PROBLEM + "options {\n  lmax = ten\n}\n",
    RR_PROBLEM + "options {\n  deadline = soon\n}\n",
    RR_PROBLEM + "options {\n  window = 0\n}\n",
    RR_PROBLEM + "options {\n  deadline = 0\n}\n",
    RR_PROBLEM.replace("char = 0", "char = 4295229443"),
], ids=["scale-block", "index-option", "char-abc", "lmax-ten",
        "deadline-soon", "window-0", "deadline-0", "char-composite"])
def test_bad_problem_file_exits_4(tmp_path, capsys, text):
    path = _write(tmp_path, "bad.problem", text)
    status, out, err = _run(capsys, ["rr", path])
    assert status == 4
    assert out == ""
    assert err.startswith("error: ")


def test_exponent_above_cap_exits_4_unexpanded(tmp_path, capsys,
                                               monkeypatch):
    # (X+Y)^1600 took 8 s to expand; the cap refuses the exponent before
    # any power is taken, and the spy fails at once if one is taken.
    real = Polynomial.__pow__

    def bounded_pow(p, n):
        assert n <= MAX_EXPONENT, f"expanded a power {n}"
        return real(p, n)

    monkeypatch.setattr(Polynomial, "__pow__", bounded_pow)
    path = _write(tmp_path, "big.problem",
                  "matrix {\n  row = X^2, (X+Y)^100000\n}\n")
    status, out, err = _run(capsys, ["rr", path])
    assert status == 4
    assert out == ""
    assert err.startswith("error: exponent 100000 exceeds 200")
    ctx = RingContext(characteristic=0, base_vars=("X", "Y"))
    assert MAX_EXPONENT == 200
    assert parse_poly("X^200", ctx) == Polynomial.monomial(ctx, (200, 0))


def test_nested_power_above_cap_exits_4_unexpanded(tmp_path, capsys,
                                                   monkeypatch):
    # Every exponent of ((X+Y)^100)^4 is within the cap, but the outer
    # power has degree 400 and expanded 401 terms; the spy fails at once
    # if a power of degree above the cap is taken.
    real = Polynomial.__pow__

    def bounded_pow(p, n):
        assert p.total_degree() * n <= MAX_EXPONENT, \
            f"expanded a power of degree {p.total_degree() * n}"
        return real(p, n)

    monkeypatch.setattr(Polynomial, "__pow__", bounded_pow)
    ctx = RingContext(characteristic=0, base_vars=("X", "Y"))
    for text in ("((X+Y)^100)^4", "(((X+Y)^2)^10)^11", "(X*Y^100)^2"):
        with pytest.raises(InputError, match="power of degree"):
            parse_poly(text, ctx)
    path = _write(tmp_path, "nested.problem",
                  "matrix {\n  row = X^2, ((X+Y)^100)^4\n}\n")
    status, out, err = _run(capsys, ["rr", path])
    assert status == 4
    assert out == ""
    assert err.startswith("error: power of degree 400 exceeds 200")
    # the cap itself is allowed, and constants have degree 0
    assert len(parse_poly("((X+Y)^100)^2", ctx).terms) == 201
    assert parse_poly("(2^100)^2", ctx) == Polynomial.constant(ctx, 4**100)


def test_power_above_term_cap_exits_4_unexpanded(tmp_path, capsys,
                                                 monkeypatch):
    # (X+Y+1)^200 is within the degree and bit caps, but it expands to
    # 20301 terms and ran for more than 300 s.  Apart from powers of
    # single terms, these inputs hold no power small enough to take, so
    # the spy fails at any other.
    real = Polynomial.__pow__

    def no_pow(p, n):
        assert len(p.terms) == 1, f"expanded a {len(p.terms)}-term base"
        return real(p, n)

    ctx = RingContext(characteristic=0, base_vars=("X", "Y"))
    with monkeypatch.context() as m:
        m.setattr(Polynomial, "__pow__", no_pow)
        # the first two are refused by the count of monomials by degree,
        # the last by the count of multisets of its terms
        for text in ("(X+Y+1)^200", "(X^2+X*Y+Y^2+X+Y+1)^40",
                     "(X^3+Y^3+1)^66"):
            with pytest.raises(InputError, match="terms exceeds"):
                parse_poly(text, ctx)
        path = _write(tmp_path, "terms.problem",
                      "matrix {\n  row = X, Y, (X+Y+1)^200\n}\n")
        status, out, err = _run(capsys, ["param", path])
    assert status == 4
    assert out == ""
    assert err.startswith(f"error: power of up to 20301 terms exceeds "
                          f"{MAX_POWER_TERMS}")
    # the smaller bound counts: two of the 101 terms of (X+Y)^100 make
    # 5151 multisets, but only the 201 monomials of degree 200
    assert len(parse_poly("((X+Y)^100)^2", ctx).terms) == 201
    assert len(parse_poly("(X+Y+1)^40", ctx).terms) == 861


def test_constant_power_above_bit_cap_exits_4_unexpanded(tmp_path, capsys,
                                                        monkeypatch):
    # A constant has degree 0, so neither cap above bounds
    # ((7^200)^200)^40 = 7^1600000, which took 0.6-1.1 s to expand, and
    # each further nesting multiplies its digits by up to 200; the spy
    # fails at once if a power whose coefficient bits (largest coefficient
    # times exponent) exceed the cap is taken.
    real = Polynomial.__pow__

    def bounded_pow(p, n):
        bits = n * max((abs(c.numerator).bit_length()
                        for c in p.terms.values()), default=0)
        assert bits <= MAX_POWER_BITS, f"expanded a power of {bits} bits"
        return real(p, n)

    monkeypatch.setattr(Polynomial, "__pow__", bounded_pow)
    ctx = RingContext(characteristic=0, base_vars=("X", "Y"))
    for text in ("((7^200)^200)^40", "(7^200)^200", "(2^100*X+Y)^200"):
        with pytest.raises(InputError, match="coefficient bits"):
            parse_poly(text, ctx)
    path = _write(tmp_path, "constant.problem",
                  "matrix {\n  row = X, Y, ((7^200)^200)^40\n}\n")
    status, out, err = _run(capsys, ["param", path])
    assert status == 4
    assert out == ""
    assert err.startswith("error: power of 112400 coefficient bits exceeds "
                          "16384")
    # the cap itself is allowed, and over GF(p) coefficients stay residues
    assert MAX_POWER_BITS == 16384
    assert parse_poly("(2^127)^128", ctx) == \
        Polynomial.constant(ctx, 2 ** (127 * 128))
    gfp = RingContext(characteristic=32003, base_vars=("X", "Y"))
    assert parse_poly("((7^200)^200)^40", gfp) == \
        Polynomial.constant(gfp, pow(7, 1600000, 32003))


def test_powers_of_one_file_share_one_term_budget(tmp_path, capsys,
                                                  monkeypatch):
    # Each (X+Y+1)^61 (up to 1953 terms, 1.35 s to expand) is within the
    # caps of one power, but a row of six ran `fitting` for 12.6 s.  The
    # powers of one file, and of one expression, spend one budget of term
    # bounds; the power that would exceed it is refused unexpanded.  The
    # spy records the powers taken and leaves them unexpanded.
    taken = []

    def spy(p, n):
        taken.append(n)
        return p

    monkeypatch.setattr(Polynomial, "__pow__", spy)
    big = "(X+Y+1)^61"
    path = _write(tmp_path, "budget.problem",
                  f"matrix {{\n  row = {big}, X\n  row = {big}, {big}\n}}\n")
    status, out, err = _run(capsys, ["param", path])
    assert status == 4
    assert out == ""
    assert err.startswith(f"error: powers of up to {3 * 1953} terms in all "
                          f"exceed {poly.MAX_TOTAL_POWER_TERMS}")
    assert taken == [61, 61]
    ctx = RingContext(characteristic=0, base_vars=("X", "Y"))
    with pytest.raises(InputError, match="terms in all exceed"):
        parse_poly(" + ".join([big] * 3), ctx)
    # the budget itself is allowed, and powers of one term spend none of it
    assert 2 * 1953 <= poly.MAX_TOTAL_POWER_TERMS < 3 * 1953
    parse_poly(" + ".join([big] * 2 + ["X^200"] * 100), ctx)


def test_deep_parentheses_exit_4(tmp_path, capsys):
    # 260 nested parentheses overflowed the recursive-descent parser, and
    # every command exited 1 with a RecursionError traceback.
    deep = "(" * 300 + "X" + ")" * 300
    path = _write(tmp_path, "deep.problem",
                  f"matrix {{\n  row = {deep}, Y\n}}\n")
    status, out, err = _run(capsys, ["param", path])
    assert status == 4
    assert out == ""
    assert err.startswith(f"error: parentheses nested deeper than "
                          f"{poly.MAX_NESTING}")
    ctx = RingContext(characteristic=0, base_vars=("X", "Y"))
    depth = poly.MAX_NESTING
    assert parse_poly("(" * depth + "X" + ")" * depth, ctx) == \
        Polynomial.variable(ctx, "X")


def test_non_utf8_file_exits_4(tmp_path, capsys):
    path = tmp_path / "bad.problem"
    path.write_bytes(RR_PROBLEM.encode().replace(b"X^4,", b"X^4\xff,"))
    status, out, err = _run(capsys, ["rr", str(path)])
    assert status == 4
    assert out == ""
    assert "UTF-8" in err


@pytest.mark.parametrize("flags", [["--window", "-3"], ["--lmax", "-1"],
                                   ["--char", "4295229443"],
                                   ["--lmax", "abc"], ["--nmax", "1.5"],
                                   ["--bogus"]])
def test_bad_flag_exits_4(tmp_path, capsys, flags):
    path = _write(tmp_path, "rr.problem", RR_PROBLEM)
    status, out, err = _run(capsys, ["rr", path] + flags)
    assert status == 4
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [["bogus"], []])
def test_unknown_or_missing_command_exits_4(capsys, argv):
    # argparse alone would print its usage and exit 2, which reads as
    # an inconclusive run
    status, out, err = _run(capsys, argv)
    assert status == 4
    assert out == ""
    assert err.startswith("error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: reescalc" in capsys.readouterr().out


@pytest.mark.parametrize("p", [32003, 2147483647])
def test_prime_characteristic_accepted(tmp_path, capsys, p):
    path = _write(tmp_path, "rr.problem", RR_PROBLEM)
    status, out, _ = _run(capsys, ["rr", path, "--char", str(p)])
    assert status == 0
    assert json.loads(out)["options"]["char"] == p


@pytest.mark.parametrize("nmax", ["0", "-2"])
def test_thm12_nmax_below_one_exits_4(tmp_path, capsys, nmax):
    path = _write(tmp_path, "thm12.problem", THM12_SQUARE_SUM)
    status, out, err = _run(capsys, ["thm12", path, "--nmax", nmax])
    assert status == 4
    assert out == ""
    assert err.startswith("error: ")
    assert "n_max" in err


def test_unwritable_json_path_exits_4(tmp_path, capsys):
    path = _write(tmp_path, "rr.problem", RR_PROBLEM)
    json_path = tmp_path / "missing" / "out.json"
    status, out, err = _run(capsys, ["rr", path, "--json", str(json_path)])
    assert status == 4
    assert out == ""
    assert err.startswith("error: ")
    assert not json_path.exists()


@pytest.mark.parametrize("command", ["rr", "iclose", "br", "thm12",
                                     "buchsbaum", "fitting", "param",
                                     "indec"])
@pytest.mark.parametrize("ring", [
    ("X, Y, Z", "X^2, Y^3, Z^2, X*Y"),
    ("X", "X^2, X^3"),
], ids=["three-vars", "one-var"])
def test_every_command_outside_two_variables_exits_4(tmp_path, capsys,
                                                      command, ring):
    # the ring is refused once, when the problem file builds its context
    variables, row = ring
    text = f"ring {{\n  vars = {variables}\n}}\nmatrix {{\n  row = {row}\n}}\n"
    path = _write(tmp_path, "ring.problem", text)
    status, out, err = _run(capsys, [command, path])
    assert status == 4
    assert out == ""
    assert err.startswith("error: ")
    assert "two base variables" in err

