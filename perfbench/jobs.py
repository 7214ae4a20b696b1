"""Seeded job lists of the three workloads, with hand-written answers.

A job is one `reescalc` CLI call on a generated problem file.  The seed
picks the coefficient of each linear change of coordinates X -> X + c*Y
(c in COORDINATE_SHIFTS) and the order of the jobs; everything else is
fixed.  Expected values come from the built-in fixtures, the README, the
acceptance tests and the roadmap, or are derived by hand in the comments
below; none was recorded by running the code under test.  Jobs on
transformed inputs check only what a change of coordinates cannot alter:
exit codes, verdicts, colengths, mu, length-polynomial coefficients and
lengths, and the ideal m^4, whose reduced basis is every degree-4
monomial in any coordinates.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

WORKLOADS = ("fixtures", "br-nonmono", "cli-decide")

# Power up to which `br` measures lengths on the non-monomial modules.
# Rank 2 needs at least 6; every power costs about 2.3 times the last.
BR_NMAX = 6
PRIME = 32003
COORDINATE_SHIFTS = (-2, -1, 1, 2)

BINOMIAL = (("X^2", "X*Y+Y^2", "Y^3", "0"),
            ("0", "X^2-Y^2", "X*Y", "Y^2"))
PARAMETER = (("X", "Y", "0"), ("0", "X", "Y"))
RR_IDEAL = (("X^4", "X^3*Y", "X*Y^3", "Y^4"),)
MIXED_SUM = (("X^6", "X^5*Y^2", "X^4*Y^3", "X^3*Y^4", "X*Y^7", "Y^8",
              "0", "0", "0", "0", "0"),
             ("0", "0", "0", "0", "0", "0",
              "X^5", "X^4*Y^2", "X^3*Y^3", "X*Y^6", "Y^7"))
PRESENTATION = (("X^3", "X^2*Y^2", "X*Y^3", "Y^5", "0", "0", "0"),
                ("0", "0", "X^3", "0", "X^2*Y^2", "X*Y^4", "Y^5"))
PRESENTATION_CANDIDATE = ("X*Y^4", "0")
# (X, Y^2) and the integral closure of (X^5, Y^8): the lattice points on
# or above the segment from (5, 0) to (0, 8).
PRESENTATION_FACTORS = (("X", "Y^2"),
                        ("X^5", "X^4*Y^2", "X^3*Y^4", "X^2*Y^5", "X*Y^7",
                         "Y^8"))
MALFORMED = "matrix {\n  row = X^2, Y\n  row = X\n"

M4 = ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4")
# Fitting ideal 0 of the presentation: (X, Y^2) times the closure of
# (X^5, Y^8), minimalized by hand.
PRESENTATION_FITT0 = ("X^6", "X^5*Y^2", "X^4*Y^4", "X^3*Y^5", "X^2*Y^7",
                      "X*Y^8", "Y^10")
PRESENTATION_FITT1 = ("X^3", "X^2*Y^2", "X*Y^3", "Y^5")
# The 2x2 minors of the binomial module reduce to every degree-4 monomial,
# and its entries generate m^2.
BINOMIAL_FITT1 = ("X^2", "X*Y", "Y^2")


def rr_lengths(n):
    """Length of A/I^(n+1) for I = (X^4, X^3*Y, X*Y^3, Y^4): I misses
    only X^2*Y^2 from m^4, and I^2 = m^8, so I^k = m^(4k) for k >= 2."""
    return 11 if n == 0 else comb(4 * n + 5, 2)


def parameter_lengths(n):
    """br (3, 0, 0, 0): the length polynomial is 3 * C(n + 3, 3)."""
    return 3 * comb(n + 3, 3)


# Lengths of F^(n+1)/M^(n+1) for the binomial module: 12*C(n+3,3) -
# 6*C(n+2,2) + 4*C(n+1,1) - 1 at n = 0..3; perfbench/test_expected.py
# confirms them with the dense oracle.
BINOMIAL_LENGTHS = (9, 37, 95, 195)


class Rule:
    """An expected value that is a property rather than a constant."""

    def __init__(self, text, test):
        self.text = text
        self.test = test

    def matches(self, got):
        try:
            return bool(self.test(got))
        except (TypeError, KeyError, AttributeError):
            return False

    def __repr__(self):
        return self.text


def unordered(items):
    """A generator list, compared without regard to order."""
    return Rule(f"{sorted(items)} in any order",
                lambda got: sorted(got) == sorted(items))


def lengths_by(rule):
    return Rule(f"lengths following {rule.__name__}",
                lambda got: len(got) > 3
                and all(v == rule(n) for n, v in enumerate(got)))


def lengths_from(prefix):
    return Rule(f"lengths starting {list(prefix)}",
                lambda got: list(got[:len(prefix)]) == list(prefix))


def list_of(n):
    return Rule(f"a list of {n}", lambda got: len(got) == n)


@dataclass
class Job:
    """One CLI call: its arguments after `reescalc`, the exit code it must
    return and the report values it must contain, keyed by dotted path."""

    name: str
    argv: list
    exit_code: int = 0
    expect: dict = field(default_factory=dict)
    problem: Path = None

    def check(self, status, stdout):
        """None if the call gave the expected answer, else the reason."""
        if status != self.exit_code:
            return f"exit {status}, expected {self.exit_code}"
        if not self.expect:
            return None
        try:
            report = json.loads(stdout)
        except ValueError:
            return "report is not JSON"
        for path, want in self.expect.items():
            got = report
            for key in path.split("."):
                got = got.get(key) if isinstance(got, dict) else None
            ok = want.matches(got) if isinstance(want, Rule) else got == want
            if not ok:
                return f"{path} = {got!r}, expected {want!r}"
        return None


def shift_x(rows, c):
    """Substitute X -> X + c*Y in every entry."""
    sub = f"(X+{c}*Y)" if c > 0 else f"(X-{-c}*Y)"
    return tuple(tuple(re.sub(r"\bX\b", sub, e) for e in row) for row in rows)


def problem_text(rows, candidates=(), factors=()):
    lines = ["matrix {"] + [f"  row = {', '.join(r)}" for r in rows] + ["}"]
    if candidates:
        lines += ["candidates {", f"  col = {', '.join(candidates)}", "}"]
    if factors:
        lines += (["factors {"] + [f"  ideal = {', '.join(f)}"
                                   for f in factors] + ["}"])
    return "\n".join(lines) + "\n"


def build(workload, seed, directory):
    """Write the workload's problem files into directory and return its
    jobs in the seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def problem(name, text):
        path = directory / f"{name}.problem"
        path.write_text(text)
        return path

    def job(name, command, path, *extra, **kw):
        return Job(name, [command, str(path), *extra], problem=path, **kw)

    if workload == "fixtures":
        # fixtures.run_all reports all_ok and one row per check, 14 rows.
        all_ok = Rule("14 rows, all ok", lambda rows: len(rows) == 14
                      and all(r["ok"] is True for r in rows))
        return [Job("fixtures", ["fixtures"],
                    expect={"result.all_ok": True, "result.checks": all_ok})]

    if workload == "br-nonmono":
        c_binomial = rng.choice(COORDINATE_SHIFTS)
        c_parameter = rng.choice(COORDINATE_SHIFTS)
        binomial = problem("binomial", problem_text(BINOMIAL))
        binomial_t = problem("binomial-shifted",
                             problem_text(shift_x(BINOMIAL, c_binomial)))
        parameter_t = problem("parameter-shifted",
                              problem_text(shift_x(PARAMETER, c_parameter)))
        nmax = ("--nmax", str(BR_NMAX))
        binomial_br = {"result.coefficients": [12, 6, 4, 1],
                       "result.lengths": lengths_from(BINOMIAL_LENGTHS)}
        jobs = [
            job("br:binomial", "br", binomial, *nmax, expect=binomial_br),
            job("br:binomial-gfp", "br", binomial, *nmax,
                "--char", str(PRIME), expect=binomial_br),
            job("br:binomial-shifted", "br", binomial_t, *nmax,
                expect=binomial_br),
            job("br:parameter-shifted", "br", parameter_t, *nmax, expect={
                "result.coefficients": [3, 0, 0, 0],
                "result.lengths": lengths_by(parameter_lengths)}),
        ]
    elif workload == "cli-decide":
        rr = problem("rr", problem_text(RR_IDEAL))
        param = problem("param", problem_text(PARAMETER))
        buchsbaum = problem("buchsbaum", problem_text(MIXED_SUM))
        indec = problem("indec", problem_text(
            PRESENTATION, candidates=PRESENTATION_CANDIDATE,
            factors=PRESENTATION_FACTORS))
        binomial = problem("binomial", problem_text(BINOMIAL))
        rr_t = problem("rr-shifted", problem_text(
            shift_x(RR_IDEAL, rng.choice(COORDINATE_SHIFTS))))
        param_t = problem("param-shifted", problem_text(
            shift_x(PARAMETER, rng.choice(COORDINATE_SHIFTS))))
        malformed = problem("malformed", MALFORMED)
        m4 = {"result.generators": unordered(M4)}
        rr_br = {"result.coefficients": [16, 6, 0],
                 "result.lengths": lengths_by(rr_lengths)}
        parameter = {"result.verdict": True, "result.reasons.colength": 3,
                     "result.reasons.mu": 3}
        jobs = [
            job("rr:rr", "rr", rr, expect=m4),
            job("param:param", "param", param, expect=parameter),
            job("buchsbaum:mixed-sum", "buchsbaum", buchsbaum, expect={
                "result.verdict": True, "result.m_closure_inside": True,
                "result.product_equality": True,
                "result.tail_closed": {"2": True, "3": True, "4": True}}),
            job("indec:presentation", "indec", indec, expect={
                "result.verdict": True,
                "result.conclusion": "indecomposable (certified)"}),
            # m^4 is integrally closed and contains I, and RR(I) = m^4.
            job("iclose:rr", "iclose", rr, expect=m4),
            job("br:rr", "br", rr, expect=rr_br),
            # I is not integrally closed, I^2 = m^8 is; the table holds the
            # colengths of I^n for n = 1..4 and one-monomial gaps at n = 1.
            job("thm12:rr", "thm12", rr, expect={
                "result.verdicts.closures_agree": True,
                "result.verdicts.consistent": True,
                "result.verdicts.first_integrally_closed_power": 2,
                "result.table": Rule(
                    "colengths 11, 36, 78, 136 and gaps 1, 0, 0, 0",
                    lambda rows: [(r["colength"], r["rr_gap"], r["ic_gap"])
                                  for r in rows] == [(11, 1, 1), (36, 0, 0),
                                                     (78, 0, 0),
                                                     (136, 0, 0)])}),
            job("fitting:presentation", "fitting", indec, expect={
                "result.fitting_ideals.0": unordered(PRESENTATION_FITT0),
                "result.fitting_ideals.1": unordered(PRESENTATION_FITT1)}),
            # The candidate column is integral: one witness, and M is a
            # reduction of M + candidate.
            job("iclose:presentation", "iclose", indec, expect={
                "result.method": "candidate-verified",
                "result.candidate_witnesses": list_of(1),
                "result.input_is_reduction": True}),
            # No hand-derived value exists for this closure: only the exit
            # code and the kind of result are checked.
            job("rr:binomial", "rr", binomial, expect={
                "result.method": "colon-chain"}),
            job("param:binomial", "param", binomial, expect={
                "result.verdict": False, "result.reasons.colength": 9,
                "result.reasons.mu": 4}),
            job("fitting:binomial", "fitting", binomial, expect={
                "result.fitting_ideals.0": unordered(M4),
                "result.fitting_ideals.1": unordered(BINOMIAL_FITT1)}),
            job("rr:rr-shifted", "rr", rr_t, expect=m4),
            job("br:rr-shifted", "br", rr_t, expect=rr_br),
            job("param:param-shifted", "param", param_t, expect=parameter),
            job("rr:malformed", "rr", malformed, exit_code=4),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs

