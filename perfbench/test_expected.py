"""Independent checks of the benchmark's hand-written expected values.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_expected.py

The lengths of F^n/M^n are computed here with the dense linear-algebra
oracle of the test suite (tests/oracles.py), on polynomials built by this
file's own arithmetic, so the code under test is not the source of the
values the benchmark expects.  The oracle counts standard monomials up to
a degree cap; each value is taken at two caps, which must agree.
"""

from __future__ import annotations

import itertools
import json
import sys
from math import comb, prod
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests")]

import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

oracles = pytest.importorskip("oracles")

PLANE = SimpleNamespace(nvars=2)


class Poly:
    """Sparse integer polynomial in X, Y: just enough for the oracle."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def of(cls, value):
        return value if isinstance(value, Poly) else cls({(0, 0): value})

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max(sum(e) for e in self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in Poly.of(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return Poly.of(other) - self

    def __mul__(self, other):
        out = {}
        for (a, b), c in self.terms.items():
            for (a2, b2), c2 in Poly.of(other).terms.items():
                key = (a + a2, b + b2)
                out[key] = out.get(key, 0) + c * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return prod([self] * n, start=Poly.of(1))


def entry(text):
    """An entry of the benchmark's own problem tables, e.g. (X+2*Y)^2."""
    return Poly.of(eval(text.replace("^", "**"),  # noqa: S307
                        {"X": Poly({(1, 0): 1}), "Y": Poly({(0, 1): 1})}))


def columns(rows):
    return [tuple(entry(row[j]) for row in rows) for j in range(len(rows[0]))]


def power_generators(cols, n):
    """Generators of M^n in the rank-(n+1) free module Sym^n(A^2): the
    t-coefficients of each product of n columns a*t1 + b*t2."""
    out = []
    for combo in itertools.combinations_with_replacement(cols, n):
        vec = [Poly.of(1)]
        for a, b in combo:
            nxt = [Poly.of(0)] * (len(vec) + 1)
            for k, p in enumerate(vec):
                nxt[k] = nxt[k] + p * a
                nxt[k + 1] = nxt[k + 1] + p * b
            vec = nxt
        out.append(tuple(vec))
    return out


def colength(gens, rank, cap):
    value = oracles.colength_oracle(gens, PLANE, rank, cap)
    assert oracles.colength_oracle(gens, PLANE, rank, cap + 1) == value
    return value


def br_polynomial(coefficients, rank, n):
    dr = 2 + rank
    return sum((-1) ** i * c * comb(n + dr - i - 1, dr - 1 - i)
               for i, c in enumerate(coefficients))


def test_binomial_lengths_fit_12_6_4_1():
    cols = columns(jobs.BINOMIAL)
    for n, want in enumerate(jobs.BINOMIAL_LENGTHS):
        assert colength(power_generators(cols, n + 1), n + 2,
                        2 * n + 7) == want
        assert br_polynomial((12, 6, 4, 1), 2, n) == want


def test_binomial_mu_is_4():
    cols = columns(jobs.BINOMIAL)
    x, y = entry("X"), entry("Y")
    m_cols = [tuple(v * p for p in c) for c in cols for v in (x, y)]
    assert colength(cols, 2, 6) == 9
    assert colength(m_cols, 2, 7) - 9 == 4


@pytest.mark.parametrize("c", jobs.COORDINATE_SHIFTS)
def test_shifted_inputs_keep_their_lengths(c):
    binomial = columns(jobs.shift_x(jobs.BINOMIAL, c))
    for n in range(2):
        assert colength(power_generators(binomial, n + 1), n + 2,
                        2 * n + 7) == jobs.BINOMIAL_LENGTHS[n]
    parameter = columns(jobs.shift_x(jobs.PARAMETER, c))
    for n in range(3):
        assert colength(power_generators(parameter, n + 1), n + 2,
                        n + 3) == jobs.parameter_lengths(n)
    assert colength(parameter, 2, 3) == 3
    rr = [col[0] for col in columns(jobs.shift_x(jobs.RR_IDEAL, c))]
    for n in range(3):
        power = [(g,) for g in _ideal_power(rr, n + 1)]
        assert colength(power, 1, 4 * n + 6) == jobs.rr_lengths(n)


def _ideal_power(gens, n):
    return [prod(combo, start=Poly.of(1))
            for combo in itertools.combinations_with_replacement(gens, n)]


def test_parameter_and_rr_polynomials():
    for n in range(6):
        assert br_polynomial((3, 0, 0, 0), 2, n) == jobs.parameter_lengths(n)
    for n in range(1, 8):
        assert br_polynomial((16, 6, 0), 1, n) == jobs.rr_lengths(n)


def test_wrong_answer_with_exit_0_fails():
    job = jobs.Job("br", ["br"],
                   expect={"result.coefficients": [12, 6, 4, 1]})
    good = json.dumps({"result": {"coefficients": [12, 6, 4, 1]}})
    bad = json.dumps({"result": {"coefficients": [12, 6, 4, 2]}})
    assert job.check(0, good.encode()) is None
    assert job.check(0, bad.encode()) is not None
    assert job.check(2, good.encode()) is not None


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    names = list(layers.METRICS) + ["trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {n: run.layer_unit(n) for n in names}
