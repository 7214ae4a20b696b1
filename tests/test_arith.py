"""Arithmetic layer: exact coefficients, ring axioms, parse/print."""

import random
from fractions import Fraction

import pytest

from reescalc import (InputError, ParseError, Polynomial, RingContext,
                      SubmoduleData, groebner_basis, parse_poly)

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))
GF = RingContext(characteristic=32003, base_vars=("X", "Y"))


def random_poly(rng, ctx, max_terms=4, max_degree=5, max_coeff=9):
    p = Polynomial.zero(ctx)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(ctx.nvars))
        coeff = rng.randint(-max_coeff, max_coeff)
        p = p + Polynomial.monomial(ctx, exps, coeff)
    return p


def test_ring_axioms_random_triples():
    for ctx in (CTX, GF):
        rng = random.Random(20250825)
        for _ in range(1000):
            f = random_poly(rng, ctx)
            g = random_poly(rng, ctx)
            h = random_poly(rng, ctx)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert f + Polynomial.zero(ctx) == f
            assert f * Polynomial.one(ctx) == f
            assert f - f == Polynomial.zero(ctx)


def test_degree_additivity():
    for ctx in (CTX, GF):
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            f = random_poly(rng, ctx)
            g = random_poly(rng, ctx)
            if f.is_zero() or g.is_zero():
                continue
            # over a domain, total degree is additive under products
            assert (f * g).total_degree() == \
                f.total_degree() + g.total_degree()
            checked += 1


def test_parse_print_roundtrip_is_fixed_point():
    for ctx in (CTX, GF):
        rng = random.Random(99)
        for _ in range(300):
            f = random_poly(rng, ctx)
            s = str(f)
            g = parse_poly(s, ctx)
            assert g == f
            assert str(g) == s


def test_parse_examples():
    f = parse_poly("X^2*Y - 3*Y + 2", CTX)
    assert str(f) == "X^2*Y - 3*Y + 2"
    assert parse_poly("(X + Y)^2", CTX) == \
        parse_poly("X^2 + 2*X*Y + Y^2", CTX)
    assert parse_poly("-X", CTX) + parse_poly("X", CTX) == \
        Polynomial.zero(CTX)
    assert parse_poly("0", CTX).is_zero()


def test_parse_errors_have_positions():
    for bad in ("X +", "X^", "Z", "1/2", "(X", "X % Y"):
        with pytest.raises(ParseError) as exc:
            parse_poly(bad, CTX)
        assert exc.value.position is not None


def test_prime_field_two_freshman_dream():
    ctx2 = RingContext(characteristic=2, base_vars=("X", "Y"))
    lhs = parse_poly("(X + Y)^2", ctx2)
    rhs = parse_poly("X^2 + Y^2", ctx2)
    assert lhs == rhs


def test_prime_field_inverse_arithmetic():
    # making a basis monic, and reading a Fraction, take inverses mod p
    basis = groebner_basis(SubmoduleData.ideal(GF, [parse_poly("2*X + 4*Y",
                                                               GF)]))
    assert [str(g[0]) for g in basis.gens] == ["X + 2*Y"]
    half = Polynomial.constant(GF, Fraction(1, 2))
    assert half * Polynomial.constant(GF, 2) == Polynomial.one(GF)
    assert str(half) == "16002"
    with pytest.raises(ZeroDivisionError):
        Polynomial.constant(GF, Fraction(1, 32003))


def test_prime_field_primality_is_exact():
    for p in (0, 2, 3, 32003, 65537, 2147483647):
        assert RingContext(characteristic=p).characteristic == p
    # 4295229443 = 65537 * 65539 has no factor below 2^16; 2147483659 is
    # prime but at or above the 2^31 limit
    for p in (1, 4, 65537 * 65539, 2147483649, 2147483659):
        with pytest.raises(InputError):
            RingContext(characteristic=p)


def test_power_matches_repeated_multiplication():
    f = parse_poly("X + 2*Y^2 - 1", CTX)
    acc = Polynomial.one(CTX)
    for k in range(7):
        assert f ** k == acc
        acc = acc * f
