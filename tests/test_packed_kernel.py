"""The packed-term Groebner kernel: the term layout, its range guard, and
bases held as kernel vectors, checked against the textbook oracle."""

import itertools
import random
import re

import pytest

from reescalc import (InputError, ModuleEmbedding, Polynomial, RingContext,
                      SubmoduleData, colength, equal, groebner_basis,
                      parse_poly)
from reescalc.context import mon_mul
from reescalc.groebner import (_FLAG_SHIFT, _MAX_DEGREE, _X, _Y,
                               _by_component, _eliminate_block, _pack, _to_vp,
                               _unpack)
from reescalc.rees import _integer_product, fiber_products, piece_rank

from oracles import buchberger_oracle, multiply_piece_vectors, order_key
from test_groebner import HARD_COEFFS, _random_module
from test_rees import BINOMIAL_ROWS

QQ = RingContext(characteristic=0, base_vars=("X", "Y"))
GF = RingContext(characteristic=32003, base_vars=("X", "Y"))


def _random_term(rng):
    top = rng.choice((3, 40, _MAX_DEGREE // 4))
    return rng.randrange(6), (rng.randint(0, top), rng.randint(0, top))


def _flagged(term, elim):
    """The packed term, flagged as _eliminate_block flags the first elim
    components."""
    c, e = term
    return _pack(c, e) | (c < elim) << _FLAG_SHIFT


def test_packed_order_and_product_match_the_module_order():
    # Integer order on packed terms is the oracle's key order, for the
    # default order and for elimination orders, and adding the packed
    # shift of a monomial multiplies by it.
    rng = random.Random(1818)
    terms = [_random_term(rng) for _ in range(400)]
    for elim in (0, 1, 3):
        key = order_key(QQ, elim)
        assert sorted(terms, key=lambda t: _flagged(t, elim)) == sorted(
            terms, key=key)
        for s, t in zip(terms, terms[1:]):
            assert (_flagged(s, elim) < _flagged(t, elim)) == (key(s) < key(t))
            assert _unpack(_flagged(s, elim)) == s
    one = _pack(0, (0, 0))
    for (c, e), (_, f) in zip(terms, terms[1:]):
        assert _pack(c, e) + _pack(0, f) - one == _pack(c, mon_mul(e, f))
    c, e = terms[0]
    assert _pack(c, e) + _X == _pack(c, mon_mul(e, (1, 0)))
    assert _pack(c, e) + _Y == _pack(c, mon_mul(e, (0, 1)))


def _vectors(ctx, *rows):
    return SubmoduleData.from_vectors(ctx, len(rows[0]), [
        tuple(parse_poly(e, ctx) if isinstance(e, str) else e for e in row)
        for row in rows])


def test_degrees_beyond_the_kernel_range_raise_input_error():
    # _MAX_DEGREE itself is accepted; one more raises where degrees grow:
    # a packed input, a product of pieces, an S-vector's lcm, and an
    # element's tail in a block elimination.
    d = _MAX_DEGREE
    x, y = (Polynomial.variable(QQ, v) for v in "XY")
    one = Polynomial.one(QQ)

    def ideal(p):
        return SubmoduleData.ideal(QQ, [p])

    assert groebner_basis(ideal(x ** d + y)).gens == ((x ** d + y,),)
    with pytest.raises(InputError):
        groebner_basis(ideal(x ** (d + 1) + y))
    half = ModuleEmbedding(ideal(x ** (d // 2) + y))
    assert colength(half.power_piece(2)) == float("inf")
    over = ModuleEmbedding(ideal(x ** (d // 2 + 1) + y))
    with pytest.raises(InputError):
        over.power_piece(2)
    # the S-vector of (X^k, Y) and (Y, 1) has lcm X^k*Y in component 0
    at = groebner_basis(_vectors(QQ, (x ** (d - 1), y), (y, one)))
    assert at.gens == ((y, one), (Polynomial.zero(QQ), x ** (d - 1) - y * y),
                       (x ** (d - 1), y))
    with pytest.raises(InputError):
        groebner_basis(_vectors(QQ, (x ** d, y), (y, one)))
    # in the block elimination of the pair (X, Y^k) with W = (Y), in
    # which component 0 dominates, the S-vector of (X, Y^k) and (Y, 0) is
    # (0, Y^(k+1))
    W = ideal(y)
    for k in (d - 1, d):
        pair = ({_pack(0, (1, 0)): 1}, {_pack(0, (0, k)): 1})
        if k < d:
            assert _eliminate_block([pair], W, 1).gens == ((y ** d,),)
        else:
            with pytest.raises(InputError):
                _eliminate_block([pair], W, 1)


def _shifted(ctx, c):
    sub = f"(X+{c}*Y)" if c > 0 else f"(X-{-c}*Y)"
    return ModuleEmbedding.from_matrix(ctx, [
        [parse_poly(re.sub(r"\bX\b", sub, e), ctx) for e in row]
        for row in BINOMIAL_ROWS])


def _column_products(E, n):
    """The n-fold products of E's columns as vectors over the degree-n
    t-monomials, descending in degree reverse lexicographic order."""
    r, ctx = E.rank, E.ctx
    monos = sorted((e for e in itertools.product(range(n + 1), repeat=r)
                    if sum(e) == n), key=lambda e: e[::-1])
    zero = Polynomial.zero(ctx)
    out = []
    for combo in itertools.combinations_with_replacement(E.columns, n):
        vec = {}
        for rows in itertools.product(range(r), repeat=n):
            p = Polynomial.one(ctx)
            for col, i in zip(combo, rows):
                p = p * col[i]
            t = tuple(rows.count(i) for i in range(r))
            vec[t] = vec.get(t, zero) + p
        out.append(tuple(vec.get(t, zero) for t in monos))
    return out


def _as_dicts(U):
    return [{(c, e): x for c, p in enumerate(v) for e, x in p.terms.items()}
            for v in U.gens]


@pytest.mark.parametrize("ctx, c", [(QQ, -2), (QQ, -1), (QQ, 1), (QQ, 2),
                                    (GF, -2), (GF, 2)])
def test_shifted_binomial_powers_match_the_oracle(ctx, c):
    # M^1..M^3 of the binomial module under X -> X + c*Y, built by
    # power_piece and held as kernel vectors, against the criterion-free
    # oracle on the column products; the colengths do not move with c.
    # M^4 (below) costs the oracle about 20 s a context.
    E = _shifted(ctx, c)
    for n, length in zip((1, 2, 3), (9, 37, 95)):
        piece = E.power_piece(n)
        assert n == 1 or piece._gens is None
        assert colength(piece) == length
        assert _as_dicts(piece) == buchberger_oracle(
            _column_products(E, n), ctx), (ctx, c, n)


def test_shifted_binomial_fourth_power_matches_the_oracle():
    for ctx, c in ((QQ, -2), (QQ, -1), (QQ, 1), (QQ, 2), (GF, -1)):
        assert colength(_shifted(ctx, c).power_piece(4)) == 195
    E = _shifted(QQ, -1)
    assert _as_dicts(E.power_piece(4)) == buchberger_oracle(
        _column_products(E, 4), QQ)


def _eager(ctx, rank, oracle):
    return tuple(tuple(Polynomial(ctx, {e: x for (d, e), x in f.items()
                                        if d == c}) for c in range(rank))
                 for f in oracle)


def test_kernel_vector_bases_match_an_eager_construction():
    # On random non-monomial modules over QQ, with HARD_COEFFS among the
    # coefficients, and over GF(p): the basis builds no Polynomials until
    # gens is read, its lazy gens equal the oracle's basis built as
    # Polynomials at once, and equal() agrees both ways with comparing
    # gens, on the same module from rescaled and shuffled generators and
    # on a module with one generator dropped.
    rng = random.Random(1919)
    kinds = set()
    for ctx, coeffs in ((QQ, HARD_COEFFS), (QQ, (-3, -1, 1, 2)),
                        (GF, (-3, -1, 1, 2))):
        for rank, terms in itertools.product((1, 2), (2, 3)):
            gens = _random_module(rng, ctx, rank, terms, 3, coeffs)
            gb = groebner_basis(SubmoduleData.from_vectors(ctx, rank, gens))
            if gb.is_monomial():
                continue
            assert gb._gens is None
            assert gb.gens == _eager(ctx, rank, buchberger_oracle(
                gens, ctx)), (ctx, gens)
            scaled = [tuple(p * Polynomial.constant(ctx, rng.choice((2, -3)))
                            for p in g)
                      for g in rng.sample(gens, len(gens))]
            for V in (SubmoduleData.from_vectors(ctx, rank, scaled),
                      SubmoduleData.from_vectors(ctx, rank, gens[:2])):
                same = gb.gens == groebner_basis(V).gens
                assert equal(gb, V) == equal(V, gb) == same, (ctx, gens)
                kinds.add(same)
    assert kinds == {True, False}


def test_kernel_product_matches_the_reference_product():
    # The product of piece vectors that piece_product and
    # check_integral_equation take on kernel vectors (_integer_product)
    # equals the Polynomial product of tests/oracles, for 1 to 3 fiber
    # variables and fiber degrees 0 to 2, over QQ, with HARD_COEFFS among
    # the coefficients, and over GF(p).
    rng = random.Random(2020)
    for ctx, coeffs in ((QQ, HARD_COEFFS), (QQ, (-3, -1, 1, 2)),
                        (GF, (-3, -1, 1, 2))):
        p = ctx.characteristic
        for r, a, b in itertools.product((1, 2, 3), range(3), range(3)):
            bases = [[_pack(k, (0, 0)) for k in row]
                     for row in fiber_products(r, a, b)]
            for _ in range(2):
                (u,), (v,) = (_random_module(rng, ctx, piece_rank(r, d), 3,
                                             1, coeffs) for d in (a, b))
                got = _integer_product(_by_component(_to_vp(u)),
                                       _by_component(_to_vp(v)), bases, p)
                want = multiply_piece_vectors(r, u, a, v, b, ctx)
                assert got == _to_vp(want), (ctx, r, u, v)
