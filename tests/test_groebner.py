"""Groebner engine: bases, membership, colon, block elimination,
intersection."""

import itertools
import random
from fractions import Fraction

import pytest

from reescalc import (INFINITE, ModuleEmbedding, Polynomial, RingContext,
                      SubmoduleData, colength, contains, equal,
                      groebner_basis, intersect, member, parse_poly)
from reescalc import groebner
from reescalc.closures import newton_closure_exps
from reescalc.context import mon_divides, mon_lcm, mon_mul
from reescalc.groebner import (_basis_index, _eliminate_block, _from_vp,
                               _mono_minimalize, _pack, _to_vp,
                               _vp_normal_form)
from reescalc.rees import piece_colon, piece_rank

from oracles import (buchberger_oracle, coefficient, ideal_from_exps,
                     inverse, multiply_piece_vectors, newton_closure_oracle,
                     order_key, random_monomial_ideal, span_membership)
from test_rees import BINOMIAL_ROWS

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))
X = Polynomial.variable(CTX, "X")
Y = Polynomial.variable(CTX, "Y")
ZERO = Polynomial.zero(CTX)


def _ideal(*polys):
    return SubmoduleData.ideal(CTX, list(polys))


def _module(*vecs):
    return SubmoduleData.from_vectors(CTX, len(vecs[0]), list(vecs))


def _colon(U, J):
    """U : J = {v : v*J inside U} for an ideal J: the piece colon with J
    in fiber degree 0 and U inside it."""
    return piece_colon(U, U, J, 0, 1, inside=U)


def _preimage(columns, W):
    """{v : sum v_j * columns[j] in W}, as its reduced basis: each column,
    tagged with a unit vector, goes into one block elimination with W."""
    return _eliminate_block([(_to_vp(col), {_pack(j, (0, 0)): 1})
                             for j, col in enumerate(columns)],
                            W, len(columns))


def _normal_form(vec, U):
    """The remainder of the vector vec on division by U's reduced
    basis."""
    r = _vp_normal_form(_to_vp(vec), _basis_index(U), U.ctx.characteristic)
    return _from_vp(U.ctx, U.rank, r)


def gens_as_str(U):
    out = []
    for g in groebner_basis(U).gens:
        out.append(tuple(str(p) for p in g))
    return sorted(out)


def test_ideal_basis_example():
    # (X - Y^2, Y^3): under the graded order the degree-2 term leads, and
    # the reduced basis picks up the products X*Y and X^2
    U = _ideal(X - Y * Y, Y ** 3)
    assert gens_as_str(U) == [("X*Y",), ("X^2",), ("Y^2 - X",)]
    assert member((Y ** 3,), U)
    assert not member((Y ** 2,), U)


def test_colon_example():
    # (X^2, X*Y) : (X) = (X, Y)
    got = _colon(_ideal(X * X, X * Y), _ideal(X))
    assert equal(got, _ideal(X, Y))


def test_module_basis_example():
    U = _module((X, ZERO), (Y, X), (ZERO, Y))
    gb = groebner_basis(U)
    # X*e2 is not in the module, but Y^2*e2 and X*Y*e2 are syzygy products
    assert not member((ZERO, X), gb)
    assert member((ZERO, Y), gb)
    assert member((X * Y, ZERO), gb)


def test_membership_matches_linear_algebra_oracle():
    rng = random.Random(41)
    for _ in range(60):
        exps = random_monomial_ideal(rng, max_degree=5)
        U = ideal_from_exps(CTX, exps)
        a = rng.randint(0, 6)
        b = rng.randint(0, 6)
        v = Polynomial.monomial(CTX, (a, b))
        got = member((v,), U)
        want = span_membership((v,), U.gens, CTX, 1, multiplier_degree=a + b)
        assert got == want, (exps, (a, b))


def test_membership_oracle_non_monomial():
    U = _ideal(X - Y * Y, Y ** 3)
    for v, expect in (((X * Y,), True), ((Y * Y,), False),
                      ((X * X,), True), ((X + Y,), False)):
        assert member(v, U) == expect
        assert span_membership(v, U.gens, CTX, 1, 6) == expect


def test_colon_adjunction_random_monomial_triples():
    # v in (U : J)  iff  v * J inside U, for 200 random monomial instances
    rng = random.Random(2024)
    for _ in range(200):
        U = ideal_from_exps(CTX, random_monomial_ideal(rng, max_degree=6))
        J = ideal_from_exps(CTX, random_monomial_ideal(rng, max_degree=4))
        v = Polynomial.monomial(CTX, (rng.randint(0, 6), rng.randint(0, 6)))
        lhs = member((v,), _colon(U, J))
        rhs = all(member((v * g,), U) for (g,) in J.gens)
        assert lhs == rhs


def test_basis_canonical_under_generator_permutation():
    rng = random.Random(5)
    for _ in range(40):
        exps = random_monomial_ideal(rng, max_degree=6)
        gens = [Polynomial.monomial(CTX, e) for e in exps]
        shuffled = gens[:]
        rng.shuffle(shuffled)
        a = groebner_basis(SubmoduleData.ideal(CTX, gens))
        b = groebner_basis(SubmoduleData.ideal(CTX, shuffled))
        assert a.gens == b.gens


def test_basis_canonical_non_monomial():
    gens = [X ** 2 - Y ** 3, X * Y - Y ** 2, Y ** 4 + X]
    for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]):
        a = groebner_basis(_ideal(*[gens[i] for i in perm]))
        b = groebner_basis(_ideal(*gens))
        assert a.gens == b.gens


def test_normal_form_idempotent_and_linear():
    U = _ideal(X ** 2 - Y, Y ** 2)
    for p in (X ** 3, X * Y + Y ** 3, X ** 5 - Polynomial.one(CTX),
              Polynomial.one(CTX)):
        r = _normal_form((p,), U)
        assert _normal_form(r, U) == r
    f, g = X ** 4, Y * X
    nf = _normal_form
    assert nf((f + g,), U)[0] == nf((f,), U)[0] + nf((g,), U)[0]


def test_sum_and_contains():
    U = _ideal(X ** 2)
    V = _ideal(Y ** 2)
    W = SubmoduleData(CTX, 1, U.gens + V.gens)
    assert contains(W, U) and contains(W, V)
    assert not contains(U, V)
    assert equal(W, _ideal(X ** 2, Y ** 2))


def test_intersection_examples():
    got = intersect(_ideal(X), _ideal(Y))
    assert equal(got, _ideal(X * Y))
    got = intersect(_ideal(X ** 2, Y), _ideal(X, Y ** 2))
    assert equal(got, _ideal(X ** 2, X * Y, Y ** 2))
    # non-monomial: (X) and (X - Y^2) meet in the product since they are
    # coprime principal ideals
    got = intersect(_ideal(X), _ideal(X - Y * Y))
    assert equal(got, _ideal(X * (X - Y * Y)))


def test_intersection_matches_lcm_for_monomials():
    rng = random.Random(77)
    for _ in range(50):
        A = random_monomial_ideal(rng, max_degree=5)
        B = random_monomial_ideal(rng, max_degree=5)
        got = intersect(ideal_from_exps(CTX, A), ideal_from_exps(CTX, B))
        brute = ideal_from_exps(CTX, [mon_lcm(a, b) for a in A for b in B])
        assert equal(got, brute)


def test_saturation_example():
    # the first step of the saturation chain of (X^2*Y, X*Y^2) by (X*Y)
    U = _ideal(X ** 2 * Y, X * Y ** 2)
    assert equal(_colon(U, _ideal(X * Y)), _ideal(X, Y))


def test_preimage_syzygy():
    # preimage of (X*Y) under [X, Y]: pairs (a, b) with a*X + b*Y in (X*Y)
    W = _ideal(X * Y)
    cols = [(X,), (Y,)]
    pre = _preimage(cols, W)
    assert pre.rank == 2
    assert member((Y, ZERO), pre)
    assert member((ZERO, X), pre)
    assert not member((Polynomial.one(CTX), ZERO), pre)


def test_colon_by_zero_ideal_flagged():
    U = _ideal(X)
    got = _colon(U, SubmoduleData.zero(CTX, 1))
    assert member((Polynomial.one(CTX),), got)


def test_zero_and_free_degenerate_cases():
    Z = SubmoduleData.zero(CTX, 2)
    F = SubmoduleData.free(CTX, 2)
    assert groebner_basis(Z).is_zero()
    assert contains(F, Z)
    assert member((X, Y), F)
    assert not member((X, Y), Z)


# Coefficients that make the QQ kernel scale: non-unit leads, proper
# fractions and integers beyond a machine word.
HARD_COEFFS = (Fraction(3, 4), Fraction(-7, 5), 10**12 + 39, 2**61 - 1, -1, 6)


def _random_module(rng, ctx, rank, terms, count,
                   coeffs=(-3, -2, -1, 1, 2, 5)):
    """count generators of the given rank, each with `terms` terms of
    degree at most 3 spread over its components."""
    gens = []
    for _ in range(count):
        vec = [{} for _ in range(rank)]
        for _ in range(terms):
            exps, left = [], 3
            for _ in range(ctx.nvars):
                exps.append(rng.randint(0, left))
                left -= exps[-1]
            vec[rng.randrange(rank)][tuple(exps)] = coefficient(
                rng.choice(coeffs), ctx.characteristic)
        gens.append(tuple(Polynomial(ctx, t) for t in vec))
    return gens


def _random_sparse_module(rng, ctx, terms):
    """Two to four such generators of rank 1 or 2."""
    rank = rng.randint(1, 2)
    return SubmoduleData.from_vectors(
        ctx, rank, _random_module(rng, ctx, rank, terms, rng.randint(2, 4)))


def test_bases_of_random_binomial_and_trinomial_modules_are_reduced():
    rng = random.Random(3003)
    for ctx in (CTX, RingContext(characteristic=32003, base_vars=("X", "Y"))):
        key = order_key(ctx)
        for terms in (2, 3):
            for _ in range(40):
                U = _random_sparse_module(rng, ctx, terms)
                gb = groebner_basis(U)
                elements = [{(c, e): coeff for c, p in enumerate(g)
                             for e, coeff in p.terms.items()}
                            for g in gb.gens]
                leads = [max(vp, key=key) for vp in elements]
                for i, vp in enumerate(elements):
                    assert vp[leads[i]] == 1, (U.gens, gb.gens)
                    for c, e in vp:
                        assert not any(
                            j != i and lc == c and mon_divides(le, e)
                            for j, (lc, le) in enumerate(leads)), \
                            (U.gens, gb.gens)
                assert all(member(g, gb) for g in U.gens)


def _random_poly(rng, ctx, terms, top, coeffs=(-2, -1, 1, 3)):
    out = {}
    for _ in range(terms):
        a = rng.randint(0, top)
        out[(a, rng.randint(0, top - a))] = coefficient(
            rng.choice(coeffs), ctx.characteristic)
    return Polynomial(ctx, out)


def _random_ideal(rng, ctx, terms):
    return SubmoduleData.ideal(ctx, [_random_poly(rng, ctx, terms, 2)
                                     for _ in range(rng.randint(1, 2))])


def _degree(vec):
    return max((p.total_degree() for p in vec if not p.is_zero()), default=0)


def test_colon_of_non_monomial_modules_matches_linear_algebra():
    # Binomial and trinomial U and J take the syzygy route of the colon
    # when U has infinite colength and the linear-algebra route when it
    # has finite colength, as the binomial module has.  Each generator v
    # of U : J is checked by linear algebra (g*v in the span of U for
    # every g in J), and membership in U : J against its definition on
    # multiples of its generators and on random vectors; some of the
    # colons are strictly larger than U.
    rng = random.Random(5005)
    seen, strict = set(), 0
    for ctx in (CTX, RingContext(characteristic=32003, base_vars=("X", "Y"))):
        rows = [[parse_poly(e, ctx) for e in r] for r in BINOMIAL_ROWS]
        binomial = SubmoduleData.from_vectors(ctx, 2, zip(*rows))
        cases = [(_random_sparse_module(rng, ctx, terms),
                  _random_ideal(rng, ctx, terms))
                 for terms in (2, 3) for _ in range(5)]
        cases += [(binomial, _random_ideal(rng, ctx, terms))
                  for terms in (2, 3)]
        for U, J in cases:
            C = _colon(U, J)
            assert contains(C, U)
            strict += not equal(C, U)
            for v in C.gens:
                for (g,) in J.gens:
                    gv = tuple(g * p for p in v)
                    assert span_membership(gv, U.gens, ctx, U.rank,
                                           _degree(gv) + 4), (U, J, v)
            for k in range(4):
                if k % 2:
                    v = tuple(_random_poly(rng, ctx, 1, 2) * p
                              for p in rng.choice(C.gens))
                else:
                    v = tuple(_random_poly(rng, ctx, 2, 3)
                              for _ in range(U.rank))
                inside = member(v, C)
                assert inside == all(member(tuple(g * p for p in v), U)
                                     for (g,) in J.gens), (U, J, v)
                seen.add(inside)
    assert seen == {True, False}
    assert strict >= 5


def test_intersection_of_nested_modules_skips_the_elimination(monkeypatch):
    def no_elimination(pairs, W, rank):
        raise AssertionError("nested modules reached the elimination")

    rng = random.Random(3131)
    nested = 0
    for _ in range(30):
        U = _random_sparse_module(rng, CTX, 3)
        extra = _random_sparse_module(rng, CTX, 2)
        if extra.rank != U.rank:
            continue
        nested += 1
        W = SubmoduleData(CTX, U.rank, U.gens + extra.gens)
        with monkeypatch.context() as m:
            m.setattr(groebner, "_eliminate_block", no_elimination)
            assert equal(intersect(U, W), U)
            assert equal(intersect(W, U), U)
    assert nested >= 10
    # modules that are not nested still meet through the elimination
    one = Polynomial.one(CTX)
    got = intersect(_ideal(X * X - Y), _ideal(X * Y - Y))
    assert equal(got, _ideal((X * X - Y) * (X - one) * Y))


def _finite_colength_module(rng, ctx, rank, coeffs):
    """Three random three-term generators of the given rank, with
    X^a*e_i and Y^b*e_i for every component i, a and b in 3..5."""
    zero = Polynomial.zero(ctx)
    gens = _random_module(rng, ctx, rank, 3, 3, coeffs)
    for i in range(rank):
        for name in ("X", "Y"):
            p = Polynomial.variable(ctx, name) ** rng.randint(3, 5)
            gens.append(tuple(p if k == i else zero for k in range(rank)))
    return SubmoduleData.from_vectors(ctx, rank, gens)


def test_intersections_match_the_colength_formula():
    # For U and V of finite colength in F, l(F/(U cap V)) = l(F/U) +
    # l(F/V) - l(F/(U+V)), so a module inside U and V with that colength
    # is U cap V.  That checks intersect(U, V), and the image of the
    # preimage of U under the generators of V, which is U cap V too, with
    # no intersection in the oracle.  Each result's own basis must
    # also equal the basis recomputed from its generators.
    def recomputed(R):
        return groebner_basis(SubmoduleData(R.ctx, R.rank, R.gens)).gens

    rng = random.Random(9090)
    gf = RingContext(characteristic=32003, base_vars=("X", "Y"))
    small = (-3, -2, -1, 1, 2, 5)
    crossing = 0
    for ctx, coeffs in ((CTX, small), (gf, small), (CTX, HARD_COEFFS)):
        for rank in (2, 3):
            for _ in range(4):
                U, V = (_finite_colength_module(rng, ctx, rank, coeffs)
                        for _ in range(2))
                if contains(U, V) or contains(V, U):
                    continue
                crossing += 1
                want = (colength(U) + colength(V) - colength(
                    SubmoduleData(ctx, rank, U.gens + V.gens)))
                R = intersect(U, V)
                P = _preimage(V.gens, U)
                image = SubmoduleData(ctx, rank, tuple(
                    tuple(sum((c * v[i] for c, v in zip(g, V.gens)),
                              Polynomial.zero(ctx)) for i in range(rank))
                    for g in P.gens))
                for meet in (R, image):
                    assert contains(U, meet) and contains(V, meet), (U, V)
                    assert colength(meet) == want, (U, V)
                assert groebner_basis(R).gens == recomputed(R)
                assert groebner_basis(P).gens == recomputed(P)
    assert crossing >= 18


def _random_exps(rng, width, top):
    """Up to seven random exponent tuples, duplicates and redundant ones
    included."""
    return [tuple(rng.randint(0, top) for _ in range(width))
            for _ in range(rng.randint(0, 7))]


def _minimal_brute(points):
    pts = set(points)
    return sorted(p for p in pts
                  if not any(q != p and mon_divides(q, p) for q in pts))


def _in_ideal(m, gens):
    return any(mon_divides(g, m) for g in gens)


def _exps(U):
    return sorted(next(iter(p.terms)) for (p,) in groebner_basis(U).gens)


@pytest.mark.parametrize("width", [2])
def test_monomial_kernel_matches_brute_force(width):
    # The staircase sweeps against the grid.  Every generator of A, B,
    # A cap B and A : g lies in the box [0, top]^width, so the grid
    # decides each ideal.
    rng = random.Random(400 + width)
    top = 6
    ctx = CTX
    grid = list(itertools.product(range(top + 1), repeat=width))
    for _ in range(80):
        A = _random_exps(rng, width, top)
        B = _random_exps(rng, width, top)
        g = tuple(rng.randint(0, top) for _ in range(width))
        IA, IB = ideal_from_exps(ctx, A), ideal_from_exps(ctx, B)
        in_a = [m for m in grid if _in_ideal(m, A)]
        assert _mono_minimalize(A) == _minimal_brute(A)
        assert _exps(IA) == _minimal_brute(A)
        assert _exps(intersect(IA, IB)) == _minimal_brute(
            m for m in in_a if _in_ideal(m, B))
        assert _exps(_colon(IA, ideal_from_exps(ctx, [g]))) == \
            _minimal_brute(m for m in grid if _in_ideal(mon_mul(m, g), A))
        assert contains(IA, IB) == all(
            _in_ideal(m, A) for m in grid if _in_ideal(m, B))
        pure = all(any(e[i] == sum(e) for e in A) for i in range(width))
        want = len(grid) - len(in_a) if pure else INFINITE
        assert colength(IA) == want, A


def test_newton_closure_matches_oracle_on_redundant_generators():
    rng = random.Random(4242)
    for _ in range(20):
        exps = _random_exps(rng, 2, 5) or [(2, 3)]
        assert newton_closure_exps(exps) == newton_closure_oracle(exps), exps


def test_monomial_containment_on_larger_sets_in_two_variables():
    # B is made of multiples of A's generators, half the time plus one
    # near miss: a minimal generator of A with one exponent lowered, which
    # lies outside A unless that exponent was 0.  A's generators lie in
    # [0, 7]^2, as many cells as [0, 3]^3, so its staircase leaves room
    # below; all of B's generators lie in the box [0, 9]^2, so the grid
    # decides whether B lies inside A.
    rng = random.Random(4343)
    grid = list(itertools.product(range(10), repeat=2))
    seen = set()
    for _ in range(30):
        A = _random_exps(rng, 2, 7) + [
            tuple(rng.randint(0, 7) for _ in range(2))
            for _ in range(rng.randint(10, 25))]
        B = [mon_mul(rng.choice(A), tuple(rng.randint(0, 2) for _ in range(2)))
             for _ in range(rng.randint(10, 25))]
        if rng.random() < 0.5:
            near = list(rng.choice(_minimal_brute(A)))
            i = rng.randint(0, 1)
            near[i] = max(near[i] - 1, 0)
            B.append(tuple(near))
        want = all(_in_ideal(m, A) for m in grid if _in_ideal(m, B))
        seen.add(want)
        assert contains(ideal_from_exps(CTX, A), ideal_from_exps(CTX, B)) \
            == want, (A, B)
    assert seen == {True, False}


def _monomial_vectors(rank, leads):
    return [tuple(Polynomial.monomial(CTX, e) if i == c else ZERO
                  for i in range(rank)) for c, e in leads]


def _minimal_leads(rank, leads):
    """The minimal ones of the (component, exponent pair) leads."""
    return [(c, m) for c in range(rank)
            for m in _minimal_brute(e for d, e in leads if d == c)]


def _eager_basis(rank, leads):
    """The reduced basis of the monomial module with generators at leads,
    as Polynomial vectors: the minimal leads sorted by lead term."""
    return tuple(_monomial_vectors(rank, sorted(
        _minimal_leads(rank, leads), key=order_key(CTX))))


def _colength_by_counting(rank, leads):
    """Exponent pairs of the box below each component's pure powers that
    no lead divides; INFINITE when a component has no pure power of X or
    of Y."""
    total = 0
    for c in range(rank):
        comp = [e for d, e in leads if d == c]
        xs = [a for a, b in comp if b == 0]
        ys = [b for a, b in comp if a == 0]
        if not xs or not ys:
            return INFINITE
        total += sum(1 for m in itertools.product(range(min(xs)),
                                                  range(min(ys)))
                     if not _in_ideal(m, comp))
    return total


def test_staircase_backed_bases_match_the_polynomial_construction():
    # Monomial bases are held as staircases and build their Polynomials on
    # the first read of gens.  On random monomial modules of rank 1-3, with
    # redundant generators and some components empty or open, the lazy gens
    # equal the eager construction, equal() agrees with comparing gens, and
    # colength counts the standard monomials.
    rng = random.Random(1717)
    kinds = set()
    for _ in range(60):
        rank = rng.randint(1, 3)
        leads = [(rng.randrange(rank), (rng.randint(0, 5), rng.randint(0, 5)))
                 for _ in range(rng.randint(1, 8))]
        leads += [(c, (rng.randint(1, 6), 0)) for c in range(rank)
                  if rng.random() < 0.8]
        leads += [(c, (0, rng.randint(1, 6))) for c in range(rank)
                  if rng.random() < 0.8]
        vectors = _monomial_vectors(rank, leads)
        gb = groebner_basis(SubmoduleData(CTX, rank, tuple(vectors)))
        assert gb._gens is None
        want = _eager_basis(rank, leads)
        assert gb.gens == want, leads
        assert colength(SubmoduleData(CTX, rank, tuple(vectors))) \
            == _colength_by_counting(rank, leads), leads
        # the same module from shuffled generators and multiples of them,
        # and its basis built by Buchberger from Polynomials
        extra = [(c, mon_mul(e, (rng.randint(0, 2), rng.randint(0, 2))))
                 for c, e in rng.sample(leads, min(3, len(leads)))]
        shuffled = _monomial_vectors(rank, rng.sample(leads, len(leads)))
        same = SubmoduleData(CTX, rank,
                             tuple(shuffled + _monomial_vectors(rank, extra)))
        built = groebner.vector_basis(CTX, rank,
                                      [groebner._to_vp(v) for v in want])
        # one minimal generator dropped, and a random other module
        dropped = _minimal_leads(rank, leads)
        del dropped[rng.randrange(len(dropped))]
        other_leads = [(rng.randrange(rank), (rng.randint(0, 3),
                                               rng.randint(0, 3)))
                       for _ in range(rng.randint(1, 4))]
        for V, same_module in (
                (same, True), (built, True),
                (SubmoduleData(CTX, rank,
                               tuple(_monomial_vectors(rank, dropped))),
                 False),
                (SubmoduleData(CTX, rank,
                               tuple(_monomial_vectors(rank, other_leads))),
                 None)):
            by_gens = gb.gens == groebner_basis(V).gens
            assert equal(gb, V) == equal(V, gb) == by_gens, (leads, V.gens)
            if same_module is not None:
                assert by_gens == same_module, (leads, V.gens)
            kinds.add(by_gens)
    assert kinds == {True, False}


def _vps(vectors):
    return [{(c, e): x for c, p in enumerate(v) for e, x in p.terms.items()}
            for v in vectors]


def test_kernel_matches_criterion_free_buchberger(monkeypatch):
    # groebner_basis, and the preimage by _eliminate_block under its block
    # elimination order, against a Buchberger that reduces every pair.
    # The first case runs the QQ kernel's scaling branches:
    # with HARD_COEFFS most of its reductions scale.  It comes first, on
    # its own seed, since a kernel that scales wrongly can blow up on the
    # later inputs before a comparison fails; the oracle's cost on such
    # coefficients keeps it to ranks 1 and 2.
    real_spair = groebner._spair

    def spair(f, g, lt_f, lt_g, lcm_fg, p):
        # every S-vector cancels the lcm of the two leads
        s = real_spair(f, g, lt_f, lt_g, lcm_fg, p)
        (c, e), (_, e_g) = groebner._unpack(lt_f), groebner._unpack(lt_g)
        assert groebner._unpack(lcm_fg) == (c, mon_lcm(e, e_g))
        assert lcm_fg not in s
        return s

    monkeypatch.setattr(groebner, "_spair", spair)
    shared = random.Random(6006)
    small = (-3, -2, -1, 1, 2, 5)
    gf = RingContext(characteristic=32003, base_vars=("X", "Y"))
    for ctx, coeffs, ranks, rng in ((CTX, HARD_COEFFS, (1, 2),
                                     random.Random(6062)),
                                    (CTX, small, (1, 2, 3), shared),
                                    (gf, small, (1, 2, 3), shared)):
        for rank in ranks:
            for terms in (2, 3):
                for _ in range(4):
                    gens = _random_module(rng, ctx, rank, terms,
                                          rng.randint(2, 4), coeffs)
                    U = SubmoduleData.from_vectors(ctx, rank, gens)
                    assert _vps(groebner_basis(U).gens) == buchberger_oracle(
                        gens, ctx), (rank, gens)
                columns = _random_module(rng, ctx, rank, terms, 2, coeffs)
                W = SubmoduleData.from_vectors(
                    ctx, rank, _random_module(rng, ctx, rank, terms, 2, coeffs))
                one = Polynomial.one(ctx)
                zero = Polynomial.zero(ctx)
                tagged = [tuple(col) + tuple(one if k == j else zero
                                             for k in range(len(columns)))
                          for j, col in enumerate(columns)]
                tagged += [tuple(w) + (zero,) * len(columns) for w in W.gens]
                want = [{(c - rank, e): x for (c, e), x in f.items()}
                        for f in buchberger_oracle(tagged, ctx, rank)
                        if all(c >= rank for c, _ in f)]
                assert _vps(_preimage(columns, W).gens) == want, (columns, W)


def _redundant_products(rng, ctx, rank, terms, coeffs, scalars):
    """Generators of M^2 for a random M of the given rank with two
    generators: the three products of those, and each element of M's
    basis times each generator, as power_piece builds M^n, shuffled with
    repeats and scalar multiples added."""
    gens = _random_module(rng, ctx, rank, terms, 2, coeffs)
    M = SubmoduleData.from_vectors(ctx, rank, gens)

    def times(us, vs):
        return [w for w in (multiply_piece_vectors(rank, u, 1, v, 1, ctx)
                            for u, v in itertools.product(us, vs))
                if any(p.terms for p in w)]

    few = times(gens[:1], gens) + times(gens[1:], gens[1:])
    products = times(groebner_basis(M).gens, gens)
    redundant = products + [rng.choice(products)
                            for _ in range(len(products) // 2)]
    for _ in range(len(products) // 2):
        c = rng.choice(scalars)
        redundant.append(tuple(p * Polynomial.constant(ctx, c)
                               for p in rng.choice(products)))
    rng.shuffle(redundant)
    return few, redundant


def test_redundant_inputs_match_criterion_free_buchberger():
    # The kernel gets the products M's basis times M's generators, most of
    # which reduce to zero against the inputs taken before them and are
    # dropped; the others must still reach the basis.  The oracle gets the
    # three products of M's generators, which span the same module.
    # Preimages are compared for ideals of two-term products only: beyond
    # that the oracle's elimination can take a minute (7 s for one rank-3
    # preimage, 35-60 s for some of three-term products of rank 1).
    gf = RingContext(characteristic=32003, base_vars=("X", "Y"))
    small = (-3, -2, -1, 1, 2, 5)
    cases = ((CTX, HARD_COEFFS, (Fraction(-3, 7), 2, -1)),
             (CTX, small, (Fraction(5, 2), -1)),
             (gf, small, (2, 31999)))
    rng = random.Random(8008)
    for ctx, coeffs, scalars in cases:
        one, zero = Polynomial.one(ctx), Polynomial.zero(ctx)
        for rank, terms in itertools.product((1, 2), (2, 3)):
            for _ in range(3):
                few, redundant = _redundant_products(
                    rng, ctx, rank, terms, coeffs, scalars)
                r2 = piece_rank(rank, 2)
                W = SubmoduleData.from_vectors(ctx, r2, redundant)
                assert _vps(groebner_basis(W).gens) == buchberger_oracle(
                    few, ctx), (ctx, few)
                if rank != 1 or terms != 2:
                    continue
                columns = _random_module(rng, ctx, r2, terms, 2, coeffs)
                tagged = [tuple(col) + ((one, zero) if j == 0 else
                                        (zero, one))
                          for j, col in enumerate(columns)]
                tagged += [tuple(w) + (zero, zero) for w in few]
                want = [{(c - r2, e): x for (c, e), x in f.items()}
                        for f in buchberger_oracle(tagged, ctx, r2)
                        if all(c >= r2 for c, _ in f)]
                assert _vps(_preimage(columns, W).gens) == want, \
                    (ctx, columns, few)


def test_ideal_bases_match_sympy_grevlex():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import grevlex
    sx, sy = sympy.symbols("X Y")
    # the default order on k[X, Y] is sympy's grevlex with X > Y
    mons = [m for d in range(5) for m in itertools.product(range(d + 1),
                                                           repeat=2)]
    assert sorted(mons, key=CTX.mon_key) == sorted(mons, key=grevlex)
    rng = random.Random(7007)
    # then non-unit and large integer coefficients
    large = (-6, 10, 15, 10**12 + 39, -(2**61 - 1))
    for char, coeffs in ((0, (-2, -1, 1, 3)), (32003, (-2, -1, 1, 3)),
                         (0, large), (32003, large)):
        ctx = RingContext(characteristic=char, base_vars=("X", "Y"))
        for terms in (2, 3):
            for _ in range(12):
                polys = [_random_poly(rng, ctx, terms, 4, coeffs)
                         for _ in range(rng.randint(2, 3))]
                exprs = [_sympy_expr(p, sx, sy) for p in polys]
                got = groebner_basis(SubmoduleData.ideal(ctx, polys))
                assert _terms(got) == _sympy_grevlex(sympy, exprs, (sx, sy),
                                                     char), exprs


def _sympy_expr(p, sx, sy):
    return sum(int(c) * sx ** a * sy ** b for (a, b), c in p.terms.items())


def _terms(U):
    """The reduced basis of the ideal U, each element as its sorted terms,
    in sorted order."""
    return sorted(sorted(g[0].terms.items()) for g in groebner_basis(U).gens)


def _sympy_grevlex(sympy, exprs, gens, p):
    """sympy's reduced grevlex basis of the ideal of exprs in k[gens], k of
    characteristic p, each element made monic and given as _terms gives
    ours."""
    if not exprs:
        return []
    extra = {"modulus": p} if p else {}
    G = sympy.groebner(exprs, *gens, order="grevlex", **extra)

    def coeff(c):
        return coefficient(Fraction(str(c)), p)

    want = []
    for q in G.polys:
        inv = inverse(coeff(q.LC(order="grevlex")), p)
        want.append(sorted((e, coefficient(coeff(c) * inv, p))
                           for e, c in q.as_dict().items()))
    return sorted(want)


def test_intersections_match_sympy():
    # U intersect V against the elements free of t in sympy's lex basis of
    # t*U + (1-t)*V with t first, compared as reduced grevlex bases.  Most
    # pairs are not nested, so intersect really runs its elimination.  The
    # colon U : V, the general branch of rees.piece_colon, is checked
    # against the intersection over g in V of (U intersect (g)) / g, each
    # quotient taken with sympy.div and its remainder required to be 0.
    sympy = pytest.importorskip("sympy")
    sx, sy, st = sympy.symbols("X Y t")
    rng = random.Random(1010)
    crossing = proper_colons = 0
    for char in (0, 32003):
        ctx = RingContext(characteristic=char, base_vars=("X", "Y"))
        extra = {"modulus": char} if char else {}

        def meet(fu, fv):
            exprs = [st * f for f in fu] + [(1 - st) * f for f in fv]
            G = sympy.groebner(exprs, st, sx, sy, order="lex", **extra)
            return [q for q in G.exprs if st not in q.free_symbols]

        def quotients(exprs, g):
            out = []
            for f in exprs:
                q, r = sympy.div(f, g, sx, sy, **extra)
                assert r == 0, (f, g)
                out.append(q)
            return out

        for terms in (2, 3):
            for _ in range(8):
                U, V = (SubmoduleData.ideal(ctx, [
                    _random_poly(rng, ctx, terms, 3)
                    for _ in range(rng.randint(1, 2))]) for _ in range(2))
                fu = [_sympy_expr(g[0], sx, sy) for g in U.gens]
                fv = [_sympy_expr(g[0], sx, sy) for g in V.gens]
                crossing += not (contains(U, V) or contains(V, U))
                want = _sympy_grevlex(sympy, meet(fu, fv), (sx, sy), char)
                assert _terms(intersect(U, V)) == want, (fu, fv)
                quot = None
                for g in fv:
                    part = quotients(meet(fu, [g]), g)
                    quot = part if quot is None else meet(quot, part)
                got = _colon(U, V)
                proper_colons += not (got.gens == groebner_basis(U).gens
                                      or contains(got, SubmoduleData.free(
                                          ctx, 1)))
                assert _terms(got) == _sympy_grevlex(
                    sympy, quot, (sx, sy), char), (fu, fv)
    assert crossing >= 20 and proper_colons >= 10


def test_results_over_qq_hold_fractions():
    # Over QQ the kernel computes with integers; every coefficient it hands
    # back must still be a Fraction, since an int would turn a later `/`
    # into float division.
    rng = random.Random(6116)

    def fractions_only(vectors):
        return all(type(x) is Fraction
                   for v in vectors for p in v for x in p.terms.values())

    for rank in (1, 2):
        for _ in range(3):
            U = SubmoduleData.from_vectors(CTX, rank, _random_module(
                rng, CTX, rank, 3, 3, HARD_COEFFS))
            V = SubmoduleData.from_vectors(CTX, rank, _random_module(
                rng, CTX, rank, 2, 2, HARD_COEFFS))
            columns = _random_module(rng, CTX, rank, 2, 2, HARD_COEFFS)
            assert fractions_only(groebner_basis(U).gens)
            assert fractions_only(_preimage(columns, U).gens)
            assert fractions_only(intersect(U, V).gens)
            assert fractions_only([_normal_form(v, U) for v in V.gens])
    E = ModuleEmbedding.from_matrix(CTX, [
        [parse_poly(e, CTX) for e in row]
        for row in (("3*X^2+2*Y^2", "7*X*Y+Y^2", "5*Y^3", "0"),
                    ("0", "6*X^2-11*Y^2", "5*X*Y", "9*Y^2"))])
    assert all(fractions_only(E.power_piece(n).gens) for n in range(4))
