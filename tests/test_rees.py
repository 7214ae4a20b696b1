"""Graded data: lengths, minimal generators, pieces, Fitting ideals."""

import itertools
import random
from math import comb

import pytest

from reescalc import (INFINITE, InputError, ModuleEmbedding, Polynomial,
                      RingContext, SubmoduleData, colength, direct_sum, equal,
                      fitting_ideal, groebner, groebner_basis,
                      is_parameter_module, maximal_ideal, min_gens, ord_ideal,
                      parse_poly, rees)
from reescalc.fixtures import (indecomposable_presentation, parameter_module,
                               square_direct_sum)

from oracles import coefficient, colength_oracle, span_membership

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))


def _p(s):
    return parse_poly(s, CTX)


def _ideal(*gens):
    return SubmoduleData.ideal(CTX, [_p(g) for g in gens])


def m_power_embedding(n):
    gens = [_p(f"X^{n-k}*Y^{k}" if 0 < k < n else
               (f"X^{n}" if k == 0 else f"Y^{n}")) for k in range(n + 1)]
    return ModuleEmbedding(SubmoduleData.ideal(CTX, gens))


def test_colength_of_maximal_ideal_powers():
    for n in range(1, 6):
        E = m_power_embedding(n)
        assert colength(E.submodule()) == comb(n + 1, 2)


def test_colength_infinite_cases():
    assert colength(_ideal("X")) is INFINITE
    assert colength(_ideal("X", "X*Y")) is INFINITE
    assert colength(SubmoduleData.zero(CTX, 1)) is INFINITE


def test_parameter_module_colength_with_oracle():
    E = parameter_module(CTX)
    got = colength(E.submodule())
    assert got == 3
    want = colength_oracle(E.submodule().gens, CTX, 2, degree_cap=5)
    assert got == want


def test_colength_non_monomial_with_oracle():
    # homogeneous generators with cancelling lead terms; the dense oracle
    # is degree-exact for homogeneous input
    U = SubmoduleData.ideal(CTX, [_p("X^2 - X*Y"), _p("X*Y - Y^2"), _p("Y^3")])
    got = colength(U)
    want = colength_oracle(U.gens, CTX, 1, degree_cap=8)
    assert got == want == 4


def test_colength_inhomogeneous_example():
    # (X^2 - Y^3, X*Y^2, Y^4) has basis leads Y^3, X*Y^2, X^2*Y, X^3
    U = SubmoduleData.ideal(CTX, [_p("X^2 - Y^3"), _p("X*Y^2"), _p("Y^4")])
    assert colength(U) == 6


def test_parameter_module_recognition():
    E = parameter_module(CTX)
    verdict, reasons = is_parameter_module(E)
    assert verdict
    assert reasons["mu"] == 3 and reasons["colength"] == 3
    # a module with a unit entry is not inside mF
    bad = ModuleEmbedding.from_matrix(
        CTX, [[_p("1"), _p("0")], [_p("0"), _p("X")]])
    verdict, reasons = is_parameter_module(bad)
    assert not verdict and not reasons["inside_mF"]


def test_min_gens_examples():
    assert min_gens(m_power_embedding(2).submodule()) == 3
    assert min_gens(_ideal("X^2", "X^3", "Y", "X*Y")) == 2
    E = square_direct_sum(CTX)["E"]
    assert min_gens(E.submodule()) == 8


def _greedy_min_gens(U, multiplier_degree):
    """mu by greedy selection: a generator is kept unless it lies in mM
    plus the module of the kept ones, tested by span_membership with
    multipliers of degree at most multiplier_degree."""
    mvars = [Polynomial.variable(U.ctx, v) for v in U.ctx.base_vars]
    m_gens = [tuple(x * p for p in g) for g in U.gens for x in mvars]
    kept = []
    for g in U.gens:
        if not span_membership(g, m_gens + kept, U.ctx, U.rank,
                               multiplier_degree):
            kept.append(g)
    return len(kept)


def test_min_gens_matches_a_greedy_count_on_random_modules():
    # Random modules of rank 1-3 over QQ and GF(32003), constant terms
    # included, each with one more generator g0 + g0 - g1 + X*g_last, so
    # that mu is below the number of generators.  The greedy count is
    # compared only where two multiplier-degree caps agree on it.
    from test_groebner import HARD_COEFFS, _random_module
    rng = random.Random(1515)
    gfp = RingContext(characteristic=32003, base_vars=("X", "Y"))
    compared = proper = 0
    for ctx in (CTX, gfp):
        x = Polynomial.variable(ctx, "X")
        for trial in range(12):
            rank = 1 + trial % 3
            coeffs = HARD_COEFFS if trial % 4 == 3 else (-3, -2, -1, 1, 2, 5)
            gens = _random_module(rng, ctx, rank, rng.randint(1, 3),
                                  rng.randint(2, 4), coeffs)
            gens.append(tuple(a + a - b + x * c
                              for a, b, c in zip(gens[0], gens[1], gens[-1])))
            U = SubmoduleData.from_vectors(ctx, rank, gens)
            want = _greedy_min_gens(U, 2)
            if want != _greedy_min_gens(U, 4):
                continue
            compared += 1
            assert min_gens(U) == want, (ctx.characteristic, gens)
            proper += want < len(gens)
    assert compared >= 20 and proper >= 20


def test_power_piece_rank_one_matches_ideal_powers():
    E = ModuleEmbedding(_ideal("X^2", "Y^3"))
    P2 = E.power_piece(2)
    assert equal(P2, _ideal("X^4", "X^2*Y^3", "Y^6"))


def test_embedding_shares_the_basis_of_its_submodule(monkeypatch):
    # m^2 * A^2 is held as staircases: its embedding computes no basis of
    # its own, and M^2 = m^4 * A^3 takes the monomial path, so no
    # Polynomial is built until generators are read
    made = []
    real = Polynomial.__init__

    def init(self, ctx, terms):
        made.append(1)
        real(self, ctx, terms)

    monkeypatch.setattr(Polynomial, "__init__", init)
    U = maximal_ideal(CTX, rank=2, power=2)
    E = ModuleEmbedding(U)
    assert E.submodule() is U and E.rank == 2
    assert groebner_basis(E.submodule()) is groebner_basis(U)
    P2 = E.power_piece(2)
    assert made == []
    assert equal(P2, maximal_ideal(CTX, rank=3, power=4))
    with pytest.raises(InputError):
        ModuleEmbedding(SubmoduleData.zero(CTX, 0))


def test_ord_examples():
    assert ord_ideal(_ideal("X^3", "X^2*Y^2", "X*Y^3", "Y^5")) == 3
    assert ord_ideal(_ideal("Y^5", "X")) == 1
    assert ord_ideal(_ideal("X^2 + Y^5", "Y^4")) == 2


def test_fiber_cone_hilbert_of_maximal_ideal():
    # the Hilbert function of the fiber cone is mu of the n-th power
    E = m_power_embedding(1)
    for n in range(4):
        assert min_gens(E.power_piece(n)) == n + 1


def test_fitting_ideals_of_presentation():
    E = indecomposable_presentation(CTX)["E"]
    f1 = fitting_ideal(E, 1)
    assert equal(f1, _ideal("X^3", "X^2*Y^2", "X*Y^3", "Y^5"))
    assert ord_ideal(f1) == 3


def test_fitting_invariant_under_row_operations():
    E = indecomposable_presentation(CTX)["E"]
    rows = [[E.columns[j][i] for j in range(len(E.columns))]
            for i in range(E.rank)]
    # replace row 1 by row 1 + X * row 2: a unimodular change of basis
    x = _p("X")
    new_rows = [[a + x * b for a, b in zip(rows[0], rows[1])], rows[1]]
    E2 = ModuleEmbedding.from_matrix(CTX, new_rows)
    for i in range(E.rank):
        assert equal(fitting_ideal(E, i), fitting_ideal(E2, i))


def test_fitting_invariant_under_column_operations():
    E = parameter_module(CTX)
    cols = [list(c) for c in E.columns]
    y = _p("Y")
    cols[0] = [a + y * b for a, b in zip(cols[0], cols[1])]
    E2 = ModuleEmbedding(SubmoduleData.from_vectors(CTX, E.rank, cols))
    for i in range(E.rank):
        assert equal(fitting_ideal(E, i), fitting_ideal(E2, i))


def test_direct_sum_shapes():
    E = parameter_module(CTX)
    D = direct_sum(E, E)
    assert D.rank == 4
    assert len(D.columns) == 6
    assert colength(D.submodule()) == 6
    assert min_gens(D.submodule()) == 6


def test_zero_row_padding_preserves_module_invariants():
    E = parameter_module(CTX)
    z = Polynomial.zero(CTX)
    P = ModuleEmbedding(SubmoduleData(
        CTX, E.rank + 1, tuple(col + (z,) for col in E.columns)))
    assert min_gens(P.submodule()) == min_gens(E.submodule())
    for n in (1, 2, 3):
        assert min_gens(P.power_piece(n)) == min_gens(E.power_piece(n))
    # the quotient by the padded module gains a free summand
    assert colength(P.submodule()) is INFINITE


def test_maximal_ideal_helper():
    m = maximal_ideal(CTX)
    assert equal(m, _ideal("X", "Y"))


def _columns_power_oracle(E, n):
    """groebner_basis of all n-fold products of the columns, multiplied as
    t-linear forms in S = A[t1..tr], each a dict from t-exponents to a
    coefficient over A, and read off by t-monomial, degree-n ones
    descending in degree reverse lexicographic order."""
    r = E.rank
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    forms = [{units[i]: p for i, p in enumerate(col) if not p.is_zero()}
             for col in E.columns]
    monos = sorted((e for e in itertools.product(range(n + 1), repeat=r)
                    if sum(e) == n), key=lambda e: e[::-1])
    index = {e: i for i, e in enumerate(monos)}
    zero = Polynomial.zero(E.ctx)
    products = []
    for combo in itertools.combinations_with_replacement(forms, n):
        f = {(0,) * r: Polynomial.one(E.ctx)}
        for g in combo:
            h = {}
            for s, p in f.items():
                for t, q in g.items():
                    u = tuple(a + b for a, b in zip(s, t))
                    h[u] = h.get(u, zero) + p * q
            f = h
        vec = [zero] * len(monos)
        for t, p in f.items():
            vec[index[t]] = p
        products.append(tuple(vec))
    return groebner_basis(SubmoduleData(E.ctx, len(monos), tuple(products)))


BINOMIAL_ROWS = (("X^2", "X*Y+Y^2", "Y^3", "0"),
                 ("0", "X^2-Y^2", "X*Y", "Y^2"))
SHIFTED_ROWS = (("(X+2*Y)^4", "(X+2*Y)^3*Y", "(X+2*Y)*Y^3", "Y^4"),)
MONOMIAL_ROWS = (("X^2", "X*Y", "Y^3", "0", "0"),
                 ("0", "0", "0", "X", "Y^2"))


def _embedding(rows):
    return ModuleEmbedding.from_matrix(CTX, [[_p(e) for e in r] for r in rows])


def test_power_schedule_matches_column_products():
    for rows in (BINOMIAL_ROWS, SHIFTED_ROWS, MONOMIAL_ROWS):
        E = _embedding(rows)
        for n in range(1, 5):
            assert E.power_piece(n).gens == \
                _columns_power_oracle(E, n).gens, (rows, n)


def test_monomial_powers_of_shifted_ideal_multiply_without_buchberger(
        monkeypatch):
    # I^2 = m^8 and I^3 = m^12 are monomial although I is not, so
    # I^4 = I^2 * I^2 takes the monomial fast path.
    E = _embedding(SHIFTED_ROWS)
    E.power_piece(3)
    calls = []
    real = groebner._buchberger
    monkeypatch.setattr(groebner, "_buchberger",
                        lambda *args: calls.append(1) or real(*args))
    m16 = [_p(f"X^{16 - k}*Y^{k}") for k in range(17)]
    assert equal(E.power_piece(4), SubmoduleData.ideal(CTX, m16))
    assert calls == []


def test_products_reach_buchberger_once_each(monkeypatch):
    seen = []
    real = groebner._buchberger
    monkeypatch.setattr(groebner, "_buchberger", lambda gens, *rest: (
        seen.append([sorted(vp.items()) for vp in gens]), real(gens, *rest))[1])
    E = _embedding(BINOMIAL_ROWS)
    E.power_piece(2)
    products = seen[-1]
    assert len(products) == comb(len(E.power_piece(1).gens) + 1, 2)
    assert all(a != b for a, b in itertools.combinations(products, 2))


def test_power_piece_rejects_negative_degree():
    E = _embedding(BINOMIAL_ROWS)
    with pytest.raises(InputError):
        E.power_piece(-1)


def test_monomial_products_match_column_products_without_polynomials(
        monkeypatch):
    # the integer product of the general branch does not run
    calls = []
    real = rees._integer_product
    monkeypatch.setattr(rees, "_integer_product",
                        lambda *args: calls.append(1) or real(*args))
    for E in (_embedding(MONOMIAL_ROWS), m_power_embedding(4)):
        for n in range(1, 5):
            assert E.power_piece(n).is_monomial()
            assert E.power_piece(n).gens == \
                _columns_power_oracle(E, n).gens, (E, n)
    assert calls == []
    # the counter does see the general path
    _embedding(BINOMIAL_ROWS).power_piece(2)
    assert calls



def test_binomial_powers_reduce_no_more_s_pairs_than_before(monkeypatch):
    # 638 S-vectors were reduced for M^1..M^6 of the binomial module when
    # every input was installed before any pair was reduced, as many with
    # the chain-criterion scan before that; with inputs taken lazily it is
    # 205 (counted the same way, a counter on groebner._spair in a fresh
    # embedding)
    calls = []
    real = groebner._spair
    monkeypatch.setattr(groebner, "_spair",
                        lambda *args: calls.append(1) or real(*args))
    E = _embedding(BINOMIAL_ROWS)
    for n in range(1, 7):
        E.power_piece(n)
    assert 0 < len(calls) <= 205


def _random_finite_colength(rng, ctx, rank, coeffs):
    """Two random forms in A^rank, each of two terms of one degree 2 or 3
    spread over the components, and the pure powers X^a*e_i and Y^b*e_i,
    a and b 3 or 4, that give the module finite colength."""
    z = Polynomial.zero(ctx)
    columns = []
    for _ in range(2):
        d = rng.randint(2, 3)
        vec = [{} for _ in range(rank)]
        for _ in range(2):
            a = rng.randint(0, d)
            vec[rng.randrange(rank)][(a, d - a)] = coefficient(
                rng.choice(coeffs), ctx.characteristic)
        columns.append(tuple(Polynomial(ctx, t) for t in vec))
    for i in range(rank):
        for e in ((rng.randint(3, 4), 0), (0, rng.randint(3, 4))):
            columns.append(tuple(Polynomial.monomial(ctx, e) if c == i
                                 else z for c in range(rank)))
    return ModuleEmbedding(SubmoduleData(ctx, rank, tuple(columns)))


def _shifted_gapped(rng, ctx, rank, coeffs):
    """The direct sum of rank ideals (x^d, x^(d-1)*Y, x*Y^(d-1), Y^d),
    x = X + c*Y with c drawn from coeffs and d 6 or 7.  Their powers are
    not Ratliff-Rush closed, so the chain's colons are larger than the
    step before them."""
    x = (Polynomial.variable(ctx, "X")
         + Polynomial.constant(ctx, rng.choice(coeffs))
         * Polynomial.variable(ctx, "Y"))
    y = Polynomial.variable(ctx, "Y")
    z = Polynomial.zero(ctx)
    columns = []
    for i in range(rank):
        d = rng.randint(6, 7)
        for j in (0, 1, d - 1, d):
            p = x ** (d - j) * y ** j
            columns.append(tuple(p if c == i else z for c in range(rank)))
    return ModuleEmbedding(SubmoduleData(ctx, rank, tuple(columns)))


def test_linear_algebra_colon_matches_syzygy_colon(monkeypatch):
    # Each step of the chain B_k = M^(n+k) : M^k, n = 1 and 2, with the
    # step before it as `inside` (the linear-algebra route) and without
    # (the syzygy route).  The counters make sure the new route ran and
    # found colons larger than `inside`, so the test can pass neither on
    # the fallback alone nor on a route that returns `inside`.
    from test_groebner import HARD_COEFFS  # test_groebner imports this
    ran = []
    real = rees._colon_kernel
    monkeypatch.setattr(rees, "_colon_kernel",
                        lambda *args: ran.append(1) or real(*args))
    rng = random.Random(1414)
    gfp = RingContext(characteristic=32003, base_vars=("X", "Y"))
    proper = 0
    for ctx in (CTX, gfp):
        for coeffs in ((-3, -2, -1, 1, 2, 5), HARD_COEFFS):
            for make, rank in ((_random_finite_colength, 1),
                               (_random_finite_colength, 2),
                               (_random_finite_colength, 2),
                               (_shifted_gapped, 1), (_shifted_gapped, 2)):
                E = make(rng, ctx, rank, coeffs)
                for n in (1, 2):
                    value = E.power_piece(n)
                    for k in (1, 2):
                        args = (E, E.power_piece(n + k),
                                E.power_piece(k), k, n)
                        got = rees.piece_colon(*args, inside=value)
                        assert got.gens == rees.piece_colon(*args).gens, \
                            (E.columns, n, k)
                        proper += got.gens != value.gens
                        value = got
    assert len(ran) >= 20 and proper >= 16
