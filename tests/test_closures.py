"""Closure operations: colon chains, Newton polyhedra, integrality tests."""

import random

import pytest

from reescalc import (ClosureOptions, InputError, ModuleEmbedding,
                      Polynomial, RingContext, SoundnessAlert, SubmoduleData,
                      check_integral_equation, closures, contains,
                      direct_sum, equal, groebner, groebner_basis,
                      integral_closure_module, is_reduction, parse_poly,
                      ratliff_rush_module, rees)
from reescalc.closures import newton_closure_exps
from reescalc.fixtures import (indecomposable_presentation, parameter_module,
                               rr_ideal_pair, square_direct_sum)

from oracles import (ideal_from_exps, newton_closure_oracle,
                     random_monomial_ideal)

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))


def _p(s):
    return parse_poly(s, CTX)


def _ideal(*gens):
    return SubmoduleData.ideal(CTX, [_p(g) for g in gens])


def _rr(I):
    return ratliff_rush_module(ModuleEmbedding(I))


def _ic(I):
    return integral_closure_module(ModuleEmbedding(I))


# -- Ratliff-Rush chains --------------------------------------------------

def test_rr_ideal_reference_pair():
    pair = rr_ideal_pair(CTX)
    res = _rr(pair["I"])
    assert equal(res.submodule, pair["I_closure"])
    assert res.method == "colon-chain"
    assert not res.certified
    res = _rr(pair["J"])
    assert equal(res.submodule, pair["J"])


def test_rr_ideal_contains_input_and_idempotent():
    rng = random.Random(314)
    for _ in range(10):
        I = ideal_from_exps(CTX, random_monomial_ideal(rng, max_degree=6))
        res = _rr(I)
        assert contains(res.submodule, I)
        again = _rr(res.submodule)
        assert equal(again.submodule, res.submodule)


def test_rr_module_matches_ideal_route_in_rank_one():
    pair = rr_ideal_pair(CTX)
    E = ModuleEmbedding(pair["I"])
    res = ratliff_rush_module(E, 1)
    assert equal(res.submodule, pair["I_closure"])


def test_rr_module_degenerate_cases():
    # the zero module and fiber degree zero are closed by convention
    Z = ModuleEmbedding(SubmoduleData.ideal(CTX, [Polynomial.zero(CTX)]))
    res = ratliff_rush_module(Z, 1)
    assert res.submodule.is_zero() and res.certified
    E = parameter_module(CTX)
    res = ratliff_rush_module(E, 0)
    assert res.submodule.gens[0][0] == Polynomial.one(CTX)
    # the full free module is closed
    F = ModuleEmbedding.from_matrix(CTX, [[_p("1"), _p("0")],
                                          [_p("0"), _p("1")]])
    res = ratliff_rush_module(F, 1)
    assert equal(res.submodule, SubmoduleData.free(CTX, 2))


def test_rr_module_of_m_times_free_stays_proper():
    # m*F is closed: its chain never reaches the free module
    z = _p("0")
    x, y = _p("X"), _p("Y")
    mF = ModuleEmbedding(
        SubmoduleData(CTX, 2, ((x, z), (y, z), (z, x), (z, y))))
    res = ratliff_rush_module(mF, 1)
    assert equal(res.submodule, mF.submodule())


def test_rr_module_parameter_module_is_closed():
    E = parameter_module(CTX)
    res = ratliff_rush_module(E, 1)
    assert equal(res.submodule, E.submodule())


def test_rr_closure_commutes_with_zero_row_padding():
    pair = rr_ideal_pair(CTX)
    E = ModuleEmbedding(pair["I"])
    z = Polynomial.zero(CTX)
    P = ModuleEmbedding(SubmoduleData(
        CTX, 2, tuple(col + (z,) for col in E.columns)))
    res = ratliff_rush_module(P, 1)
    want = SubmoduleData(CTX, 2, tuple(
        (g[0], z) for g in groebner_basis(pair["I_closure"]).gens))
    assert equal(res.submodule, want)


def test_a_chain_value_outside_the_closure_raises_the_defining_colon_alarm(
        monkeypatch):
    # A colon that returns the whole free piece gives a value W that
    # contains M^2, but W*M is not inside M^3 for M inside mF, so the
    # check W*M^(k*) in M^(n+k*) raises.
    def free_piece(E, W, G, low, ambient, **kwargs):
        return SubmoduleData.free(E.ctx, rees.piece_rank(E.rank, ambient))

    monkeypatch.setattr(closures, "piece_colon", free_piece)
    with pytest.raises(SoundnessAlert, match="defining colon"):
        ratliff_rush_module(parameter_module(CTX), 2)


def _chain_over_powers_of_the_power(E, n, window):
    """The stable value of M^(n(l+1)) : M^(nl) from M^n, stopping
    `window` steps after its last change."""
    value, l, l_star = E.power_piece(n), 0, 0
    while l - l_star < window:
        l += 1
        new = rees.piece_colon(E, E.power_piece(n * (l + 1)),
                               E.power_piece(n * l), n * l, n)
        if new.gens != value.gens:
            value, l_star = new, l
    return value


def _gapped_ideal(rng):
    """(X^d, Y^d) and some of X^(d-i)*Y^i for i in 1, 2, d-2, d-1, with
    d from 6 to 9: the middle of degree d is missing, and the powers of
    such an ideal often have a Ratliff-Rush closure larger than them."""
    d = rng.randint(6, 9)
    keep = [i for i in (1, 2, d - 2, d - 1) if rng.random() < 0.5]
    return ideal_from_exps(CTX, [(d - i, i)
                                 for i in sorted({0, *keep, d})])


def test_chain_of_steps_k_agrees_with_chain_over_powers_of_the_power():
    # The module chain steps M^(n+k) : M^k; at n >= 2 the chain over
    # M^(n(l+1)) : M^(nl) has the same union, and with the same window it
    # stops at the same value on random gapped ideals and rank-2 direct
    # sums of them, which stay on the monomial branch of piece_colon.
    rng = random.Random(2222)
    opts = ClosureOptions()
    proper = 0
    for trial in range(16):
        parts = [ModuleEmbedding(_gapped_ideal(rng))
                 for _ in range(1 + trial % 2)]
        E = parts[0] if len(parts) == 1 else direct_sum(*parts)
        for n in (2, 3):
            got = ratliff_rush_module(E, n, opts).submodule
            want = _chain_over_powers_of_the_power(E, n, opts.window)
            assert got.gens == want.gens, (E.columns, n)
            proper += got.gens != E.power_piece(n).gens
    assert proper >= 4


def test_finite_colength_chains_reach_no_preimage(monkeypatch, tmp_path):
    # rr on the binomial module and iclose on the presentation take the
    # linear-algebra colon at every step; a module of infinite colength
    # still takes the syzygy route, whose preimages and intersections are
    # block eliminations.
    from test_golden import _report
    calls = []
    real = groebner._eliminate_block
    for module in (groebner, rees):
        monkeypatch.setattr(module, "_eliminate_block",
                            lambda *args: calls.append(1) or real(*args))
    for name in ("rr-binomial", "iclose-presentation"):
        _report(name, tmp_path)
    assert calls == []
    _report("rr-infinite", tmp_path)
    assert calls


def test_syzygy_chain_builds_no_polynomial(monkeypatch):
    # The syzygy colon, the powers and the chain's checks all run on
    # kernel vectors: once the input is parsed, the closure of a module
    # of infinite colength constructs no Polynomial until its generators
    # are read.
    from test_chain_contract import infinite_embedding
    E = infinite_embedding()
    made = []
    real = Polynomial.__init__

    def init(self, ctx, terms):
        made.append(1)
        real(self, ctx, terms)

    monkeypatch.setattr(Polynomial, "__init__", init)
    result = ratliff_rush_module(E).submodule
    assert made == []
    assert len(result.gens) == 4 and made


# -- Newton polyhedron closures -------------------------------------------

def test_newton_closure_known_values():
    assert newton_closure_exps([(4, 0), (0, 4)]) == \
        [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    assert newton_closure_exps([(8, 0), (0, 4)]) == \
        [(0, 4), (2, 3), (4, 2), (6, 1), (8, 0)]
    # already integrally closed staircase
    assert newton_closure_exps([(2, 0), (1, 1), (0, 2)]) == \
        [(0, 2), (1, 1), (2, 0)]


def test_newton_closure_against_bruteforce_oracle():
    rng = random.Random(161)
    for _ in range(25):
        exps = random_monomial_ideal(rng, max_degree=6)
        assert newton_closure_exps(exps) == newton_closure_oracle(exps)


def test_newton_closure_non_primary():
    # (X^2*Y^3): principal monomial ideals are integrally closed
    assert newton_closure_exps([(2, 3)]) == [(2, 3)]
    # (X^4, X*Y^2): not of finite colength, closure adds (2, 1)... check
    # against the oracle rather than by hand
    exps = [(4, 0), (1, 2)]
    assert newton_closure_exps(exps) == newton_closure_oracle(exps)


def test_integral_closure_of_a_monomial_ideal():
    res = _ic(_ideal("X^5", "Y^8"))
    assert res.certified and res.method == "newton"
    assert contains(res.submodule, _ideal("X^4*Y^2"))  # 8*4+5*2 = 42 >= 40
    assert not contains(res.submodule, _ideal("X^4*Y"))  # 37 < 40


def test_integral_closure_module_block_monomial():
    E = square_direct_sum(CTX)["E"]
    res = integral_closure_module(E)
    assert res.certified and res.method == "newton"
    # each summand closes independently
    I_closed = _ic(square_direct_sum(CTX)["I"]).submodule
    z = Polynomial.zero(CTX)
    want = [(g[0], z) for g in I_closed.gens] + \
           [(z, g[0]) for g in I_closed.gens]
    assert equal(res.submodule, SubmoduleData(CTX, 2, tuple(want)))


def test_newton_route_checks_its_candidates():
    # X^2*Y^2 is integral over I = (X^4, X^3*Y, X*Y^3, Y^4) and 1 is not;
    # the certified Newton closure is returned only when every candidate
    # lies in it, and the zero module's closure holds no nonzero column
    E = ModuleEmbedding(_ideal("X^4", "X^3*Y", "X*Y^3", "Y^4"))
    res = integral_closure_module(E, candidates=[(_p("X^2*Y^2"),)])
    assert res.certified and res.method == "newton"
    assert equal(res.submodule, _ic(E.submodule()).submodule)
    for bad in [(_p("1"),)], [(_p("X^2*Y^2"),), (_p("X*Y+Y^3"),)]:
        with pytest.raises(InputError, match="integrality test"):
            integral_closure_module(E, candidates=bad)
    zero = ModuleEmbedding(SubmoduleData.zero(CTX, 2))
    assert integral_closure_module(
        zero, candidates=[(Polynomial.zero(CTX),) * 2]).submodule.is_zero()
    with pytest.raises(InputError, match="integrality test"):
        integral_closure_module(zero, candidates=[(_p("X"), _p("0"))])


def test_integral_closure_module_needs_candidates_when_not_monomial():
    E = indecomposable_presentation(CTX)["E"]
    with pytest.raises(InputError):
        integral_closure_module(E)


def test_integral_closure_module_candidate_verified():
    fix = indecomposable_presentation(CTX)
    res = integral_closure_module(fix["E"], candidates=[fix["candidate"]])
    assert not res.certified
    assert res.method == "candidate-verified"
    assert res.extra["candidate_witnesses"] == [1]
    assert res.extra["result_rr_closed"]
    assert res.extra["input_is_reduction"]


def test_integrality_of_a_column_is_a_reduction_test():
    # a column c is integral over M when M is a reduction of M + A*c
    fix = indecomposable_presentation(CTX)
    E = fix["E"]

    def integral(col, s_max=5):
        return is_reduction(E.submodule(),
                            rees.add_columns(E, [col]).submodule(), s_max)

    ok, s = integral(fix["candidate"])
    assert ok and s == 1
    # an element of M itself is integral with witness 0
    ok, s = integral(E.columns[0])
    assert ok and s == 0
    # a unit vector is not integral over a module inside mF; the test
    # reports UNPROVEN (False, None), never a wrong YES
    ok, s = integral((_p("1"), _p("0")), s_max=3)
    assert not ok and s is None


def test_check_integral_equation_certificate():
    fix = indecomposable_presentation(CTX)
    x, coeffs = fix["certificate"]
    assert check_integral_equation(x, coeffs)
    # the variant quadratic with the lower-degree constant term fails
    x_bad, coeffs_bad = fix["certificate_misprint"]
    assert not check_integral_equation(x_bad, coeffs_bad)


def test_check_integral_equation_rejects_bad_degrees():
    fix = indecomposable_presentation(CTX)
    x, (c1, c2) = fix["certificate"]
    with pytest.raises(InputError):
        check_integral_equation(x, [c2, c1])


def test_is_reduction_cases():
    m4 = rr_ideal_pair(CTX)["I_closure"]
    ok, s = is_reduction(_ideal("X^4", "Y^4"), m4)
    assert ok and s >= 1
    # a single principal ideal is not a reduction of m^4; semi-decision
    # stays unproven
    m8 = ModuleEmbedding(m4).power_piece(2)
    ok, s = is_reduction(_ideal("X^8"), m8, s_max=3)
    assert not ok and s is None
    # every module is a reduction of itself with witness 0
    ok, s = is_reduction(m4, m4)
    assert ok and s == 0


def test_rr_inside_integral_closure_examples():
    for gens in (["X^4", "X^3*Y", "X*Y^3", "Y^4"],
                 ["X^5", "X^2*Y^2", "Y^5"],
                 ["X^6", "X*Y^2", "Y^3"]):
        I = _ideal(*gens)
        rr = _rr(I).submodule
        ic = _ic(I).submodule
        assert contains(ic, rr)
        assert contains(rr, I)
