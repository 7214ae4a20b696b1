"""Randomized property suites over monomial inputs.

Each suite runs at least 100 seeded random instances with generator
degrees up to 8.  The suite bodies are plain functions returning a list
of failure descriptions so the acceptance harness can run them too.
"""

import random

from reescalc import (ModuleEmbedding, Polynomial, RingContext, SubmoduleData,
                      contains, equal, groebner_basis,
                      integral_closure_module, member, ratliff_rush_module)
from reescalc.closures import newton_closure_exps
from reescalc.rees import piece_colon

from oracles import ideal_from_exps, random_monomial_ideal

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))


def _rr(I):
    return ratliff_rush_module(ModuleEmbedding(I)).submodule


def _ic(I):
    return integral_closure_module(ModuleEmbedding(I)).submodule


def _instances(seed, count, max_degree=8):
    rng = random.Random(seed)
    return [random_monomial_ideal(rng, max_degree=max_degree)
            for _ in range(count)]


def sandwich_suite(count=100, seed=1001):
    """M inside its Ratliff-Rush closure inside its integral closure."""
    failures = []
    for exps in _instances(seed, count):
        I = ideal_from_exps(CTX, exps)
        rr = _rr(I)
        ic = _ic(I)
        if not (contains(rr, I) and contains(ic, rr)):
            failures.append(f"sandwich violated for {exps}")
    # module version: block-diagonal pairs, fiber degrees up to 3
    rng = random.Random(seed + 1)
    for _ in range(10):
        e1 = random_monomial_ideal(rng, max_degree=5)
        e2 = random_monomial_ideal(rng, max_degree=5)
        z = Polynomial.zero(CTX)
        cols = [(Polynomial.monomial(CTX, e), z) for e in e1] + \
               [(z, Polynomial.monomial(CTX, e)) for e in e2]
        E = ModuleEmbedding(SubmoduleData(CTX, 2, tuple(cols)))
        ic = integral_closure_module(E).submodule
        rr = ratliff_rush_module(E, 1).submodule
        if not (contains(rr, E.submodule()) and contains(ic, rr)):
            failures.append(f"module sandwich violated for {e1}, {e2}")
    return failures


def idempotence_suite(count=100, seed=2002):
    """Both closures are idempotent."""
    failures = []
    for exps in _instances(seed, count):
        I = ideal_from_exps(CTX, exps)
        rr = _rr(I)
        if not equal(_rr(rr), rr):
            failures.append(f"rr not idempotent for {exps}")
        ic = _ic(I)
        if not equal(_ic(ic), ic):
            failures.append(f"closure not idempotent for {exps}")
    return failures


def eventual_equality_suite(count=100, seed=3003, n_cap=6):
    """Some power at most n_cap is Ratliff-Rush closed, and closedness
    holds again for the next two powers."""
    failures = []
    for exps in _instances(seed, count):
        I = ideal_from_exps(CTX, exps)
        powers = ModuleEmbedding(I)
        first = None
        for n in range(1, n_cap + 1):
            In = powers.power_piece(n)
            if equal(_rr(In), In):
                first = n
                break
        if first is None:
            failures.append(f"no closed power at or below {n_cap} for {exps}")
            continue
        for n in (first + 1, first + 2):
            In = powers.power_piece(n)
            if not equal(_rr(In), In):
                failures.append(
                    f"closedness at {first} did not persist to {n} for {exps}")
    return failures


def persistence_suite(count=100, seed=4004, l_cap=8):
    """For the pair I inside its Ratliff-Rush closure N: once I^l = N^l at
    some l, the equality holds at the next three exponents too."""
    failures = []
    for exps in _instances(seed, count):
        I = ideal_from_exps(CTX, exps)
        N = _rr(I)
        powers_i = ModuleEmbedding(I)
        powers_n = ModuleEmbedding(N)
        first = None
        for l in range(1, l_cap + 1):
            if powers_i.power_piece(l).gens == powers_n.power_piece(l).gens:
                first = l
                break
        if first is None:
            failures.append(f"no power equality at or below {l_cap} for {exps}")
            continue
        for l in range(first + 1, first + 4):
            if powers_i.power_piece(l).gens != powers_n.power_piece(l).gens:
                failures.append(
                    f"power equality at {first} broke at {l} for {exps}")
    return failures


def closure_of_powers_suite(count=100, seed=5005, n_cap=4):
    """Newton closure commutes with powers: closure(I^n) = closure(I)^n."""
    failures = []
    for exps in _instances(seed, count, max_degree=6):
        I = ideal_from_exps(CTX, exps)
        Ibar = ideal_from_exps(CTX, newton_closure_exps(exps))
        powers_i = ModuleEmbedding(I)
        powers_b = ModuleEmbedding(Ibar)
        for n in range(1, n_cap + 1):
            In = powers_i.power_piece(n)
            lhs = newton_closure_exps(
                [next(iter(g[0].terms)) for g in In.gens])
            rhs_ideal = powers_b.power_piece(n)
            rhs = newton_closure_exps(
                [next(iter(g[0].terms)) for g in rhs_ideal.gens])
            # closure(I)^n is already integrally closed, so taking the
            # closure again must not change it
            if [next(iter(g[0].terms)) for g in groebner_basis(
                    ideal_from_exps(CTX, rhs)).gens] != \
                    [next(iter(g[0].terms)) for g in rhs_ideal.gens]:
                failures.append(f"closure(I)^{n} not closed for {exps}")
            if lhs != rhs:
                failures.append(f"closure of power {n} mismatch for {exps}")
    return failures


def colon_adjunction_suite(count=100, seed=6006):
    """v in (U : J) exactly when v*J lies in U; U : J is the piece colon
    with J in fiber degree 0 and U inside it."""
    failures = []
    rng = random.Random(seed)
    for _ in range(count):
        U = ideal_from_exps(CTX, random_monomial_ideal(rng, max_degree=8))
        J = ideal_from_exps(CTX, random_monomial_ideal(rng, max_degree=5))
        v = Polynomial.monomial(CTX, (rng.randint(0, 8), rng.randint(0, 8)))
        lhs = member((v,), piece_colon(U, U, J, 0, 1, inside=U))
        rhs = all(member((v * g,), U) for (g,) in J.gens)
        if lhs != rhs:
            failures.append(f"colon adjunction failed for {U.gens}, {J.gens}")
    return failures


def canonicity_suite(count=100, seed=7007):
    """The reduced basis does not depend on generator order, including for
    redundant generating sets."""
    failures = []
    rng = random.Random(seed)
    for _ in range(count):
        exps = random_monomial_ideal(rng, max_degree=8)
        gens = [Polynomial.monomial(CTX, e) for e in exps]
        # toss in a redundant product generator
        gens.append(gens[0] * Polynomial.monomial(
            CTX, (rng.randint(0, 2), rng.randint(0, 2))))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        a = groebner_basis(SubmoduleData.ideal(CTX, gens))
        b = groebner_basis(SubmoduleData.ideal(CTX, shuffled))
        if a.gens != b.gens:
            failures.append(f"basis not canonical for {exps}")
    return failures


def reduction_monotonicity_suite(count=30, seed=8008):
    """For I and its Ratliff-Rush closure N (a verified reduction pair),
    the closure of I contains the closure of every subideal of I that is
    still a reduction of I; here checked on the pair (I, N) itself:
    closures of reduction-related ideals are nested."""
    failures = []
    rng = random.Random(seed)
    from reescalc import is_reduction
    for _ in range(count):
        exps = random_monomial_ideal(rng, max_degree=6)
        I = ideal_from_exps(CTX, exps)
        N = _rr(I)
        ok, _s = is_reduction(I, N, s_max=8)
        if not ok:
            failures.append(f"input not a reduction of its closure: {exps}")
            continue
        rrN = _rr(N)
        if not contains(rrN, _rr(I)):
            failures.append(f"reduction monotonicity failed for {exps}")
    return failures


ALL_SUITES = (
    ("sandwich", sandwich_suite),
    ("idempotence", idempotence_suite),
    ("eventual-equality", eventual_equality_suite),
    ("power-equality-persistence", persistence_suite),
    ("closure-of-powers", closure_of_powers_suite),
    ("colon-adjunction", colon_adjunction_suite),
    ("basis-canonicity", canonicity_suite),
    ("reduction-monotonicity", reduction_monotonicity_suite),
)


def test_sandwich():
    assert sandwich_suite() == []


def test_idempotence():
    assert idempotence_suite() == []


def test_eventual_equality():
    assert eventual_equality_suite() == []


def test_persistence():
    assert persistence_suite() == []


def test_closure_of_powers():
    assert closure_of_powers_suite() == []


def test_colon_adjunction():
    assert colon_adjunction_suite() == []


def test_canonicity():
    assert canonicity_suite() == []


def test_reduction_monotonicity():
    assert reduction_monotonicity_suite() == []
