"""Theorem-level deciders built on the closure and graded-piece layers.

Everything here compares exact lengths and exact submodule identities.
Implications that are guaranteed once the closures are right are
re-verified at runtime; a failure raises SoundnessAlert instead of being
reported as a mathematical result, since it can only mean a bug or an
uncertified closure.
"""

from math import comb

from .closures import (ClosureOptions, integral_closure_module,
                       ratliff_rush_module)
from .errors import InputError, SoundnessAlert
from .groebner import SubmoduleData, contains, equal, groebner_basis, member
from .rees import (INFINITE, ModuleEmbedding, colength, direct_sum,
                   fitting_ideal, maximal_ideal, ord_ideal, piece_product,
                   scale_by_ideal)


def _br_length(coefficients, rank, n):
    """The length of F^(n+1)/M^(n+1) that the polynomial with these
    coefficients (br_coefficients) gives at n."""
    dr = 2 + rank
    return sum((-1) ** i * c * comb(n + dr - i - 1, dr - 1 - i)
               for i, c in enumerate(coefficients))


def br_coefficients(E, n_max=None):
    """Buchsbaum-Rim coefficients br_0 .. br_(d+r-1), fitted in integers.

    Lengths are measured for n = 0..n_max, the coefficients are read off
    the backward differences of the top d+r of them, exactly, and the
    polynomial is validated backward until the first mismatch.

    Returns a dict: "coefficients" (br_0 .. br_(d+r-1), the length of
    F^(n+1)/M^(n+1) being sum over i of (-1)^i * br_i * C(n+d+r-i-1,
    d+r-1-i) with d = 2), "fit_window" ([lo, n_max], the degrees solved
    on), "validated_from" (the smallest n from which the polynomial
    reproduces every measured length) and "lengths" (n = 0..n_max).
    """
    r = E.rank
    ncoef = 2 + r  # d + r, with d = 2 base variables
    if n_max is None:
        n_max = ncoef + 4
    if n_max < ncoef + 2:
        raise InputError(f"n_max must be at least {ncoef + 2}")
    lengths = []
    for n in range(n_max + 1):
        ln = colength(E.power_piece(n + 1))
        if ln is INFINITE:
            raise InputError("infinite colength; no length polynomial exists")
        lengths.append(ln)
    fit_lo = n_max - ncoef + 1
    # With a_j the coefficient of C(n+j, j), so that br_i = (-1)^i * a_j
    # for j = ncoef-1-i, the m-th backward difference of the lengths at
    # n_max is the sum over j >= m of a_j * C(n_max+j-m, j-m): the a_j
    # follow from the top down, in integers, from the window's lengths.
    diff, nabla = lengths[fit_lo:], []
    while diff:
        nabla.append(diff[-1])
        diff = [b - a for a, b in zip(diff, diff[1:])]
    a = [0] * ncoef
    for m in reversed(range(ncoef)):
        a[m] = nabla[m] - sum(a[j] * comb(n_max + j - m, j - m)
                              for j in range(m + 1, ncoef))
    coeffs = [(-1) ** i * a[ncoef - 1 - i] for i in range(ncoef)]
    validated_from = fit_lo
    for n in range(fit_lo - 1, -1, -1):
        if _br_length(coeffs, r, n) != lengths[n]:
            break
        validated_from = n
    if fit_lo - validated_from < 2:
        raise InputError(
            "fewer than 2 validated points below the fit window; raise n_max")
    for n in range(fit_lo, n_max + 1):
        if _br_length(coeffs, r, n) != lengths[n]:
            raise SoundnessAlert("fitted polynomial fails on its own window")
    if 0 < lengths[0] and coeffs[0] <= 0:
        raise SoundnessAlert("leading Buchsbaum-Rim coefficient not positive")
    return {"coefficients": coeffs, "fit_window": [fit_lo, n_max],
            "validated_from": validated_from, "lengths": lengths}


def br_corollary_check(E, B=None, opts=None):
    """Identities tying the coefficients to the integral closure, valid when
    the Ratliff-Rush and integral closures of M agree.  B is the dict of
    br_coefficients(E), computed when not given."""
    opts = opts or ClosureOptions()
    if B is None:
        B = br_coefficients(E)
    coeffs = B["coefficients"]
    rr = ratliff_rush_module(E, 1, opts)
    mbar = integral_closure_module(E, opts=opts)
    if not equal(rr.submodule, mbar.submodule):
        raise InputError(
            "corollary precondition (Ratliff-Rush = integral closure) not certified")
    r = E.rank
    len_mbar = colength(mbar.submodule)
    clause_br1 = coeffs[1] == coeffs[0] - len_mbar
    clause_vanish = all(coeffs[i] == 0 for i in range(2, r + 2))
    Ebar = ModuleEmbedding(mbar.submodule)
    samples = []
    hi = B["fit_window"][1]
    for n in range(hi - 2, hi + 1):
        measured = colength(Ebar.power_piece(n + 1))
        predicted = _br_length(coeffs[:2], r, n)
        samples.append({"n": n, "measured": measured, "predicted": predicted})
    clause_formula = all(s["measured"] == s["predicted"] for s in samples)
    return {
        "verdict": clause_br1 and clause_vanish and clause_formula,
        "br1_identity": clause_br1,
        "higher_coefficients_vanish": clause_vanish,
        "closed_form_lengths": clause_formula,
        "length_F_mod_closure": len_mbar,
        "samples": samples,
        "certified": mbar.certified,
    }


def _gap(sub_piece, closure_piece):
    """Length of closure/sub, as a difference of ambient colengths."""
    a = colength(sub_piece)
    b = colength(closure_piece)
    if a is INFINITE or b is INFINITE:
        return INFINITE
    return a - b


def theorem12_check(E, n_max=None, candidates=None, opts=None):
    """The four finite equivalent conditions on closure agreement.

    (1) the Ratliff-Rush and integral closures of M agree; (2) they agree
    for every power up to n_max; (3) some power is integrally closed; (4)
    from that power on, all are.  The four verdicts must be consistent;
    a definite contradiction raises SoundnessAlert.

    Returns a dict: "table" (per n: "n", "colength" of M^n, "rr_gap" and
    "ic_gap", the lengths of its two closures over it), "verdicts" (the
    four conditions, "first_integrally_closed_power" and "consistent"),
    "certification" (the closure method, what is certified and whether
    the window was "inconclusive"), "warnings" and "notes".
    """
    opts = opts or ClosureOptions()
    if n_max is None:
        n_max = 4
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    if colength(E.submodule()) is INFINITE:
        raise InputError("analysis requires finite colength")
    mbar = integral_closure_module(E, candidates=candidates, opts=opts)
    Ebar = ModuleEmbedding(mbar.submodule)
    table = []
    rr_equal_ic = []
    ic_closed = []
    warnings = []
    notes = []
    for n in range(1, n_max + 1):
        Mn = E.power_piece(n)
        rr_n = ratliff_rush_module(E, n, opts)
        bar_n = Ebar.power_piece(n)
        rr_gap = _gap(Mn, rr_n.submodule)
        ic_gap = _gap(Mn, bar_n)
        table.append({"n": n, "colength": colength(Mn),
                      "rr_gap": rr_gap, "ic_gap": ic_gap})
        if rr_gap > ic_gap:
            raise SoundnessAlert(
                f"Ratliff-Rush gap exceeds integral-closure gap at n={n}")
        rr_equal_ic.append(equal(rr_n.submodule, bar_n))
        ic_closed.append(ic_gap == 0)
    cond1 = rr_equal_ic[0]
    cond2 = all(rr_equal_ic)
    first_closed = next((n for n, ok in zip(range(1, n_max + 1), ic_closed)
                         if ok), None)
    cond3 = first_closed is not None
    cond4 = cond3 and all(ic_closed[first_closed - 1:])
    if cond1 and not cond2:
        raise SoundnessAlert(
            "closures agree at n=1 but diverge at a higher power")
    if cond3 and not cond1:
        raise SoundnessAlert(
            "a power is integrally closed yet the closures of M differ")
    if cond3 and not cond4:
        raise SoundnessAlert(
            "integral closedness of powers failed to persist")
    if cond1 and not cond3:
        warnings.append(
            f"no integrally closed power found up to n_max={n_max}; "
            "conditions (3), (4) inconclusive at this window")
    if first_closed == 1:
        notes.append("M is integrally closed: the Cohen-Macaulay case")
    verdicts = {
        "closures_agree": cond1,
        "closures_agree_all_powers": cond2,
        "some_power_integrally_closed": cond3,
        "equality_persists": cond4,
        "first_integrally_closed_power": first_closed,
        "consistent": cond1 == cond2 == cond3 == cond4,
    }
    certification = {
        "integral_closure_method": mbar.method,
        "integral_closure_certified": mbar.certified,
        "ratliff_rush_certified": False,
        "inconclusive": bool(warnings),
    }
    return {"table": table, "verdicts": verdicts,
            "certification": certification, "warnings": warnings,
            "notes": notes}


def buchsbaum_check(E, candidates=None, opts=None):
    """The finite criterion: m * closure(M) inside M, and M * closure(M)
    equal to M^2 in the fiber-degree-2 piece.

    The closure is integral_closure_module(E, candidates, opts).  When
    both clauses hold, the guaranteed tail facts are re-verified: every
    power from 2 to 4 is integrally closed, and the closure gap is
    reported in degree 1.

    Returns a dict: "verdict", the two clauses "m_closure_inside" and
    "product_equality", "witness" (a generator of m * closure(M) outside
    M, or None), "certified" and "closure_method" of the closure, and,
    when the verdict holds, "tail_closed" ({"2": .., "3": .., "4": ..})
    and "closure_gap".
    """
    opts = opts or ClosureOptions()
    mbar = integral_closure_module(E, candidates=candidates, opts=opts)
    Mbar = mbar.submodule
    M = E.submodule()
    m_mbar = piece_product(E, maximal_ideal(E.ctx), 0, Mbar, 1)
    clause_m = contains(groebner_basis(M), m_mbar)
    witness = None
    if not clause_m:
        for g in m_mbar.gens:
            if not member(g, M):
                witness = "(" + ", ".join(map(str, g)) + ")"
                break
    prod = piece_product(E, groebner_basis(M), 1, groebner_basis(Mbar), 1)
    clause_prod = equal(prod, E.power_piece(2))
    verdict = clause_m and clause_prod
    result = {
        "verdict": verdict,
        "m_closure_inside": clause_m,
        "product_equality": clause_prod,
        "witness": witness,
        "certified": mbar.certified,
        "closure_method": mbar.method,
    }
    if verdict:
        Ebar = ModuleEmbedding(Mbar)
        tail = {}
        for n in range(2, 5):
            tail[n] = equal(Ebar.power_piece(n), E.power_piece(n))
        if not all(tail.values()):
            raise SoundnessAlert(
                "criterion passed but a power in degrees 2..4 is not closed")
        result["tail_closed"] = {str(n): v for n, v in tail.items()}
        result["closure_gap"] = _gap(M, Mbar)
    return result


def direct_sum_buchsbaum(E1, E2, opts=None):
    """Summandwise criterion plus the mixed-product equalities, checked for
    consistency against the criterion on the direct sum itself."""
    opts = opts or ClosureOptions()
    if E1.ctx != E2.ctx:
        raise InputError("summands live over different rings")
    for E in (E1, E2):
        if not E.submodule().is_monomial():
            raise InputError(
                "direct-sum criterion needs monomial summands (exact closures)")
    check1 = buchsbaum_check(E1, opts=opts)
    check2 = buchsbaum_check(E2, opts=opts)
    bar1 = integral_closure_module(E1, opts=opts).submodule
    bar2 = integral_closure_module(E2, opts=opts).submodule
    # In the direct sum the fiber-degree-2 product of the two padded
    # summands lies in the mixed components t_i*s_j alone.
    whole_sum = direct_sum(E1, E2)
    bar_sum = direct_sum(ModuleEmbedding(bar1), ModuleEmbedding(bar2))

    def summands(D, n1):
        return (SubmoduleData(D.ctx, D.rank, D.columns[:n1]),
                SubmoduleData(D.ctx, D.rank, D.columns[n1:]))

    M1, M2 = summands(whole_sum, len(E1.columns))
    B1, B2 = summands(bar_sum, len(bar1.gens))
    p_plain = piece_product(whole_sum, M1, 1, M2, 1)
    mixed_ok = (equal(piece_product(whole_sum, B1, 1, M2, 1), p_plain)
                and equal(p_plain, piece_product(whole_sum, M1, 1, B2, 1)))
    verdict = check1["verdict"] and check2["verdict"] and mixed_ok
    whole = buchsbaum_check(whole_sum, opts=opts)
    if whole["verdict"] != verdict:
        raise SoundnessAlert(
            "summandwise criterion disagrees with the direct-sum criterion")
    return {
        "verdict": verdict,
        "summand_1": check1,
        "summand_2": check2,
        "mixed_products_equal": mixed_ok,
        "direct_sum_agrees": True,
    }


def _integrally_closed(I, opts):
    """Whether the reduced basis I of a monomial ideal is its own integral
    closure."""
    closure = integral_closure_module(ModuleEmbedding(I), opts=opts)
    return equal(closure.submodule, I)


def scaled_buchsbaum_check(E, I, opts=None):
    """Rescaling by an integrally closed m-primary monomial ideal must
    preserve a passing criterion; a failure is a soundness alarm."""
    opts = opts or ClosureOptions()
    base = buchsbaum_check(E, opts=opts)
    if not base["verdict"]:
        raise InputError("base module does not pass the criterion")
    I = groebner_basis(I)
    unit = I.rank == 1 and colength(I) == 0
    if not unit:
        if not I.is_monomial():
            raise InputError("scaling ideal must be monomial")
        if not _integrally_closed(I, opts):
            raise InputError("scaling ideal is not integrally closed")
        if colength(I) is INFINITE:
            raise InputError("scaling ideal must have finite colength")
        scaled = scale_by_ideal(E, I)
    else:
        scaled = E
    check = buchsbaum_check(scaled, opts=opts)
    if not check["verdict"]:
        raise SoundnessAlert(
            "rescaled module failed a criterion the theory guarantees")
    return {
        "verdict": True,
        "base": base,
        "scaled": check,
        "unit_ideal": unit,
    }


def indecomposability_check(E, factors, opts=None):
    """Order-of-Fitting-ideal criterion for indecomposability at rank 2.

    A passing check certifies indecomposability; a failing check is only
    inconclusive, never a decomposability claim.
    """
    opts = opts or ClosureOptions()
    if E.rank != 2:
        raise InputError("the criterion applies to rank-2 embeddings only")
    if not factors:
        raise InputError("a factorization of the 0th Fitting ideal is needed")
    product = None
    for I in factors:
        I = groebner_basis(I)
        if not I.is_monomial():
            raise InputError("factors must be monomial ideals")
        if not _integrally_closed(I, opts):
            raise InputError("factor is not integrally closed")
        product = I if product is None else piece_product(I, product, 0, I, 0)
    fitt0 = fitting_ideal(E, 0)
    if not equal(product, fitt0):
        raise InputError("factor product differs from the 0th Fitting ideal")
    if not _integrally_closed(fitt0, opts):
        raise InputError("the 0th Fitting ideal is not integrally closed")
    ord_fitt1 = ord_ideal(fitting_ideal(E, 1))
    ord_factors = [ord_ideal(groebner_basis(I)) for I in factors]
    passed = ord_fitt1 > min(ord_factors)
    return {
        "verdict": passed,
        "conclusion": ("indecomposable (certified)" if passed
                       else "criterion inconclusive"),
        "ord_fitt1": ord_fitt1,
        "ord_factors": ord_factors,
    }
