"""Length polynomials and the theorem-level deciders."""

import random
from math import comb

import pytest

from reescalc import (ClosureOptions, InputError, ModuleEmbedding,
                      RingContext, SubmoduleData, br_coefficients,
                      br_corollary_check, buchsbaum_check,
                      direct_sum_buchsbaum, indecomposability_check,
                      parse_poly, ratliff_rush_module,
                      scaled_buchsbaum_check, theorem12_check)
from reescalc import analysis, groebner
from reescalc.fixtures import (indecomposable_presentation, mixed_direct_sum,
                               parameter_module, rr_ideal_pair,
                               square_direct_sum)

from oracles import newton_closure_oracle
from test_chain_contract import _checks_inside
from test_rees import BINOMIAL_ROWS

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))


def _p(s):
    return parse_poly(s, CTX)


def _ideal_embedding(*gens):
    return ModuleEmbedding(SubmoduleData.ideal(CTX, [_p(g) for g in gens]))


def _diag_embedding(gens1, gens2):
    z = _p("0")
    cols = [(_p(g), z) for g in gens1] + [(z, _p(g)) for g in gens2]
    return ModuleEmbedding(SubmoduleData(CTX, 2, tuple(cols)))


def _block_embedding(rows):
    z = _p("0")
    cols = [tuple(_p(g) if j == i else z for j in range(len(rows)))
            for i, row in enumerate(rows) for g in row]
    return ModuleEmbedding(SubmoduleData(CTX, len(rows), tuple(cols)))


# -- length polynomial ----------------------------------------------------

def _br_polynomial(coefficients, rank, n):
    """The length of F^(n+1)/M^(n+1) that the coefficients give, with
    d = 2 base variables."""
    dr = 2 + rank
    return sum((-1) ** i * c * comb(n + dr - i - 1, dr - 1 - i)
               for i, c in enumerate(coefficients))


def test_br_of_maximal_ideal():
    B = br_coefficients(_ideal_embedding("X", "Y"))
    assert B["coefficients"] == [1, 0, 0]
    assert B["validated_from"] == 0
    # lengths of A/m^(n+1) are the triangular numbers
    for n, ln in enumerate(B["lengths"]):
        assert ln == comb(n + 2, 2)
    assert _br_polynomial(B["coefficients"], 1, 10) == comb(12, 2)


def test_br_of_parameter_module():
    B = br_coefficients(parameter_module(CTX))
    assert B["coefficients"] == [3, 0, 0, 0]
    assert B["validated_from"] == 0


def test_br_matches_measured_lengths():
    E = _ideal_embedding("X^2", "X*Y", "Y^3")
    B = br_coefficients(E)
    from reescalc import colength
    lengths = B["lengths"]
    for n in range(B["validated_from"], len(lengths)):
        assert _br_polynomial(B["coefficients"], 1, n) == lengths[n]
    # one degree past the measured window, polynomial and measurement agree
    n = len(lengths)
    assert _br_polynomial(B["coefficients"], 1, n) == \
        colength(E.power_piece(n + 1))


def test_br_checks_its_deadline_inside_a_power(monkeypatch):
    # power_piece checks the deadline once for each of the n_max + 1
    # powers br_coefficients measures; the powers of a non-monomial module
    # run Buchberger, which checks it too, so a power that overruns still
    # stops.
    checks = _checks_inside(monkeypatch, groebner._buchberger)
    E = ModuleEmbedding.from_matrix(
        CTX, [[_p(e) for e in row] for row in BINOMIAL_ROWS])
    with ClosureOptions(deadline_seconds=60).deadline():
        br_coefficients(E, 6)
    assert len(checks) > 6 + 1
    assert True in checks


def test_br_input_validation():
    with pytest.raises(InputError):
        br_coefficients(_ideal_embedding("X", "Y"), n_max=3)
    with pytest.raises(InputError):
        br_coefficients(_ideal_embedding("X"))  # infinite colength


class _LengthStub:
    """Stands in for an embedding: power_piece(n) is n itself, which the
    patched colength maps to the length the test chose."""

    def __init__(self, rank):
        self.rank = rank

    def power_piece(self, n):
        return n


def test_br_fit_round_trips_arbitrary_integer_lengths(monkeypatch):
    # Lengths given by random integer coefficients from n0 on, and wrong
    # below it, come back as the same coefficients validated from n0.
    rng = random.Random(2028)
    seen = set()
    for _ in range(300):
        r = rng.randint(1, 3)
        ncoef = 2 + r
        c = [rng.randint(1, 10 ** 6)]
        c += [rng.randint(-10 ** 6, 10 ** 6) for _ in range(ncoef - 1)]
        n_max = rng.randint(ncoef + 2, ncoef + 6)
        fit_lo = n_max - ncoef + 1
        n0 = rng.randint(0, fit_lo)
        lengths = [analysis._br_length(c, r, n)
                   + (rng.choice((-1, 1)) * rng.randint(1, 10 ** 3)
                      if n < n0 else 0)
                   for n in range(n_max + 1)]
        monkeypatch.setattr(analysis, "colength", lambda n: lengths[n - 1])
        if fit_lo - n0 < 2:
            with pytest.raises(InputError, match="fewer than 2 validated"):
                br_coefficients(_LengthStub(r), n_max)
            seen.add("short")
            continue
        B = br_coefficients(_LengthStub(r), n_max)
        assert B == {"coefficients": c, "fit_window": [fit_lo, n_max],
                     "validated_from": n0, "lengths": lengths}
        seen.add("fit")
    assert seen == {"fit", "short"}


def test_br_equals_br_of_rr_closure():
    # the length polynomial only sees the module up to Ratliff-Rush closure
    pair = rr_ideal_pair(CTX)
    E = ModuleEmbedding(pair["I"])
    Ert = ModuleEmbedding(ratliff_rush_module(E, 1).submodule)
    assert br_coefficients(E)["coefficients"] == \
        br_coefficients(Ert)["coefficients"]


def test_br_corollary_on_mixed_direct_sum():
    E = mixed_direct_sum(CTX)["E"]
    B = br_coefficients(E)
    assert B["coefficients"] == [123, 70, 0, 0]
    out = br_corollary_check(E, B)
    assert out["verdict"]
    assert out["br1_identity"] and out["higher_coefficients_vanish"]
    assert out["closed_form_lengths"]
    assert out["length_F_mod_closure"] == \
        B["coefficients"][0] - B["coefficients"][1]


def test_br_corollary_precondition_rejected():
    # (X^5, X^2*Y^2, Y^5) is Ratliff-Rush closed but not integrally closed,
    # so the corollary identities are not certified for it
    E = _ideal_embedding("X^5", "X^2*Y^2", "Y^5")
    with pytest.raises(InputError):
        br_corollary_check(E)


# -- closure agreement across powers --------------------------------------

def test_theorem12_on_square_direct_sum():
    E = square_direct_sum(CTX)["E"]
    rep = theorem12_check(E, n_max=4)
    v = rep["verdicts"]
    assert v["closures_agree"] and v["closures_agree_all_powers"]
    assert v["some_power_integrally_closed"] and v["equality_persists"]
    assert v["first_integrally_closed_power"] == 2
    assert v["consistent"]
    table = rep["table"]
    assert [row["colength"] for row in table] == [44, 216, 624, 1360]
    assert table[0]["rr_gap"] == table[0]["ic_gap"] > 0
    assert table[1]["ic_gap"] == 0
    assert not rep["certification"]["inconclusive"]


def test_theorem12_integrally_closed_module_notes_cm_case():
    rep = theorem12_check(_ideal_embedding("X", "Y"), n_max=3)
    assert rep["verdicts"]["first_integrally_closed_power"] == 1
    assert any("Cohen-Macaulay" in note for note in rep["notes"])


def test_theorem12_short_window_is_inconclusive_not_wrong():
    E = square_direct_sum(CTX)["E"]
    rep = theorem12_check(E, n_max=1)
    assert rep["verdicts"]["closures_agree"]
    assert rep["verdicts"]["first_integrally_closed_power"] is None
    assert rep["certification"]["inconclusive"]
    assert rep["warnings"]


def test_theorem12_rejects_infinite_colength():
    with pytest.raises(InputError):
        theorem12_check(_ideal_embedding("X"))


# -- the finite criterion -------------------------------------------------

def test_buchsbaum_fails_on_square_direct_sum_with_witness():
    E = square_direct_sum(CTX)["E"]
    out = buchsbaum_check(E)
    assert not out["verdict"]
    assert not out["m_closure_inside"]
    # X^2*Y^5 lies in m * closure(I) but not in I, in either summand
    assert out["witness"] in ("(X^2*Y^5, 0)", "(0, X^2*Y^5)")


def test_buchsbaum_passes_on_mixed_direct_sum():
    E = mixed_direct_sum(CTX)["E"]
    out = buchsbaum_check(E)
    assert out["verdict"]
    assert out["m_closure_inside"] and out["product_equality"]
    assert out["certified"]
    assert out["tail_closed"] == {"2": True, "3": True, "4": True}
    assert out["closure_gap"] == 2


def test_buchsbaum_on_mixed_sum_builds_no_basis_polynomials(monkeypatch):
    # The criterion compares monomial pieces by their staircases and, when
    # it passes, reports no basis; so no reduced basis held as staircases
    # builds its Polynomials.  E is the matrix of the cli-decide
    # buchsbaum:mixed-sum job.
    built = []
    real = groebner._stair_gens
    monkeypatch.setattr(groebner, "_stair_gens",
                        lambda *args: built.append(args) or real(*args))
    out = buchsbaum_check(mixed_direct_sum(CTX)["E"])
    assert out["verdict"] and out["tail_closed"] == {
        "2": True, "3": True, "4": True}
    assert built == []


def test_buchsbaum_on_integrally_closed_module():
    # diag(m, m^2) is integrally closed, so the criterion holds with gap 0
    E = _diag_embedding(["X", "Y"], ["X^2", "X*Y", "Y^2"])
    out = buchsbaum_check(E)
    assert out["verdict"]
    assert out["closure_gap"] == 0


def test_direct_sum_buchsbaum_mixed():
    fix = mixed_direct_sum(CTX)
    out = direct_sum_buchsbaum(fix["E1"], fix["E2"])
    assert out["verdict"]
    assert out["mixed_products_equal"]
    assert out["direct_sum_agrees"]


def _staircase_of_sums(A, B):
    pts = {(a[0] + b[0], a[1] + b[1]) for a in A for b in B}
    return sorted(p for p in pts if not any(
        q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts))


@pytest.mark.parametrize("rows1, rows2, equal_sums", [
    ([["X^2", "Y^2"]], [["X", "Y^3"]], False),
    ([["X^2", "X*Y", "Y^2"]], [["X^2", "Y^2"]], True),
    ([["X", "Y"], ["X^2", "Y^2"]], [["X", "Y^3"]], False),
    ([["X", "Y"], ["X^2", "X*Y", "Y^2"]], [["X^3", "X*Y", "Y^3"]], True),
], ids=["ideal-pair-fails", "ideal-pair-holds", "rank-2-fails", "rank-2-holds"])
def test_mixed_products_match_exponent_sums(rows1, rows2, equal_sums):
    # Summands are direct sums of monomial ideals, one per row; the mixed
    # product at t_i*s_j is row i of one times row j of the other, and the
    # closures come from the brute-force Newton oracle.
    exps1, exps2 = ([[next(iter(_p(g).terms)) for g in row] for row in rows]
                    for rows in (rows1, rows2))
    bars1, bars2 = ([newton_closure_oracle(r) for r in exps]
                    for exps in (exps1, exps2))
    want = all(_staircase_of_sums(b1, g2) == _staircase_of_sums(g1, g2)
               == _staircase_of_sums(g1, b2)
               for g1, b1 in zip(exps1, bars1) for g2, b2 in zip(exps2, bars2))
    assert want == equal_sums
    out = direct_sum_buchsbaum(_block_embedding(rows1), _block_embedding(rows2))
    assert out["mixed_products_equal"] == want


def test_direct_sum_buchsbaum_square_fails_consistently():
    EI = square_direct_sum(CTX)["EI"]
    out = direct_sum_buchsbaum(EI, EI)
    assert not out["verdict"]
    # the whole-sum check ran and agreed, so no alarm was raised
    assert out["direct_sum_agrees"]


def test_direct_sum_buchsbaum_rejects_non_monomial():
    E = indecomposable_presentation(CTX)["E"]
    with pytest.raises(InputError):
        direct_sum_buchsbaum(E, E)


def test_scaled_buchsbaum_check():
    E = mixed_direct_sum(CTX)["E"]
    m = SubmoduleData.ideal(CTX, [_p("X"), _p("Y")])
    out = scaled_buchsbaum_check(E, m)
    assert out["verdict"] and not out["unit_ideal"]
    unit = SubmoduleData.ideal(CTX, [_p("1")])
    out = scaled_buchsbaum_check(E, unit)
    assert out["verdict"] and out["unit_ideal"]


def test_scaled_buchsbaum_rejects_bad_ideals():
    E = mixed_direct_sum(CTX)["E"]
    with pytest.raises(InputError):  # not integrally closed
        scaled_buchsbaum_check(E, SubmoduleData.ideal(CTX, [_p("X^2"),
                                                            _p("Y^2")]))
    with pytest.raises(InputError):  # infinite colength
        scaled_buchsbaum_check(E, SubmoduleData.ideal(CTX, [_p("X")]))


# -- indecomposability ----------------------------------------------------

def test_indecomposability_certified_for_presentation():
    fix = indecomposable_presentation(CTX)
    out = indecomposability_check(fix["E"], fix["factors"])
    assert out["verdict"]
    assert out["conclusion"] == "indecomposable (certified)"
    assert out["ord_fitt1"] == 3
    assert sorted(out["ord_factors"]) == [1, 5]


def test_indecomposability_inconclusive_for_block_diagonal():
    E = _diag_embedding(["X", "Y"], ["X^2", "X*Y", "Y^2"])
    factors = [SubmoduleData.ideal(CTX, [_p("X"), _p("Y")]),
               SubmoduleData.ideal(CTX, [_p("X^2"), _p("X*Y"), _p("Y^2")])]
    out = indecomposability_check(E, factors)
    assert not out["verdict"]
    assert out["conclusion"] == "criterion inconclusive"


def test_indecomposability_rejects_wrong_factorization():
    fix = indecomposable_presentation(CTX)
    wrong = [SubmoduleData.ideal(CTX, [_p("X"), _p("Y")])]
    with pytest.raises(InputError):
        indecomposability_check(fix["E"], wrong)
