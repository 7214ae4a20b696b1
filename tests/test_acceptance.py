"""Acceptance gate: the nine headline criteria, each timed and reported.

Every test prints an explicit [PASS]/[FAIL] line (visible in the captured
output of a verbose run) and enforces its runtime budget.
"""

import time

from reescalc import (ModuleEmbedding, RingContext, SubmoduleData,
                      br_coefficients, br_corollary_check, buchsbaum_check,
                      check_integral_equation, colength,
                      direct_sum_buchsbaum, equal, fitting_ideal,
                      indecomposability_check, integral_closure_module,
                      is_parameter_module, is_reduction, member, min_gens,
                      parse_poly, ratliff_rush_module,
                      scaled_buchsbaum_check, theorem12_check)
from reescalc.rees import add_columns, piece_product
from reescalc.cli import main as cli_main
from reescalc.fixtures import (indecomposable_presentation, mixed_direct_sum,
                               parameter_module, rr_ideal_pair,
                               square_direct_sum)

import test_properties
from oracles import colength_oracle

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))


class _Criterion:
    def __init__(self, name, budget_seconds):
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        ok = exc_type is None and elapsed < self.budget
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {self.name} ({elapsed:.1f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"{self.name} exceeded its {self.budget}s budget"
        return False


def _p(s):
    return parse_poly(s, CTX)


def test_criterion_1_rr_ideal_reference_values():
    with _Criterion("1: Ratliff-Rush reference ideals", 10):
        pair = rr_ideal_pair(CTX)
        E = ModuleEmbedding(pair["I"])
        assert equal(ratliff_rush_module(E).submodule, pair["I_closure"])
    with _Criterion("1b: already-closed reference ideal", 10):
        pair = rr_ideal_pair(CTX)
        E = ModuleEmbedding(pair["J"])
        assert equal(ratliff_rush_module(E).submodule, pair["J"])


def test_criterion_2_parameter_module():
    with _Criterion("2: parameter module fixture", 10):
        E = parameter_module(CTX)
        verdict, reasons = is_parameter_module(E)
        assert verdict
        assert equal(ratliff_rush_module(E, 1).submodule, E.submodule())
        assert colength(E.submodule()) == 3
        assert colength_oracle(E.submodule().gens, CTX, 2, degree_cap=5) == 3


def test_criterion_3_square_direct_sum():
    with _Criterion("3: square direct sum analysis", 60):
        fix = square_direct_sum(CTX)
        v = theorem12_check(fix["E"], n_max=4)["verdicts"]
        assert v["closures_agree"] and v["closures_agree_all_powers"]
        assert v["some_power_integrally_closed"] and v["equality_persists"]
        assert v["consistent"]
        out = buchsbaum_check(fix["E"])
        assert not out["verdict"]
        assert out["witness"] is not None
        # the witness lies in m * closure(I) but not in I
        Ibar = integral_closure_module(fix["EI"]).submodule
        w = _p("X^2*Y^5")
        m_Ibar = piece_product(
            Ibar, SubmoduleData.ideal(CTX, [_p("X"), _p("Y")]), 0, Ibar, 1)
        assert member((w,), m_Ibar) and not member((w,), fix["I"])


def test_criterion_4_mixed_direct_sum():
    with _Criterion("4: mixed direct sum criterion", 120):
        fix = mixed_direct_sum(CTX)
        out = buchsbaum_check(fix["E"])
        assert out["verdict"]
        assert out["m_closure_inside"] and out["product_equality"]
        assert out["tail_closed"] == {"2": True, "3": True, "4": True}
        summed = direct_sum_buchsbaum(fix["E1"], fix["E2"])
        assert summed["verdict"] and summed["direct_sum_agrees"]


def test_criterion_5_presentation_corpus():
    with _Criterion("5: indecomposable presentation corpus", 300):
        fix = indecomposable_presentation(CTX)
        E = fix["E"]
        x, coeffs = fix["certificate"]
        assert check_integral_equation(x, coeffs)
        ok, s = is_reduction(E.submodule(),
                             add_columns(E, [fix["candidate"]]).submodule())
        assert ok and s <= 3
        out = buchsbaum_check(E, candidates=[fix["candidate"]])
        assert out["verdict"]
        assert out["m_closure_inside"] and out["product_equality"]
        assert min_gens(E.submodule()) == 7
        assert equal(fitting_ideal(E, 1),
                     SubmoduleData.ideal(CTX, [_p("X^3"), _p("X^2*Y^2"),
                                               _p("X*Y^3"), _p("Y^5")]))
        closed = integral_closure_module(ModuleEmbedding(
            SubmoduleData.ideal(CTX, [_p("X^5"), _p("Y^8")]))).submodule
        factor = SubmoduleData.ideal(CTX, [_p("X"), _p("Y^2")])
        want = piece_product(closed, closed, 0, factor, 0)
        assert equal(fitting_ideal(E, 0), want)
        indec = indecomposability_check(E, fix["factors"])
        assert indec["verdict"]
        assert indec["conclusion"] == "indecomposable (certified)"


def test_criterion_6_length_coefficient_corollary():
    with _Criterion("6: length-coefficient identities", 300):
        E = mixed_direct_sum(CTX)["E"]
        B = br_coefficients(E)
        out = br_corollary_check(E, B)
        assert out["br1_identity"]
        assert out["higher_coefficients_vanish"]
        assert out["closed_form_lengths"]
        assert out["verdict"]


def test_criterion_7_property_suites():
    with _Criterion("7: randomized property suites", 900):
        for name, suite in test_properties.ALL_SUITES:
            failures = suite()
            assert failures == [], f"suite {name}: {failures}"


def test_criterion_8_rescaling_soundness():
    with _Criterion("8: rescaling soundness", 120):
        E = mixed_direct_sum(CTX)["E"]
        m = SubmoduleData.ideal(CTX, [_p("X"), _p("Y")])
        m2 = SubmoduleData.ideal(CTX, [_p("X^2"), _p("X*Y"), _p("Y^2")])
        for I in (m, m2):
            out = scaled_buchsbaum_check(E, I)
            assert out["verdict"]


PROBLEMS = {
    "rr": "matrix {\n  row = X^4, X^3*Y, X*Y^3, Y^4\n}\n",
    "param": "matrix {\n  row = X, Y, 0\n  row = 0, X, Y\n}\n",
    "buchsbaum": ("matrix {\n"
                  "  row = X^6, X^5*Y^2, X^4*Y^3, X^3*Y^4, X*Y^7, Y^8,"
                  " 0, 0, 0, 0, 0\n"
                  "  row = 0, 0, 0, 0, 0, 0,"
                  " X^5, X^4*Y^2, X^3*Y^3, X*Y^6, Y^7\n}\n"),
    "indec": ("matrix {\n"
              "  row = X^3, X^2*Y^2, X*Y^3, Y^5, 0, 0, 0\n"
              "  row = 0, 0, X^3, 0, X^2*Y^2, X*Y^4, Y^5\n}\n"
              "factors {\n  ideal = X, Y^2\n"
              "  ideal = X^5, X^4*Y^2, X^3*Y^4, X^2*Y^5, X*Y^7, Y^8\n}\n"),
}


def test_criterion_9_determinism(tmp_path, capsys):
    with _Criterion("9: byte-identical reports", 300):
        for command, text in PROBLEMS.items():
            path = tmp_path / f"{command}.problem"
            path.write_text(text)
            outputs = []
            for _ in range(2):
                status = cli_main([command, str(path)])
                captured = capsys.readouterr()
                assert status == 0, (command, captured.err)
                outputs.append(captured.out)
            assert outputs[0] == outputs[1], f"{command} not deterministic"
        outputs = []
        for _ in range(2):
            status = cli_main(["fixtures"])
            captured = capsys.readouterr()
            assert status == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
