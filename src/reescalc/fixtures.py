"""Built-in worked examples with their expected outcomes.

Each constructor returns the raw objects; run_all executes the full
battery and reports one verdict per fixture, for the CLI `fixtures`
command and the regression suite.
"""

from .analysis import (br_coefficients, br_corollary_check, buchsbaum_check,
                       direct_sum_buchsbaum, indecomposability_check,
                       scaled_buchsbaum_check, theorem12_check)
from .closures import (check_integral_equation, integral_closure_module,
                       ratliff_rush_module)
from .context import RingContext
from .groebner import SubmoduleData, equal
from .poly import Polynomial, parse_poly
from .rees import ModuleEmbedding, direct_sum, is_parameter_module, min_gens


def default_context():
    return RingContext(characteristic=0, base_vars=("X", "Y"))


def _ideal(ctx, gens):
    return SubmoduleData.ideal(ctx, [parse_poly(g, ctx) for g in gens])


def _embedding(ctx, rows):
    parsed = [[parse_poly(e, ctx) for e in row] for row in rows]
    return ModuleEmbedding.from_matrix(ctx, parsed)


def rr_ideal_pair(ctx=None):
    """Two ideals with known Ratliff-Rush closures: the first opens up to
    the full power of the maximal ideal, the second is already closed."""
    ctx = ctx or default_context()
    I = _ideal(ctx, ["X^4", "X^3*Y", "X*Y^3", "Y^4"])
    J = _ideal(ctx, ["X^5", "X^2*Y^2", "Y^5"])
    m4 = _ideal(ctx, ["X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4"])
    return {"I": I, "J": J, "I_closure": m4, "J_closure": J}


def parameter_module(ctx=None):
    """Rank-2 parameter module, Ratliff-Rush closed with colength 3."""
    ctx = ctx or default_context()
    return _embedding(ctx, [["X", "Y", "0"], ["0", "X", "Y"]])


def square_direct_sum(ctx=None):
    """I + I in rank 2 for I = (X^4, X^3*Y^2, X*Y^6, Y^8): both closures of
    the sum agree, but the Buchsbaum criterion fails."""
    ctx = ctx or default_context()
    I = _ideal(ctx, ["X^4", "X^3*Y^2", "X*Y^6", "Y^8"])
    EI = ModuleEmbedding(I)
    return {"I": I, "E": direct_sum(EI, EI), "EI": EI}


def mixed_direct_sum(ctx=None):
    """I1 + I2 in rank 2 passing the full Buchsbaum criterion."""
    ctx = ctx or default_context()
    I1 = _ideal(ctx, ["X^6", "X^5*Y^2", "X^4*Y^3", "X^3*Y^4", "X*Y^7", "Y^8"])
    I2 = _ideal(ctx, ["X^5", "X^4*Y^2", "X^3*Y^3", "X*Y^6", "Y^7"])
    E1 = ModuleEmbedding(I1)
    E2 = ModuleEmbedding(I2)
    return {"I1": I1, "I2": I2, "E1": E1, "E2": E2,
            "E": direct_sum(E1, E2)}


def indecomposable_presentation(ctx=None):
    """Rank-2 module given by a 2x7 matrix: 7 minimal generators, known
    integral closure M + one extra column, indecomposable by the
    Fitting-order criterion.

    The integrality certificate for the extra column is included; the
    variant with X^3 in place of X^4 in the constant term fails the exact
    identity (the cross terms do not cancel), so it is kept as a negative
    control.
    """
    ctx = ctx or default_context()
    E = _embedding(ctx, [
        ["X^3", "X^2*Y^2", "X*Y^3", "Y^5", "0", "0", "0"],
        ["0", "0", "X^3", "0", "X^2*Y^2", "X*Y^4", "Y^5"],
    ])
    candidate = (parse_poly("X*Y^4", ctx), Polynomial.zero(ctx))
    # elements of S = A[t1, t2], as {t-exponents: coefficient over A}
    x = {(1, 0): parse_poly("X*Y^4", ctx)}
    c1 = {(1, 0): parse_poly("-X*Y^4", ctx),
          (0, 1): parse_poly("-X^3*Y", ctx)}
    c2 = {(1, 1): parse_poly("X^4*Y^5", ctx)}
    c2_misprint = {(1, 1): parse_poly("X^3*Y^5", ctx)}
    factor_small = _ideal(ctx, ["X", "Y^2"])
    factor_big = integral_closure_module(ModuleEmbedding(
        _ideal(ctx, ["X^5", "Y^8"]))).submodule
    return {"E": E, "candidate": candidate,
            "certificate": (x, [c1, c2]),
            "certificate_misprint": (x, [c1, c2_misprint]),
            "factors": [factor_small, factor_big]}


def _check(name, ok, details, out):
    out.append({"fixture": name, "ok": bool(ok), "details": details})
    return ok


def run_all():
    """Execute the whole corpus; returns (all_ok, list of per-check rows)."""
    out = []
    ctx = default_context()

    fix = rr_ideal_pair(ctx)
    rr_i = ratliff_rush_module(ModuleEmbedding(fix["I"]))
    _check("rr-ideal-pair/I", equal(rr_i.submodule, fix["I_closure"]),
           {"generators": [str(g[0]) for g in rr_i.submodule.gens]}, out)
    rr_j = ratliff_rush_module(ModuleEmbedding(fix["J"]))
    _check("rr-ideal-pair/J", equal(rr_j.submodule, fix["J_closure"]),
           {"generators": [str(g[0]) for g in rr_j.submodule.gens]}, out)

    E = parameter_module(ctx)
    verdict, reasons = is_parameter_module(E)
    rr_m = ratliff_rush_module(E, 1)
    _check("parameter-module", verdict
           and reasons["colength"] == 3
           and equal(rr_m.submodule, E.submodule()),
           reasons, out)

    sq = square_direct_sum(ctx)
    verdicts = theorem12_check(sq["E"])["verdicts"]
    _check("square-direct-sum/equivalences",
           verdicts["consistent"] and verdicts["closures_agree"],
           verdicts, out)
    bc = buchsbaum_check(sq["E"])
    _check("square-direct-sum/criterion-fails",
           not bc["verdict"] and bc["witness"] is not None,
           {"witness": bc["witness"]}, out)

    mx = mixed_direct_sum(ctx)
    bc2 = buchsbaum_check(mx["E"])
    _check("mixed-direct-sum/criterion",
           bc2["verdict"] and all(bc2["tail_closed"].values()),
           {"closure_gap": bc2.get("closure_gap")}, out)
    ds = direct_sum_buchsbaum(mx["E1"], mx["E2"])
    _check("mixed-direct-sum/summandwise", ds["verdict"],
           {"mixed_products_equal": ds["mixed_products_equal"]}, out)
    B = br_coefficients(mx["E"])
    cc = br_corollary_check(mx["E"], B)
    _check("mixed-direct-sum/coefficients", cc["verdict"],
           {"coefficients": B["coefficients"]}, out)
    for scaling in (["X", "Y"], ["X^2", "X*Y", "Y^2"]):
        sc = scaled_buchsbaum_check(mx["E"], _ideal(ctx, scaling))
        _check(f"mixed-direct-sum/rescaled-{len(scaling) - 1}",
               sc["verdict"], {}, out)

    pr = indecomposable_presentation(ctx)
    x, coeffs = pr["certificate"]
    cert_ok = check_integral_equation(x, coeffs)
    xm, coeffs_m = pr["certificate_misprint"]
    _check("indecomposable-presentation/certificate",
           cert_ok and not check_integral_equation(xm, coeffs_m),
           {"identity_holds": cert_ok}, out)
    bc3 = buchsbaum_check(pr["E"], candidates=[pr["candidate"]])
    _check("indecomposable-presentation/criterion", bc3["verdict"],
           {"closure_method": bc3["closure_method"]}, out)
    M = pr["E"].submodule()
    _check("indecomposable-presentation/mu", min_gens(M) == 7,
           {"mu": min_gens(M)}, out)
    ind = indecomposability_check(pr["E"], pr["factors"])
    _check("indecomposable-presentation/indecomposable", ind["verdict"],
           {"conclusion": ind["conclusion"]}, out)

    all_ok = all(row["ok"] for row in out)
    return all_ok, out
