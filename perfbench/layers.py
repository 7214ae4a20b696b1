"""Per-layer metrics from the spans of traced jobs.

A span is [job, id, parent, name, start, duration, self, extra] with
times in integer nanoseconds and name `<module>.<function>`.  Self time
is the span's duration minus the time its child spans cover.  `extra`
depends on the function:

- `groebner.groebner_basis`: [kind, generators in, basis size out], kind
  "hit", "mono" or "general", decided from the argument before the call;
- `rees.power_piece`: [computed, duplicate], computed false for a piece
  served from the embedding's cache, duplicate true for a computed piece
  whose (rank, columns, n) was already computed in the same job;
- `rees.piece_product`: number of generators fed to the basis;
- closures functions: stabilization index + window of a returned
  colon-chain result.
"""

from __future__ import annotations

from collections import Counter

# Modules of reescalc measured as layers.  `context` is left out: its
# mon_* primitives run millions of times per job, so wrapping them from
# outside would distort the run.
LAYERS = ("problem", "poly", "groebner", "rees", "closures", "analysis",
          "cli")
# Hot leaf helpers left unwrapped for the same reason; their time counts
# as self time of their callers.
UNWRAPPED = {"rees": ("fiber_basis", "piece_rank")}

DECIDERS = ("br_coefficients", "theorem12_check", "buchsbaum_check",
            "scaled_buchsbaum_check", "direct_sum_buchsbaum",
            "br_corollary_check", "indecomposability_check")
MEMBERSHIP = ("normal_form", "contains", "member", "equal")
REDUCTION_TESTS = ("is_reduction", "is_integral_element")

METRICS = (
    "groebner.gb_calls", "groebner.gb_hit_frac", "groebner.gb_mono_calls",
    "groebner.gb_mono_self_s", "groebner.gb_general_calls",
    "groebner.gb_general_self_s", "groebner.gb_keep_frac",
    "groebner.preimage.calls", "groebner.preimage.self_s",
    "groebner.intersect.self_s", "groebner.colon.self_s",
    "groebner.membership.calls", "groebner.membership.self_s",
    "groebner.self_s",
    "rees.power_piece.calls", "rees.power_piece.computed",
    "rees.power_piece.dup_frac", "rees.piece_product.in_gens",
    "rees.piece_product.self_s", "rees.multiply_piece_vectors.calls",
    "rees.multiply_piece_vectors.self_s", "rees.colength.self_s",
    "rees.min_gens.self_s", "rees.self_s",
    "closures.ratliff_rush_module.self_s",
    "closures.ratliff_rush_ideal.self_s",
    "closures.integral_closure_module.self_s",
    "closures.reduction_tests.self_s", "closures.chain_steps",
    "closures.self_s",
    *(f"analysis.{d}.total_s" for d in DECIDERS), "analysis.self_s",
    "problem.parse_problem.self_s", "poly.parse_poly.calls",
    "poly.parse_poly.self_s", "cli.main.self_s", "cli.import_s",
)


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(traces):
    """Per-layer metrics of one pass, from the span files of its jobs.

    Each trace is {"job": id, "import_s": seconds, "spans": [...]}.
    """
    calls = Counter()
    self_s = Counter()
    total_s = Counter()
    gb = Counter()
    pieces = Counter()
    in_gens = 0
    chain_steps = 0
    import_s = 0.0
    for trace in traces:
        import_s += trace["import_s"]
        names = {}
        for _, sid, parent, name, _, _, _, _ in trace["spans"]:
            names[sid] = (parent, name)
        for _, sid, parent, name, _, dur, own, extra in trace["spans"]:
            dur *= 1e-9
            own *= 1e-9
            layer, func = name.split(".", 1)
            calls[name] += 1
            self_s[name] += own
            self_s[layer] += own
            if layer == "analysis" and not _nested_in_same(names, parent,
                                                           name):
                total_s[func] += dur
            if name == "groebner.groebner_basis":
                kind, n_in, n_out = extra
                gb[kind] += 1
                gb[f"{kind}_self"] += own
                if kind == "general":
                    gb["in"] += n_in
                    gb["out"] += n_out
            elif name == "rees.power_piece":
                computed, duplicate = extra
                pieces["computed"] += computed
                pieces["duplicate"] += duplicate
            elif name == "rees.piece_product":
                in_gens += extra
            elif layer == "closures" and extra is not None:
                chain_steps += extra

    def sum_self(layer, funcs):
        return sum(self_s[f"{layer}.{f}"] for f in funcs)

    gb_calls = calls["groebner.groebner_basis"]
    out = {
        "groebner.gb_calls": gb_calls,
        "groebner.gb_hit_frac": _ratio(gb["hit"], gb_calls),
        "groebner.gb_mono_calls": gb["mono"],
        "groebner.gb_mono_self_s": gb["mono_self"],
        "groebner.gb_general_calls": gb["general"],
        "groebner.gb_general_self_s": gb["general_self"],
        "groebner.gb_keep_frac": _ratio(gb["out"], gb["in"]),
        "groebner.preimage.calls": calls["groebner.preimage"],
        "groebner.preimage.self_s": self_s["groebner.preimage"],
        "groebner.intersect.self_s": self_s["groebner.intersect"],
        "groebner.colon.self_s": self_s["groebner.colon"],
        "groebner.membership.calls": sum(calls[f"groebner.{f}"]
                                         for f in MEMBERSHIP),
        "groebner.membership.self_s": sum_self("groebner", MEMBERSHIP),
        "groebner.self_s": self_s["groebner"],
        "rees.power_piece.calls": calls["rees.power_piece"],
        "rees.power_piece.computed": pieces["computed"],
        "rees.power_piece.dup_frac": _ratio(pieces["duplicate"],
                                            pieces["computed"]),
        "rees.piece_product.in_gens": in_gens,
        "rees.piece_product.self_s": self_s["rees.piece_product"],
        "rees.multiply_piece_vectors.calls":
            calls["rees.multiply_piece_vectors"],
        "rees.multiply_piece_vectors.self_s":
            self_s["rees.multiply_piece_vectors"],
        "rees.colength.self_s": self_s["rees.colength"],
        "rees.min_gens.self_s": self_s["rees.min_gens"],
        "rees.self_s": self_s["rees"],
        "closures.ratliff_rush_module.self_s":
            self_s["closures.ratliff_rush_module"],
        "closures.ratliff_rush_ideal.self_s":
            self_s["closures.ratliff_rush_ideal"],
        "closures.integral_closure_module.self_s":
            self_s["closures.integral_closure_module"],
        "closures.reduction_tests.self_s": sum_self("closures",
                                                    REDUCTION_TESTS),
        "closures.chain_steps": chain_steps,
        "closures.self_s": self_s["closures"],
        "analysis.self_s": self_s["analysis"],
        "problem.parse_problem.self_s": self_s["problem.parse_problem"],
        "poly.parse_poly.calls": calls["poly.parse_poly"],
        "poly.parse_poly.self_s": self_s["poly.parse_poly"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.import_s": import_s,
    }
    for d in DECIDERS:
        out[f"analysis.{d}.total_s"] = total_s[d]
    return out


def _nested_in_same(names, parent, name):
    """True if an ancestor span has the same name, so that a recursive
    decider's time is counted once."""
    while parent in names:
        parent, ancestor = names[parent]
        if ancestor == name:
            return True
    return False
