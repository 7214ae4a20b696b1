"""Independent oracles used by the test suite.

Everything here is deliberately naive: Gaussian elimination over exact
rationals (or the integers mod p) and brute-force lattice enumeration, so
the main algorithms are checked against a different method rather than
against themselves.
"""

from fractions import Fraction
import itertools

from reescalc import Polynomial, SubmoduleData
from reescalc.rees import fiber_products, piece_rank


def coefficient(value, p):
    """The int or Fraction value in the field of characteristic p: a
    Fraction over QQ, an int in [0, p) over GF(p).  The oracles compute
    with this and inverse, not with the engine's coefficient arithmetic."""
    value = Fraction(value)
    if not p:
        return value
    return value.numerator * inverse(value.denominator, p) % p


def inverse(c, p):
    """The inverse of the nonzero coefficient c."""
    return pow(c, p - 2, p) if p else 1 / Fraction(c)


def monomials_up_to(nvars, degree):
    out = []
    for total in range(degree + 1):
        for combo in itertools.product(range(total + 1), repeat=nvars):
            if sum(combo) == total:
                out.append(combo)
    return out


def span_membership(vec, gens, ctx, rank, multiplier_degree):
    """Is vec a polynomial combination of gens, with multipliers of total
    degree at most multiplier_degree?  Gaussian elimination on sparse
    rows, over the rationals or, in characteristic p, the integers mod p."""
    p = ctx.characteristic
    if p:
        def norm(x):
            return x % p

        def inv(x):
            return pow(x, p - 2, p)
    else:
        def norm(x):
            return x

        def inv(x):
            return 1 / Fraction(x)
    shifts = monomials_up_to(ctx.nvars, multiplier_degree)
    rows = []
    for g in gens:
        for alpha in shifts:
            row = {}
            for c, poly in enumerate(g):
                for exps, coeff in poly.terms.items():
                    key = (c, tuple(a + e for a, e in zip(alpha, exps)))
                    row[key] = norm(row.get(key, 0) + coeff)
            rows.append(row)
    target = {}
    for c, poly in enumerate(vec):
        for exps, coeff in poly.terms.items():
            target[(c, exps)] = norm(coeff)
    # sparse row echelon form, each row keyed by its least column
    echelon = {}

    def reduce(row):
        while row:
            lead = min(row)
            prow = echelon.get(lead)
            if prow is None:
                return row, lead
            f = norm(row[lead] * inv(prow[lead]))
            for c, b in prow.items():
                x = norm(row.get(c, 0) - f * b)
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
        return row, None

    for row in rows:
        row, lead = reduce({c: x for c, x in row.items() if x})
        if lead is not None:
            echelon[lead] = row
    return not reduce({c: x for c, x in target.items() if x})[0]


def ideal_member_oracle(poly, gens, ctx, multiplier_degree=8):
    return span_membership((poly,), [(g,) for g in gens], ctx, 1,
                           multiplier_degree)


def newton_closure_oracle(exps_list, box=24):
    """Brute force: a lattice point is in the closure iff some positive
    integer multiple is a sum of generator exponents (with repetition)
    plus a non-negative vector.  Checked via convex combinations with
    rational weights over a small denominator range."""
    pts = list(set(exps_list))
    out = []
    max_a = max(p[0] for p in pts)
    max_b = max(p[1] for p in pts)
    for a in range(max_a + 1):
        for b in range(max_b + 1):
            if _in_polyhedron_bruteforce((a, b), pts, box):
                out.append((a, b))
    minimal = [p for p in out
               if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                          for q in out)]
    return sorted(minimal)


def _in_polyhedron_bruteforce(point, pts, box):
    """(a, b) in conv(pts) + R_{>=0}^2, decided by enumerating convex
    combinations of generator pairs (the hull is 2-dimensional, so pairs
    suffice by Caratheodory on each edge)."""
    a, b = point
    for (a1, b1) in pts:
        if a1 <= a and b1 <= b:
            return True
    for (a1, b1), (a2, b2) in itertools.combinations(pts, 2):
        for den in range(1, box + 1):
            for num in range(1, den):
                lam = Fraction(num, den)
                ca = lam * a1 + (1 - lam) * a2
                cb = lam * b1 + (1 - lam) * b2
                if ca <= a and cb <= b:
                    return True
    return False


def colength_oracle(gens, ctx, rank, degree_cap):
    """dim_k of (free module)/(span of generator shifts) in degrees up to
    degree_cap.  For monomial or homogeneous generators this equals the
    true colength once degree_cap passes the staircase of the module;
    dense rank computation, no Groebner bases."""
    ambient = 0
    for total in range(degree_cap + 1):
        ambient += rank * (total + 1 if ctx.nvars == 2 else
                           len([m for m in monomials_up_to(ctx.nvars, total)
                                if sum(m) == total]))
    rows = []
    for g in gens:
        top = max((p.total_degree() for p in g if not p.is_zero()), default=0)
        for alpha in monomials_up_to(ctx.nvars, degree_cap - top):
            row = {}
            for c, p in enumerate(g):
                for exps, coeff in p.terms.items():
                    key = (c, tuple(a + e for a, e in zip(alpha, exps)))
                    row[key] = row.get(key, Fraction(0)) + Fraction(coeff)
            rows.append(row)
    columns = sorted(set().union(*rows)) if rows else []
    echelon = []
    for row in rows:
        vec = [row.get(c, Fraction(0)) for c in columns]
        for pivot_col, prow in echelon:
            if vec[pivot_col] != 0:
                f = vec[pivot_col] / prow[pivot_col]
                vec = [a - f * b for a, b in zip(vec, prow)]
        lead = next((i for i, x in enumerate(vec) if x != 0), None)
        if lead is not None:
            echelon.append((lead, vec))
    return ambient - len(echelon)


def random_monomial_ideal(rng, max_degree=8, max_steps=4, primary=True):
    """A random finite-colength monomial ideal in two variables, built as a
    staircase: pure powers of both variables plus a few interior steps."""
    ax = rng.randint(1, max_degree)
    by = rng.randint(1, max_degree)
    exps = [(ax, 0), (0, by)]
    for _ in range(rng.randint(0, max_steps)):
        a = rng.randint(1, max_degree)
        b = rng.randint(1, max_degree)
        exps.append((a, b))
    if not primary:
        exps = exps[2:] or [(ax, by)]
    return exps


def ideal_from_exps(ctx, exps):
    return SubmoduleData.ideal(ctx, [Polynomial.monomial(ctx, e)
                                     for e in exps])


def multiply_piece_vectors(r, u, a, v, b, ctx):
    """The reference product of a fiber-degree-a and a fiber-degree-b
    vector of Polynomials, over r fiber variables."""
    index_ab = fiber_products(r, a, b)
    out = [Polynomial.zero(ctx)] * piece_rank(r, a + b)
    for i, p in enumerate(u):
        for j, q in enumerate(v):
            k = index_ab[i][j]
            out[k] = out[k] + p * q
    return tuple(out)


def order_key(ctx, elim=0):
    """Sort key of the term (component, exponents) under the kernel's
    module order, term over position: with the first elim components
    dominating all others, then the monomial in ctx's order, then the
    component, a lower index being larger."""
    monkey = ctx.mon_key

    def key(term):
        c, e = term
        return (1 if c < elim else 0, *monkey(e), -c)
    return key


def buchberger_oracle(vectors, ctx, elim=0):
    """Reduced Groebner basis of the module spanned by vectors (tuples of
    Polynomials) by the textbook algorithm: the S-vector of every pair of
    elements with leads in one component is reduced, with no criterion to
    skip any, and the result is interreduced until nothing changes.  The
    order is order_key's, with the first elim components dominating.
    Returns the basis as dicts {(component, exponents): coefficient},
    sorted by lead term."""
    key = order_key(ctx, elim)
    p = ctx.characteristic

    def lead(f):
        return max(f, key=key)

    def monic(f):
        inv = inverse(f[lead(f)], p)
        return {t: coefficient(c * inv, p) for t, c in f.items()}

    def sub_multiple(f, g, q, c):
        """f - c * x^q * g"""
        out = dict(f)
        for (gc, ge), b in g.items():
            t = (gc, tuple(x + y for x, y in zip(ge, q)))
            v = coefficient(out.get(t, 0) - c * b, p)
            if not v:
                out.pop(t, None)
            else:
                out[t] = v
        return out

    def divides(s, t):
        return s[0] == t[0] and all(x <= y for x, y in zip(s[1], t[1]))

    def reduce(f, basis):
        rem = {}
        while f:
            t = lead(f)
            g = next((g for g in basis if divides(lead(g), t)), None)
            if g is None:
                rem[t] = f.pop(t)
                continue
            q = tuple(x - y for x, y in zip(t[1], lead(g)[1]))
            f = sub_multiple(f, g, q, f[t] * inverse(g[lead(g)], p))
        return rem

    G = [monic(f) for f in ({(c, e): x for c, p in enumerate(v)
                             for e, x in p.terms.items()} for v in vectors)
         if f]

    def lcm(i, j):
        (c, ei), (_, ej) = lead(G[i]), lead(G[j])
        return c, tuple(max(x, y) for x, y in zip(ei, ej))

    def pairs_with(j):
        return [(i, j) for i in range(j) if lead(G[i])[0] == lead(G[j])[0]]

    # every pair with leads in one component, smallest lcm first
    pairs = [p for j in range(len(G)) for p in pairs_with(j)]
    while pairs:
        i, j = pair = min(pairs, key=lambda p: key(lcm(*p)))
        pairs.remove(pair)
        _, L = lcm(i, j)
        s = {}
        for g, sign in ((G[i], -1), (G[j], 1)):
            s = sub_multiple(s, g, tuple(x - y for x, y in zip(L, lead(g)[1])),
                             sign)
        r = reduce(s, G)
        if r:
            G.append(monic(r))
            pairs += pairs_with(len(G) - 1)
    changed = True
    while changed:
        changed = False
        for i, f in enumerate(G):
            rest = G[:i] + G[i + 1:]
            if any(divides(lead(g), lead(f)) for g in rest):
                G.pop(i)
                changed = True
                break
            r = reduce(dict(f), rest)
            if r != f:
                G[i] = monic(r)
                changed = True
                break
    return sorted(G, key=lambda f: key(lead(f)))
