"""Ratliff-Rush and integral closures, reduction and integrality tests.

The colon-chain closures are heuristically stabilized: one consecutive
equality does not certify the ascending union, so a confirmation window
of further equal steps is required and every colon-chain result is
reported with certified = False.  What IS certified is the lower bound:
the result contains the input, multiplying it back lands in the right
power, and when some power of the result equals the same power of the
input the containment in the true closure follows.
"""

import time

from .errors import InputError, SoundnessAlert, UnstableChainError, DeadlineExceeded
from .groebner import (SubmoduleData, contains, groebner_basis,
                       _from_mono_components, _mono_components,
                       _mono_minimalize)
from .poly import Polynomial
from .rees import (ModuleEmbedding, add_columns, colength, fiber_basis,
                   multiply_piece_vectors, piece_colon, piece_product)


class ClosureOptions:
    """Bounds of the closure computations, checked on construction.

    A colon chain stops `window` steps after its last change; a change
    after step `l_max` makes it unstable.  Both count steps k of the
    chain M^(n+k) : M^k (_power_chain).  Reduction tests try exponents
    up to `s_max`.  `deadline_seconds` (None for no deadline) limits each
    closure call; it is checked before each chain step and inside a
    step's colon.
    """

    __slots__ = ("l_max", "window", "s_max", "deadline_seconds")

    def __init__(self, l_max=10, window=2, s_max=5, deadline_seconds=None):
        if l_max < 0:
            raise InputError(f"lmax must be at least 0, got {l_max}")
        if window < 1:
            raise InputError(f"window must be at least 1, got {window}")
        if s_max < 0:
            raise InputError(f"smax must be at least 0, got {s_max}")
        if deadline_seconds is not None and not deadline_seconds > 0:
            raise InputError(
                f"deadline must be positive, got {deadline_seconds}")
        self.l_max = l_max
        self.window = window
        self.s_max = s_max
        self.deadline_seconds = deadline_seconds

    def deadline(self):
        return _Deadline(self.deadline_seconds)


class _Deadline:
    def __init__(self, seconds):
        self.expiry = None if seconds is None else time.monotonic() + seconds

    def check(self):
        if self.expiry is not None and time.monotonic() > self.expiry:
            raise DeadlineExceeded("closure computation hit its deadline")


class ClosureResult:
    """A closure (a SubmoduleData), the method that produced it, its chain
    data and whether it is certified; extra holds method-specific
    report fields."""

    def __init__(self, submodule, method, stabilization_index=0, window=0,
                 certified=False, extra=None):
        self.submodule = submodule
        self.method = method
        self.stabilization_index = stabilization_index
        self.window = window
        self.certified = certified
        self.extra = {} if extra is None else extra


# -- the stabilizing chain -----------------------------------------------

def _stabilize(step, first, opts, deadline, what):
    """Run value_l = step(l, value_(l-1)) from value_0 = first.

    The chain stops `window` steps after its last change and returns
    (value, l*) with l* the step of that change, 0 if there was none.
    Values are reduced bases, so equal generators mean equal modules.
    A change after step l_max raises UnstableChainError carrying the new
    value and the colengths of value_0 .. value_l, which are computed
    only then.
    """
    value = first
    values = [first]
    l = l_star = 0
    while l - l_star < opts.window:
        deadline.check()
        l += 1
        new = step(l, value)
        values.append(new)
        if new.gens != value.gens:
            value, l_star = new, l
            if l > opts.l_max:
                colengths = tuple(map(colength, values))
                raise UnstableChainError(
                    f"{what} did not stabilize within l_max={opts.l_max}; "
                    f"colengths {', '.join(map(str, colengths))}",
                    last_value=new, colengths=colengths)
    return value, l_star


def _power_chain(E, n, opts, deadline, what):
    """Stable value of the degree-n colons B_k = M^(n+k) : M^k, starting
    from B_0 = M^n.

    The chain ascends, x*M^k in M^(n+k) giving x*M^(k+1) in M^(n+k+1),
    and its union is the Ratliff-Rush closure of M^n: the colons
    M^(n(l+1)) : M^(nl) are its steps k = nl, and x*M^k in M^(n+k) gives
    x*M^(nk) in M^(n(k+1)).  So each step passes the value before it to
    piece_colon as a submodule of the colon, and at n >= 2 the chain
    builds no power above M^(n+k).  opts.l_max and opts.window count
    steps k.
    """
    def step(k, value):
        return piece_colon(E, E.power_piece(n + k), E.power_piece(k).gens,
                           k, n, inside=value, deadline=deadline)

    return _stabilize(step, E.power_piece(n), opts, deadline, what)


# -- Ratliff-Rush closure of ideals --------------------------------------

def ratliff_rush_ideal(J, opts=None):
    """Stable value of the colon chain J^(l+1) : J^l with a confirmation
    window; certified = False because the union itself is only bounded
    below, never proved maximal."""
    opts = opts or ClosureOptions()
    deadline = opts.deadline()
    J = groebner_basis(J)
    if J.is_zero():
        return ClosureResult(J, "colon-chain", 0, opts.window, certified=True,
                             extra={"note": "zero ideal is closed"})
    E = ModuleEmbedding.from_submodule(J)
    result, l_star = _power_chain(E, 1, opts, deadline, "colon chain")
    # necessary conditions: the closure contains J and multiplies back in
    if not contains(result, J):
        raise SoundnessAlert("colon chain result does not contain the input")
    k = max(l_star, 1)
    if not contains(E.power_piece(k + 1),
                    piece_product(E, result, 1, E.power_piece(k), k)):
        raise SoundnessAlert("colon chain result fails the defining colon")
    extra = {"confirmed_steps": opts.window}
    m = _power_equality_index(result, E, opts, deadline)
    if m is not None:
        extra["power_equality_degree"] = m
    return ClosureResult(result, "colon-chain", l_star, opts.window,
                         certified=False, extra=extra)


def _power_equality_index(W, E, opts, deadline):
    """Smallest m with W^m = J^m for the ideal J of E, if one shows up
    early.

    Such an m proves W lies inside the Ratliff-Rush closure of J.
    """
    W_embed = ModuleEmbedding.from_submodule(W)
    for m in range(1, opts.l_max + 2):
        deadline.check()
        if W_embed.power_piece(m).gens == E.power_piece(m).gens:
            return m
    return None


# -- Ratliff-Rush closure of modules -------------------------------------

def ratliff_rush_module(E, n=1, opts=None):
    """Ratliff-Rush closure of M^n inside F^n.

    The ideal chain for (MS)^n inside S is run degreewise: its degree-n
    step is the colon of graded pieces computed here over the base ring,
    so the two formulations agree step by step.
    """
    opts = opts or ClosureOptions()
    if n < 0:
        raise InputError("fiber degree must be non-negative")
    M = E.submodule()
    if M.is_zero():
        return ClosureResult(groebner_basis(M), "colon-chain", 0, opts.window,
                             certified=True, extra={"note": "zero module"})
    if n == 0:
        one = groebner_basis(
            SubmoduleData.ideal(E.ctx, [Polynomial.one(E.ctx)]))
        return ClosureResult(one, "colon-chain", 0, opts.window, certified=True)
    result, l_star = _power_chain(E, n, opts, opts.deadline(),
                                  "module colon chain")
    if not contains(result, E.power_piece(n)):
        raise SoundnessAlert("module colon chain result lost the input")
    return ClosureResult(result, "colon-chain", l_star, opts.window,
                         certified=False, extra={"degreewise": True})


# -- integral closure ----------------------------------------------------

def newton_closure_exps(exps_list):
    """Minimal generators of the integral closure of a 2-variable monomial
    ideal: lattice points of the Newton polyhedron, minimalized."""
    pts = _mono_minimalize(exps_list)  # a staircase: a up, b down
    hull = []
    for p in pts:
        while len(hull) >= 2:
            a0, b0 = hull[-2]
            a1, b1 = hull[-1]
            if (a1 - a0) * (p[1] - b0) - (b1 - b0) * (p[0] - a0) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    a_min = hull[0][0]
    b_min = hull[-1][1]
    edges = []
    for (a1, b1), (a2, b2) in zip(hull, hull[1:]):
        edges.append((b1 - b2, a2 - a1, (b1 - b2) * a1 + (a2 - a1) * b1))

    def inside(a, b):
        if a < a_min or b < b_min:
            return False
        return all(p * a + q * b >= c for p, q, c in edges)

    max_a = max(p[0] for p in pts)
    max_b = max(p[1] for p in pts)
    return _mono_minimalize([(a, b) for a in range(max_a + 1)
                             for b in range(max_b + 1) if inside(a, b)])


def _newton_closure(ctx, comps):
    """Reduced basis of the integral closure of the direct sum of the
    monomial ideals comps, one per component."""
    return _from_mono_components(
        ctx, len(comps), [newton_closure_exps(e) if e else [] for e in comps])


def integral_closure_monomial(I):
    """Exact integral closure of a nonzero monomial ideal in two variables."""
    if I.rank != 1:
        raise InputError("expected an ideal")
    comps = _mono_components(I)
    if comps is None:
        raise InputError("non-monomial generator")
    if not comps[0]:
        raise InputError("integral closure of the zero ideal")
    return ClosureResult(_newton_closure(I.ctx, comps), "newton",
                         certified=True)


def integral_closure_module(E, candidates=None, opts=None):
    """Integral closure of M inside F.

    Certified (Newton) for block direct sums of monomial ideals in two
    variables; otherwise candidate-driven: each supplied column is
    verified integral and the result M + candidates is reported with
    heuristic maximality checks, never silently completed.
    """
    opts = opts or ClosureOptions()
    M = E.submodule()
    if M.is_zero():
        return ClosureResult(groebner_basis(M), "newton", certified=True,
                             extra={"note": "zero module"})
    comps = _mono_components(M)
    if comps is not None:
        return ClosureResult(_newton_closure(E.ctx, comps), "newton",
                             certified=True)
    if not candidates:
        raise InputError(
            "integral closure needs candidate columns for non-monomial input")
    witnesses = []
    for col in candidates:
        ok, s = is_integral_element(E, col, opts.s_max)
        if not ok:
            raise InputError("candidate column failed the integrality test")
        witnesses.append(s)
    N_embed = add_columns(E, candidates)
    result = groebner_basis(N_embed.submodule())
    extra = {"candidate_witnesses": witnesses}
    rr = ratliff_rush_module(N_embed, 1, opts)
    extra["result_rr_closed"] = rr.submodule.gens == result.gens
    red_ok, red_s = is_reduction(M, result, opts.s_max)
    extra["input_is_reduction"] = red_ok
    if red_ok:
        extra["reduction_exponent"] = red_s
    return ClosureResult(result, "candidate-verified", certified=False,
                         extra=extra)


def is_integral_element(E, column, s_max=5):
    """Semi-decision: YES iff M is verified a reduction of M + A*column.

    Returns (True, s) with the witness exponent, or (False, None) when
    unproven within the budget; never a false YES.
    """
    column = tuple(column)
    if len(column) != E.rank:
        raise InputError("candidate column has the wrong length")
    return is_reduction(E.submodule(), add_columns(E, [column]), s_max)


def check_integral_equation(x, coeffs):
    """Verify x^n + c1*x^(n-1) + ... + cn = 0 exactly in S = A[t1..tr].

    An element of S is a dict from t-exponent tuples to Polynomials over
    A: X^4*Y^5*t1*t2 is {(1, 1): X^4*Y^5}.  x must be nonzero and
    fiber-homogeneous, and each nonzero ci fiber-homogeneous of degree
    i * deg(x).  Each power of x is a vector over the graded piece of its
    degree (fiber_basis), built by multiply_piece_vectors."""
    x = _piece_vector(x)
    if x is None:
        raise InputError("integral equation for the zero element")
    if not coeffs:
        raise InputError("empty coefficient list")
    r, d, x = x
    n, ctx = len(coeffs), x[0].ctx
    powers = [(Polynomial.one(ctx),)]
    for k in range(n):
        powers.append(multiply_piece_vectors(r, powers[k], k * d, x, d, ctx))
    total = powers[n]
    for i, c in enumerate(coeffs, start=1):
        c = _piece_vector(c)
        if c is None:
            continue
        if c[:2] != (r, i * d):
            raise InputError(
                f"coefficient {i} has fiber degree {c[1]} in {c[0]} "
                f"t-variables, expected {i * d} in {r}")
        term = multiply_piece_vectors(r, c[2], i * d, powers[n - i],
                                      (n - i) * d, ctx)
        total = [p + q for p, q in zip(total, term)]
    return all(p.is_zero() for p in total)


def _piece_vector(element):
    """(r, degree, vector over the degree's fiber basis) of a nonzero
    fiber-homogeneous element of S given as a dict; None if it is zero."""
    element = {t: p for t, p in element.items() if not p.is_zero()}
    if not element:
        return None
    shapes = {(len(t), sum(t)) for t in element}
    if len(shapes) != 1:
        raise InputError("element of S is not fiber-homogeneous")
    ((r, d),) = shapes
    _, index = fiber_basis(r, d)
    vec = [Polynomial.zero(next(iter(element.values())).ctx)] * len(index)
    for t, p in element.items():
        vec[index[t]] = p
    return r, d, tuple(vec)


def is_reduction(L, M, s_max=5):
    """Semi-decision of M^(s+1) = L * M^s for some s <= s_max."""
    if isinstance(L, ModuleEmbedding):
        L = L.submodule()
    if isinstance(M, ModuleEmbedding):
        E = M
        M = M.submodule()
    else:
        E = ModuleEmbedding.from_submodule(M)
    if not contains(M, L):
        raise InputError("reduction candidate is not inside the module")
    L_piece = groebner_basis(L)
    for s in range(s_max + 1):
        lhs = E.power_piece(s + 1)
        rhs = piece_product(E, L_piece, 1, E.power_piece(s), s)
        if lhs.gens == rhs.gens:
            return True, s
    return False, None
