"""Ratliff-Rush and integral closures, reduction and integrality tests.

The colon-chain closures are heuristically stabilized: one consecutive
equality does not certify the ascending union, so a confirmation window
of further equal steps is required and every colon-chain result is
reported with certified = False.  What IS certified is the lower bound:
the result W of the chain for M^n contains M^n and, when the chain
changed at step k*, satisfies W*M^(k*) in M^(n+k*), which by definition
puts W inside the Ratliff-Rush closure of M^n.  An ideal is a module of
rank 1, so one function computes each closure for both.
"""

import time
from contextlib import contextmanager
from math import inf

from .errors import (ContextMismatchError, InputError, SoundnessAlert,
                     UnstableChainError)
from .groebner import (SubmoduleData, contains, equal, groebner_basis,
                       _by_component, _check_range, _DEADLINE, _Deadline,
                       _degree, _from_mono_components, _mono_components,
                       _mono_minimalize, _pack)
from .rees import (ModuleEmbedding, add_columns, colength, fiber_basis,
                   fiber_products, piece_colon, piece_product,
                   _integer_product)


class ClosureOptions:
    """Bounds of the closure computations, checked on construction.

    A colon chain stops `window` steps after its last change; a change
    after step `l_max` makes it unstable.  Both count steps k of the
    chain M^(n+k) : M^k (_power_chain).  Reduction tests try exponents
    up to `s_max`.  `deadline_seconds` (None for no deadline) bounds
    each scope of deadline(): the command line runs a whole command in
    one, and ratliff_rush_module runs its chain in one of its own.
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

    @contextmanager
    def deadline(self):
        """A scope whose computations raise DeadlineExceeded once
        deadline_seconds have passed, or once the scope around it has;
        leaving it restores the scope before it."""
        expiry = time.monotonic() + (self.deadline_seconds or inf)
        token = _DEADLINE.set(_Deadline(min(expiry, _DEADLINE.get().expiry)))
        try:
            yield
        finally:
            _DEADLINE.reset(token)


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


# -- the Ratliff-Rush closure ------------------------------------------

def _power_chain(E, n, opts):
    """Stable value of the degree-n colons B_k = M^(n+k) : M^k, starting
    from B_0 = M^n, and the step k* of its last change, 0 if none.

    The chain ascends, x*M^k in M^(n+k) giving x*M^(k+1) in M^(n+k+1),
    and its union is the Ratliff-Rush closure of M^n: the colons
    M^(n(l+1)) : M^(nl) are its steps k = nl, and x*M^k in M^(n+k) gives
    x*M^(nk) in M^(n(k+1)).  So each step passes the value before it to
    piece_colon as a submodule of the colon, and at n >= 2 the chain
    builds no power above M^(n+k).

    The chain stops opts.window steps after its last change.  A change
    after step opts.l_max raises UnstableChainError carrying the new
    value and the colengths of B_0 .. B_k, which are computed only then.
    The ambient deadline is checked before each step.
    """
    value = E.power_piece(n)
    values = [value]
    k = k_star = 0
    while k - k_star < opts.window:
        _DEADLINE.get().check()
        k += 1
        new = piece_colon(E, E.power_piece(n + k), E.power_piece(k), k, n,
                          inside=value)
        values.append(new)
        if not equal(new, value):
            value, k_star = new, k
            if k > opts.l_max:
                colengths = tuple(map(colength, values))
                raise UnstableChainError(
                    f"colon chain did not stabilize within "
                    f"l_max={opts.l_max}; "
                    f"colengths {', '.join(map(str, colengths))}",
                    last_value=new, colengths=colengths)
    return value, k_star


def ratliff_rush_module(E, n=1, opts=None):
    """Ratliff-Rush closure of M^n inside the degree-n free piece; an
    ideal is the case of rank 1 (ModuleEmbedding(I)).

    The ideal chain for (MS)^n inside S is run degreewise: its degree-n
    step is the colon of graded pieces computed here over the base ring,
    so the two formulations agree step by step.  The value W is checked
    to contain M^n and, when the chain changed at step k* >= 1, to
    satisfy W*M^(k*) in M^(n+k*), which by definition puts W inside the
    closure; a failure raises SoundnessAlert.  At k* = 0, W is M^n.
    """
    opts = opts or ClosureOptions()
    if n < 0:
        raise InputError("fiber degree must be non-negative")
    M = E.submodule()
    if M.is_zero():
        return ClosureResult(groebner_basis(M), "colon-chain", 0, opts.window,
                             certified=True, extra={"note": "zero module"})
    if n == 0:
        return ClosureResult(E.power_piece(0), "colon-chain", 0, opts.window,
                             certified=True)
    with opts.deadline():
        result, k_star = _power_chain(E, n, opts)
        if not contains(result, E.power_piece(n)):
            raise SoundnessAlert("colon chain result lost the input")
        if k_star and not contains(
                E.power_piece(n + k_star),
                piece_product(E, result, n, E.power_piece(k_star), k_star)):
            raise SoundnessAlert("colon chain result fails the defining colon")
    return ClosureResult(result, "colon-chain", k_star, opts.window,
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


def integral_closure_module(E, candidates=None, opts=None):
    """Integral closure of M inside F.

    Certified (Newton, componentwise) for block direct sums of monomial
    ideals, a monomial ideal among them as rank 1, where any supplied
    columns must lie in the Newton closure; otherwise candidate-driven:
    each supplied column c is verified integral, M a reduction of
    M + A*c (is_reduction, a semi-decision with no false yes), and the
    result M + candidates is reported with heuristic maximality checks,
    never silently completed.
    """
    opts = opts or ClosureOptions()
    M = E.submodule()
    comps = _mono_components(M)
    if comps is not None:
        closed = _from_mono_components(E.ctx, E.rank, [
            newton_closure_exps(e) if e else [] for e in comps])
        if candidates and not contains(closed, SubmoduleData.from_vectors(
                E.ctx, E.rank, candidates)):
            raise InputError("candidate column failed the integrality test")
        extra = {} if any(comps) else {"note": "zero module"}
        return ClosureResult(closed, "newton", certified=True, extra=extra)
    if not candidates:
        raise InputError(
            "integral closure needs candidate columns for non-monomial input")
    witnesses = []
    for col in candidates:
        ok, s = is_reduction(M, add_columns(E, [col]).submodule(),
                             opts.s_max)
        if not ok:
            raise InputError("candidate column failed the integrality test")
        witnesses.append(s)
    N_embed = add_columns(E, candidates)
    result = groebner_basis(N_embed.submodule())
    extra = {"candidate_witnesses": witnesses}
    rr = ratliff_rush_module(N_embed, 1, opts)
    extra["result_rr_closed"] = equal(rr.submodule, result)
    red_ok, red_s = is_reduction(M, result, opts.s_max)
    extra["input_is_reduction"] = red_ok
    if red_ok:
        extra["reduction_exponent"] = red_s
    return ClosureResult(result, "candidate-verified", certified=False,
                         extra=extra)


def check_integral_equation(x, coeffs):
    """Verify x^n + c1*x^(n-1) + ... + cn = 0 exactly in S = A[t1..tr].

    An element of S is a dict from t-exponent tuples to Polynomials over
    A: X^4*Y^5*t1*t2 is {(1, 1): X^4*Y^5}.  x must be nonzero and
    fiber-homogeneous, and each nonzero ci fiber-homogeneous of degree
    i * deg(x).  Each element becomes a kernel vector over the graded
    piece of its degree (fiber_basis), and products are taken as
    rees.piece_product takes them (_integer_product)."""
    x = _piece_vector(x)
    if x is None:
        raise InputError("integral equation for the zero element")
    if not coeffs:
        raise InputError("empty coefficient list")
    ctx, r, d, x = x
    n, p = len(coeffs), ctx.characteristic

    def times(u, a, v, b):
        """The product of kernel vectors of fiber degrees a and b."""
        _check_range(max(map(_degree, u)) + max(map(_degree, v)))
        bases = [[_pack(k, (0, 0)) for k in row]
                 for row in fiber_products(r, a, b)]
        return _integer_product(_by_component(u), _by_component(v), bases, p)

    powers = [{_pack(0, (0, 0)): 1}]
    for k in range(n):
        powers.append(times(powers[k], k * d, x, d))
    total = dict(powers[n])
    for i, c in enumerate(coeffs, start=1):
        c = _piece_vector(c)
        if c is None:
            continue
        if c[0] != ctx:
            raise ContextMismatchError("coefficient in a foreign context")
        if c[1:3] != (r, i * d):
            raise InputError(
                f"coefficient {i} has fiber degree {c[2]} in {c[1]} "
                f"t-variables, expected {i * d} in {r}")
        for t, y in times(c[3], i * d, powers[n - i], (n - i) * d).items():
            total[t] = total.get(t, 0) + y
    return not any(y % p if p else y for y in total.values())


def _piece_vector(element):
    """(context, r, degree, kernel vector over the degree's fiber basis)
    of a nonzero fiber-homogeneous element of S given as a dict; None if
    it is zero."""
    element = {t: f for t, f in element.items() if not f.is_zero()}
    if not element:
        return None
    shapes = {(len(t), sum(t)) for t in element}
    if len(shapes) != 1:
        raise InputError("element of S is not fiber-homogeneous")
    ((r, d),) = shapes
    _, index = fiber_basis(r, d)
    vp = {_pack(index[t], e): y for t, f in element.items()
          for e, y in f.terms.items()}
    return next(iter(element.values())).ctx, r, d, vp


def is_reduction(L, M, s_max=5):
    """Semi-decision of M^(s+1) = L * M^s for some s <= s_max, for
    SubmoduleData L inside M of one free module: a yes is exact, a no
    means no such s up to s_max.  The powers of M come from an embedding
    of M built here."""
    E = ModuleEmbedding(M)
    if not contains(M, L):
        raise InputError("reduction candidate is not inside the module")
    L_piece = groebner_basis(L)
    for s in range(s_max + 1):
        lhs = E.power_piece(s + 1)
        rhs = piece_product(E, L_piece, 1, E.power_piece(s), s)
        if equal(lhs, rhs):
            return True, s
    return False, None
