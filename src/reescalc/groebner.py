"""Buchberger's algorithm for ideals and submodules of free modules over
A = k[X, Y].

Everything downstream (closures, graded pieces, theorem deciders) reduces
to the operations here: reduced Groebner bases, membership, containment
and intersection.  Bases are taken under one order, term over position
on degree reverse lexicographic monomials, and one block elimination
(_eliminate_block) serves both intersect and the syzygy colon of
rees.piece_colon: it pairs the vectors it starts from with tags in a
second block of components, lets the first block dominate, and reads
the result off the basis elements free of it.

Internally a module element is a kernel vector: a dict mapping a term,
packed into one int so that comparing terms is comparing ints and
multiplying by a monomial is adding one (_pack), to a nonzero
coefficient.  Generators that are all single terms take a fast path:
the S-vector of two terms vanishes, so a reduced basis is just the
staircase of minimal terms per component.  Such a basis is stored as
its staircases.  Any other reduced basis is stored as its kernel
vectors, as the kernel leaves them, and either kind builds its
Polynomial generators only when gens is first read; equal compares two
bases by their staircases or their kernel vectors.

Other generators go through Buchberger's algorithm (_buchberger): the
Gebauer-Moeller update, heap-based reduction against a lead index of
staircases, and inputs taken lazily, so that the many redundant
products that build a module's powers drop out as zero remainders.  A
cached basis keeps its index for contains.  vector_basis takes inputs
that are already kernel vectors, as rees.piece_product builds them, and
groebner_basis goes through it too.

Over QQ the kernel computes with primitive integer vectors and
pseudo-reduction in place of Fraction arithmetic, and a basis keeps
them so; its generators are made monic, with Fraction coefficients,
when they are built.  Over GF(p) its elements are monic throughout.
The reduced basis is unique, so both fields return the same bases as a
monic computation would.

Polynomials occur only at the public edge: the generators a caller
passes in and reads back (gens), packed on the way in (_to_vp).
Everything between, the free module (SubmoduleData.free) and
intersections included, is staircases or kernel vectors.
"""

import time
from bisect import bisect_right
from contextvars import ContextVar
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, inf, lcm

from .context import mon_coprime, mon_divides, mon_lcm
from .errors import (ContextMismatchError, DeadlineExceeded, InputError,
                     RankMismatchError)
from .poly import Polynomial


# The key under which SubmoduleData._cache holds the reduced basis.
DEFAULT_ORDER = "reduced basis"


class _Deadline:
    """The expiry on the monotonic clock of the innermost scope of
    ClosureOptions.deadline(), the ambient _DEADLINE; inf outside any."""

    def __init__(self, expiry=inf):
        self.expiry = expiry

    def check(self):
        if time.monotonic() > self.expiry:
            raise DeadlineExceeded("computation hit its deadline")


_DEADLINE = ContextVar("deadline", default=_Deadline())


# -- packed terms --------------------------------------------------------
#
# A term X^a*Y^b*e_c is the int
#     flag << 96 | (a + b) << 64 | (M - b) << 32 | (M - c),  M = 2^32 - 1,
# flag being 1 when c lies in the dominating block of an elimination
# (_eliminate_block) and 0 otherwise.  Integer order is then the module
# order: the flag, then the monomial in degree reverse lexicographic
# order (degree, lower b), then the component, a lower index being
# larger.  Multiplying by X^i*Y^j adds (i + j) << 64 - j << 32 (_X,
# _Y), and t - s is that constant when s divides t in one component.
# InputError guards the places degrees grow: packed inputs, the products
# of rees.piece_product, S-vector lcms and, under an elimination order,
# whole elements stay within _MAX_DEGREE, and no term formed from those
# reaches four times that, far inside the 32-bit fields.

_MASK = (1 << 32) - 1
_B_SHIFT, _DEG_SHIFT, _FLAG_SHIFT = 32, 64, 96
_COMPONENT = 1 << _FLAG_SHIFT | _MASK  # the flag and component fields
_X = 1 << _DEG_SHIFT
_Y = _X - (1 << _B_SHIFT)
_MAX_DEGREE = (1 << 24) - 1


def _check_range(degree, rank=1):
    """InputError unless such terms fit the fields of _pack."""
    if degree > _MAX_DEGREE or rank > _MASK:
        raise InputError(f"degree {degree} or rank {rank} exceeds the "
                         f"Groebner kernel's {_MAX_DEGREE} or {_MASK}")


def _pack(c, e):
    """The term x^e in component c."""
    return _term(_MASK - c, e)


def _term(slot, e):
    """The term x^e with the flag and component fields of slot."""
    a, b = e
    _check_range(a + b)
    return slot | (a + b) << _DEG_SHIFT | (_MASK - b) << _B_SHIFT


def _unpack(t):
    """(component, exponent pair) of a packed term."""
    b = _MASK - (t >> _B_SHIFT & _MASK)
    return _MASK - (t & _MASK), ((t >> _DEG_SHIFT & _MASK) - b, b)


def _degree(t):
    return t >> _DEG_SHIFT & _MASK


def _by_component(vp):
    """The terms of a kernel vector by component, as (component, [(s,
    coeff), ...]): a term is _pack(component, (0, 0)) + s, so a product
    term is the packed 1 of its component plus two such s."""
    comps = {}
    for t, x in vp.items():
        comps.setdefault(_MASK - (t & _MASK), []).append(
            (t - (t & _MASK) - (_MASK << _B_SHIFT), x))
    return list(comps.items())


# -- submodule container -------------------------------------------------

_UNSCANNED = object()  # SubmoduleData._stairs before the first scan


class SubmoduleData:
    """A finitely generated submodule of a free module A^rank.

    rank == 1 means an ideal.  Generators are tuples of Polynomials.  The
    reduced Groebner basis is cached after the first computation; it is
    canonical, so concurrent fillers agree.  A basis also caches the lead
    index that contains reduces against.

    A monomial submodule is held as its staircases: per component, the
    minimal exponent pairs, sorted (_mono_components).  A reduced basis
    is held as those or as its kernel vectors in ascending lead order
    (_vps), and builds its Polynomials, in lead order, when gens is first
    read.  Instances compare and hash on (ctx, rank, gens).
    """

    __slots__ = ("ctx", "rank", "_gens", "_stairs", "_vps", "_cache")

    def __init__(self, ctx, rank, gens):
        for g in gens:
            if len(g) != rank:
                raise RankMismatchError(
                    f"generator of length {len(g)} in rank-{rank} module")
            for p in g:
                if p.ctx is not ctx and p.ctx != ctx:
                    raise ContextMismatchError("generator entry in foreign context")
        self.ctx = ctx
        self.rank = rank
        self._gens = gens
        self._stairs = _UNSCANNED
        self._vps = None
        self._cache = {}

    @property
    def gens(self):
        gens = self._gens
        if gens is None:
            gens = self._gens = _stair_gens(self)
        return gens

    def __eq__(self, other):
        if other.__class__ is not SubmoduleData:
            return NotImplemented
        return ((self.ctx, self.rank, self.gens)
                == (other.ctx, other.rank, other.gens))

    def __hash__(self):
        return hash((self.ctx, self.rank, self.gens))

    def __repr__(self):
        return (f"SubmoduleData(ctx={self.ctx!r}, rank={self.rank!r}, "
                f"gens={self.gens!r})")

    # -- constructors ----------------------------------------------------

    @classmethod
    def ideal(cls, ctx, polys):
        return cls(ctx, 1, tuple((p,) for p in polys))

    @classmethod
    def from_vectors(cls, ctx, rank, vectors):
        return cls(ctx, rank, tuple(tuple(v) for v in vectors))

    @classmethod
    def zero(cls, ctx, rank=1):
        return cls(ctx, rank, ())

    @classmethod
    def free(cls, ctx, rank):
        """A^rank, as the reduced basis of its unit vectors."""
        return _from_mono_components(ctx, rank, [[(0, 0)]] * rank)

    # -- inspection ------------------------------------------------------

    def is_zero(self):
        stairs = _mono_components(self)
        return stairs is not None and not any(stairs)

    def is_monomial(self):
        """True when every generator is a single term in one component."""
        return _mono_components(self) is not None


# -- kernel vectors ------------------------------------------------------

def _to_vp(vec):
    """The Polynomial vector vec as a kernel vector."""
    _check_range(0, len(vec))
    return {_pack(c, e): x for c, p in enumerate(vec)
            for e, x in p.terms.items()}


def _from_vp(ctx, rank, vp):
    cols = [{} for _ in range(rank)]
    for t, x in vp.items():
        c, e = _unpack(t)
        cols[c][e] = x
    return tuple(Polynomial(ctx, terms) for terms in cols)


def _vp_monic(vp, lt, p):
    """vp divided by its coefficient at lt.  Over QQ the result holds
    Fractions even where vp holds integers."""
    a = vp[lt]
    if p:
        inv = pow(a, p - 2, p)
        return vp if a == 1 else {t: c * inv % p for t, c in vp.items()}
    return {t: Fraction(c) / a for t, c in vp.items()}


def _vp_normalize(vp, lt, p):
    """vp as the kernel keeps it, lt being its lead term: over GF(p)
    monic; over QQ a primitive integer vector (denominators cleared,
    content divided out) with a positive lead coefficient."""
    if p:
        return _vp_monic(vp, lt, p)
    den = lcm(*[c.denominator for c in vp.values()])
    ints = {t: c.numerator * (den // c.denominator) for t, c in vp.items()}
    g = gcd(*ints.values())
    if ints[lt] < 0:
        g = -g
    return ints if g == 1 else {t: c // g for t, c in ints.items()}


_NO_CORNERS = ((), (), ())


def _index_add(index, lead, vp):
    """Add the kernel element vp to a lead index: per component, the
    staircase of minimal leads (corner a's, corner b's, entries), in which
    the one lead that can divide X^x*Y^y is the last corner with a <= x.
    An entry is (lead, its coefficient, the other (term, coefficient)
    pairs).  No indexed lead divides lead, as every caller ensures."""
    _, (x, y) = _unpack(lead)
    xs, ys, entries = index.setdefault(lead & _COMPONENT, ([], [], []))
    i = bisect_right(xs, x)
    lo = i - 1 if i and xs[i - 1] == x else i
    hi = i
    while hi < len(ys) and ys[hi] >= y:
        hi += 1
    tail = [(t, c) for t, c in vp.items() if t != lead]
    xs[lo:hi], ys[lo:hi], entries[lo:hi] = [x], [y], [(lead, vp[lead],
                                                       tail)]


def _vp_normal_form(vp, index, p):
    """Normal form of vp, up to a nonzero factor, against the entries of
    a lead index (_index_add); p is the field's characteristic.

    The terms left to reduce sit in a dict and, negated, in a lazy heap
    (Monagan & Pearce, J. Symb. Comput. 46, 2011): a term is pushed when
    it enters the dict, and a popped term no longer in it is skipped.
    Every term a step adds lies below the term it removes, so none is
    taken twice.

    A reducer's lead coefficient a is 1 unless the entries are the
    kernel's integer vectors over QQ.  When a does not divide the
    coefficient c to cancel, the terms left to reduce and the remainder
    kept so far are first multiplied by a/gcd(a, c) (pseudo-reduction),
    so the arithmetic stays in the integers.  Against monic entries the
    result is the exact normal form.
    """
    work = dict(vp)
    heap = [-t for t in work]
    heapify(heap)
    rem = {}
    while heap:
        t = -heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        # the reducer: the last corner with a <= the term's a
        xs, ys, entries = index.get(t & _COMPONENT, _NO_CORNERS)
        y = _MASK - (t >> _B_SHIFT & _MASK)
        i = bisect_right(xs, (t >> _DEG_SHIFT & _MASK) - y) - 1
        if i < 0 or ys[i] > y:
            rem[t] = c
            continue
        lt, a, tail = entries[i]
        if a != 1:
            d = gcd(a, c)
            c //= d
            s = a // d
            if s != 1:
                for u in work:
                    work[u] *= s
                for u in rem:
                    rem[u] *= s
        q = t - lt
        c = p - c if p else -c
        for u, x in tail:
            u += q
            old = work.get(u)
            if old is None:
                work[u] = c * x % p if p else c * x
                heappush(heap, -u)
                continue
            old += c * x
            if p:
                old %= p
            if old:
                work[u] = old
            else:
                del work[u]
    return rem


def _spair(f, g, lt_f, lt_g, lcm_fg, p):
    """The S-vector (b/d)*x^qf*f - (a/d)*x^qg*g of two kernel elements
    whose leads lt_f and lt_g have the lcm lcm_fg, a and b their lead
    coefficients and d = gcd(a, b), so that it stays integral over QQ;
    over GF(p) a = b = 1."""
    a, b = f[lt_f], g[lt_g]
    d = gcd(a, b)
    cf, cg = b // d, a // d
    qf, qg = lcm_fg - lt_f, lcm_fg - lt_g
    vp = {t + qf: cf * x for t, x in f.items()}
    for t, x in g.items():
        t += qg
        nc = vp.get(t, 0) - cg * x
        if p:
            nc %= p
        if nc:
            vp[t] = nc
        else:
            del vp[t]
    return vp


def _buchberger(gens, p, rank, elim=False):
    """Reduced Groebner basis of the module generated by gens, a list of
    kernel vectors over a field of characteristic p; elim is true when
    they are packed for an elimination order.

    Inputs are taken lazily.  Each nonzero input, normalized, goes into the
    pair heap keyed by its lead term, and an input comes before a pair
    with an equal key.  When it is popped it is reduced against the
    elements so far, and only a nonzero remainder is installed: a zero
    remainder means the input lies in the module they generate.

    Each element, the remainder of an input or of an S-vector, is
    installed by the update procedure of Gebauer & Moeller (J. Symb.
    Comput. 6, 1988; Becker & Weispfenning, Groebner Bases, ch. 5).  Pairs
    form only between leads in one component.  With h the new element:
    - a new pair (h, g) is dropped when the lcm of another new pair
      divides its lcm; of pairs with equal lcms one stays, and it goes too
      when its leads are coprime (the product criterion, for rank 1 only);
    - an old pair is dropped when lead(h) divides its lcm and its lcm with
      neither element equals that lcm (the B_k test);
    - elements whose lead lead(h) divides form no further pairs.
    Pairs are reduced smallest lcm first (normal selection), so nothing
    is scanned when a pair is taken.  Inputs and S-vectors reduce against
    a lead index kept up to date as elements arrive.  Elements are kept,
    and the basis returned in ascending lead order, as _vp_normalize
    makes them.  The ambient deadline is checked once per input or pair
    taken from the heap.
    """
    index = {}
    basis, leads, exps, active = [], [], [], []
    pairs = {}  # component field -> {(i, j): lcm of the leads}, unreduced
    # (lead, 0, n, n-th input) and (lcm, 1, i, j), packed terms, smallest
    # first; at equal terms an input comes before a pair
    heap = []

    def install(vp):
        lead = max(vp)
        vp = _vp_normalize(vp, lead, p)
        if elim:
            _check_range(max(map(_degree, vp)))
        c = lead & _COMPONENT
        _, t = _unpack(lead)
        h = len(basis)
        basis.append(vp)
        leads.append(lead)
        exps.append(t)
        _index_add(index, lead, vp)
        old = pairs.setdefault(c, {})
        for (i, j), L in list(old.items()):
            if (mon_divides(t, L) and mon_lcm(exps[i], t) != L
                    and mon_lcm(exps[j], t) != L):
                del old[i, j]
        new = [(mon_lcm(exps[g], t), g)
               for g in active if leads[g] & _COMPONENT == c]
        kept = []
        for n, (L, g) in enumerate(new):
            coprime = rank == 1 and mon_coprime(exps[g], t)
            if coprime or not (
                    any(mon_divides(M, L) for M, _ in new[n + 1:])
                    or any(mon_divides(M, L) for M, _, _ in kept)):
                kept.append((L, g, coprime))
        for L, g, coprime in kept:
            if not coprime:
                old[g, h] = L
                heappush(heap, (_term(c, L), 1, g, h))
        active[:] = [g for g in active if leads[g] & _COMPONENT != c
                     or not mon_divides(t, exps[g])]
        active.append(h)

    for n, vp in enumerate(gens):
        if vp:
            lead = max(vp)
            heap.append((lead, 0, n, _vp_normalize(vp, lead, p)))
    heapify(heap)
    while heap:
        _DEADLINE.get().check()
        key, is_pair, i, x = heappop(heap)
        if not is_pair:
            vp = x
        elif pairs[leads[i] & _COMPONENT].pop((i, x), None) is None:
            continue
        else:
            vp = _spair(basis[i], basis[x], leads[i], leads[x], key, p)
        r = _vp_normal_form(vp, index, p)
        if r:
            install(r)
    return _autoreduce({leads[g]: basis[g] for g in active}, p)


def _autoreduce(entries, p):
    """The reduced basis, in ascending lead order and normalized, from the
    elements of a Groebner basis by lead term, no lead dividing another.

    In ascending lead order each element's tail is reduced against the
    elements before it, and its lead stays.  Every tail term lies below
    the element's lead, so no later lead divides it, and one pass leaves
    no term divisible by another element's lead.
    """
    index = {}
    out = []
    for lt in sorted(entries):
        reduced = _vp_normalize(_vp_normal_form(entries[lt], index, p),
                                lt, p)
        _index_add(index, lt, reduced)
        out.append(reduced)
    return out


# -- monomial fast paths -------------------------------------------------
#
# A monomial ideal is kept as its minimal exponent pairs, sorted: a
# staircase of corners (a, b) with a strictly rising and b strictly
# falling, and (x, y) lies in the ideal iff y is at least the b of the
# last corner with a <= x (Miller & Sturmfels, Combinatorial Commutative
# Algebra, ch. 3).  Minimalizing is a sort and one sweep, a colon by a
# monomial one shifting pass, and intersecting a merge of two staircases.

def _sweep(pts):
    """Staircase of lexicographically sorted points: a point stays iff its
    b is below the last kept b, which is the least b seen so far."""
    out = []
    for p in pts:
        if not out or p[1] < out[-1][1]:
            out.append(p)
    return out


def _mono_minimalize(exps_list):
    """Minimal exponent pairs under divisibility: the staircase of the
    ideal they generate."""
    return _sweep(sorted(set(exps_list)))


def _mono_components(U):
    """Minimal monomial generators per component, a tuple of staircases
    of exponent pairs; None if U is not monomial.  Computed once and
    kept on U."""
    stairs = U._stairs
    if stairs is _UNSCANNED:
        stairs = U._stairs = _scan_stairs(U)
    return stairs


def _scan_stairs(U):
    comps = [[] for _ in range(U.rank)]
    vps = U._vps if U._vps is not None else map(_to_vp, U.gens)
    for vp in vps:
        if len(vp) > 1:
            return None
        for t in vp:
            c, e = _unpack(t)
            comps[c].append(e)
    return tuple(tuple(_mono_minimalize(lst)) for lst in comps)


def _mono_ideal_colon_single(exps_list, g):
    """(exps_list) : x^g for a minimalized exps_list.

    On a staircase the shifted corners (max(a - g0, 0), max(b - g1, 0))
    stay in order, a never falling and b never rising.  Clipping at 0 can
    repeat an a, where the last corner has the lowest b and stays, or a b,
    where the first stays; one pass gives the staircase of the colon.
    """
    g0, g1 = g
    out = []
    for a, b in exps_list:
        x = a - g0 if a > g0 else 0
        y = b - g1 if b > g1 else 0
        if out and out[-1][0] == x:
            out[-1] = (x, y)
        elif not out or y < out[-1][1]:
            out.append((x, y))
    return out


def _stair_heights(stair, xs):
    """For ascending xs, the least b over corners of stair with a <= x
    (infinite where there is none)."""
    out = []
    i, y = 0, inf
    for x in xs:
        while i < len(stair) and stair[i][0] <= x:
            y = stair[i][1]
            i += 1
        out.append(y)
    return out


def _mono_ideal_intersect(a_list, b_list):
    """Intersection of two minimalized monomial ideals.

    On staircases the Y-bound at each X-breakpoint is the larger of the
    two ideals' bounds, a merge in place of the |A|*|B| lcms.
    """
    if not a_list or not b_list:
        return []
    xs = sorted({a for a, _ in a_list} | {a for a, _ in b_list})
    ys = map(max, _stair_heights(a_list, xs), _stair_heights(b_list, xs))
    return _sweep([(x, y) for x, y in zip(xs, ys) if y != inf])


def _basis(ctx, rank, stairs=_UNSCANNED, vps=None):
    """A reduced basis held as its staircases or its kernel vectors; it is
    its own cached basis, and builds its generators when first read."""
    gb = SubmoduleData.__new__(SubmoduleData)
    gb.ctx, gb.rank, gb._gens, gb._cache = ctx, rank, None, {}
    gb._stairs, gb._vps = stairs, vps
    gb._cache[DEFAULT_ORDER] = gb
    return gb


def _from_mono_components(ctx, rank, comps):
    """The reduced basis with the given minimal generators per component."""
    return _basis(ctx, rank, stairs=tuple(map(tuple, comps)))


def _stair_gens(U):
    """The generator vectors of a reduced basis held as staircases or
    kernel vectors, monic and sorted by lead term."""
    p = U.ctx.characteristic
    return tuple(_from_vp(U.ctx, U.rank, _vp_monic(vp, max(vp), p))
                 for vp in sorted(_kernel_vectors(U), key=max))


def _kernel_vectors(U):
    """U's nonzero generators as the kernel keeps them (_vp_normalize); a
    reduced basis gives its own without building Polynomials."""
    if U._vps is not None:
        return U._vps
    if U._gens is None:
        return [{_pack(c, e): 1} for c, lst in enumerate(U._stairs)
                for e in lst]
    p = U.ctx.characteristic
    return [_vp_normalize(vp, max(vp), p) for vp in map(_to_vp, U.gens)
            if vp]


# -- public operations ---------------------------------------------------

def groebner_basis(U):
    """Reduced Groebner basis of U as a new SubmoduleData (gens = basis).

    Deterministic: monic elements sorted by leading term.  The result is
    cached on U.
    """
    cached = U._cache.get(DEFAULT_ORDER)
    if cached is not None:
        return cached
    if U.is_monomial():
        gb = _from_mono_components(U.ctx, U.rank, _mono_components(U))
    else:
        gb = vector_basis(U.ctx, U.rank, _kernel_vectors(U))
    U._cache[DEFAULT_ORDER] = gb
    return gb


def vector_basis(ctx, rank, vps):
    """Reduced Groebner basis, as groebner_basis returns it, of the
    submodule of A^rank generated by the kernel vectors vps, whose
    coefficients are the field's own or, over QQ, ints; rees.piece_product
    builds them without Polynomials."""
    return _basis(ctx, rank, vps=_buchberger(vps, ctx.characteristic, rank))


def _basis_index(U):
    """The lead index of U's reduced basis, cached on the basis.  Its
    entries are monic, so _vp_normal_form never scales against it and
    gives exact normal forms."""
    gb = groebner_basis(U)
    index = gb._cache.get(_index_add)
    if index is None:
        p = U.ctx.characteristic
        index = gb._cache[_index_add] = {}
        for vp in _kernel_vectors(gb):
            lead = max(vp)
            _index_add(index, lead, _vp_monic(vp, lead, p))
    return index


def contains(U, V):
    """True iff V is a submodule of U.  Monomial modules compare their
    staircases: V lies in U iff U intersect V is V in every component."""
    if U.rank != V.rank:
        raise RankMismatchError("ambient ranks differ")
    if U.ctx != V.ctx:
        raise ContextMismatchError("containment across contexts")
    cu = _mono_components(U)
    if cu is not None:
        cv = _mono_components(V)
        if cv is not None:
            return all(_mono_ideal_intersect(a, b) == list(b)
                       for a, b in zip(cu, cv))
    index, p = _basis_index(U), U.ctx.characteristic
    return not any(_vp_normal_form(vp, index, p)
                   for vp in _kernel_vectors(V))


def member(vec, U):
    """True iff the vector vec, a sequence of Polynomials in U's ring,
    lies in U."""
    return contains(U, SubmoduleData(U.ctx, U.rank, (tuple(vec),)))


def equal(U, V):
    """Submodule equality via canonical reduced bases: their staircases
    when either is monomial, else their kernel vectors."""
    if U.rank != V.rank or U.ctx != V.ctx:
        return False
    U, V = groebner_basis(U), groebner_basis(V)
    su, sv = _mono_components(U), _mono_components(V)
    if su is None and sv is None:
        return _kernel_vectors(U) == _kernel_vectors(V)
    return su == sv


def _eliminate_block(pairs, W, rank):
    """The b with (0, b) in the submodule of A^(q + rank), q = W.rank,
    generated by the pairs (a, b) of kernel vectors, a in A^q and b in
    A^rank, and by (w, 0) for w in W.

    Under the order in which the first q components dominate, the
    elements of its reduced basis with no term there, shifted down by q
    components, are the reduced basis of the b under the default order.
    With the unit vectors of A^rank as the b this is the preimage of W
    under the a, as rees.piece_colon's syzygy route takes it; with b = a
    it is the intersection with W (intersect).
    """
    ctx, q = W.ctx, W.rank
    _check_range(0, q + rank)
    flag = 1 << _FLAG_SHIFT
    vps = [{t | flag: x for t, x in a.items()}
           | {t - q: x for t, x in b.items()} for a, b in pairs]
    vps += [{t | flag: x for t, x in vp.items()}
            for vp in _kernel_vectors(W)]
    basis = _buchberger(vps, ctx.characteristic, q + rank, True)
    return _basis(ctx, rank, vps=[{t + q: x for t, x in vp.items()}
                                  for vp in basis if max(vp) < flag])


def intersect(U, V):
    """U intersect V: the b with (0, b) in the module generated by the
    (u, u) for u in U and the (v, 0) for v in V (Greuel & Pfister, A
    Singular Introduction to Commutative Algebra, ch. 2).

    When one module contains the other, the usual case in the colon
    chains, the smaller one is returned and no elimination runs.
    """
    if U.rank != V.rank:
        raise RankMismatchError("intersection of modules of different rank")
    if U.ctx != V.ctx:
        raise ContextMismatchError("intersection across contexts")
    cu = _mono_components(U)
    if cu is not None:
        cv = _mono_components(V)
        if cv is not None:
            comps = [_mono_ideal_intersect(a, b) for a, b in zip(cu, cv)]
            return _from_mono_components(U.ctx, U.rank, comps)
    if contains(U, V):
        return V
    if contains(V, U):
        return U
    return _eliminate_block([(u, u) for u in _kernel_vectors(U)], V, U.rank)
