"""Buchberger's algorithm for ideals and submodules of free modules over
A = k[X, Y].

Everything downstream (closures, graded pieces, theorem deciders) reduces
to the operations here: reduced Groebner bases, normal forms, membership,
preimages and intersection.  Each of them is a Groebner basis under a
ModuleOrder over one ring.  Preimage and intersection are one
elimination of a block of components: both pair the vectors they start
from with tags in a second block, and read the result off the basis
elements free of the first (_eliminate_block).

Internally a module element is a dict mapping (component, exponent pair)
to a nonzero coefficient.  Generators that are all single terms take a
fast combinatorial path: the S-vector of two terms vanishes, so a reduced
basis is just the staircase of minimal terms per component.  Such a
basis is stored as its staircases, and its Polynomial generators are
built only when gens is first read; equal compares two monomial bases
by their staircases.

Other generators go through Buchberger's algorithm.  Its pairs are
installed by the Gebauer-Moeller update, and each reduction takes terms
from a max-heap and finds its reducer in a lead index: per component, a
staircase searched by bisection.  The index grows with the basis, and a
cached basis keeps one for normal_form.  Inputs are taken lazily: each
waits in the pair queue under its lead term and is reduced against the
basis so far when its turn comes, so the many redundant products that
build a module's powers are dropped as zero remainders instead of being
paired.  vector_basis takes inputs that are already kernel vectors, as
rees.piece_product builds them, and groebner_basis goes through it too.

Over QQ the kernel computes with primitive integer vectors and
pseudo-reduction in place of Fraction arithmetic, and makes the basis
monic, with Fraction coefficients, only at the end; over GF(p) its
elements are monic throughout.  The reduced basis is unique, so both
fields return the same bases as a monic computation would.
"""

from bisect import bisect_right
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .context import mon_coprime, mon_div, mon_divides, mon_lcm, mon_mul
from .errors import ContextMismatchError, RankMismatchError
from .poly import Polynomial


# -- orders on module monomials ------------------------------------------

class ModuleOrder:
    """Term-over-position order on a free module over the context's order.

    The monomial is compared first, then the component, a lower index
    being larger.  The first elim_components components dominate all
    others, as the one elimination here needs: preimage and intersect
    both read their result off the elements free of that block.  Keys
    are flat tuples of integers, so _descending can negate them.  Orders
    are values: equal orders hash alike and share the basis cached for
    them.
    """

    __slots__ = ("elim_components",)

    def __init__(self, elim_components=0):
        self.elim_components = elim_components

    def __eq__(self, other):
        if other.__class__ is not ModuleOrder:
            return NotImplemented
        return self.elim_components == other.elim_components

    def __hash__(self):
        return hash(self.elim_components)

    def __repr__(self):
        return f"ModuleOrder(elim_components={self.elim_components!r})"

    def key_function(self, ctx):
        monkey = ctx.mon_key
        elim = self.elim_components

        def key(term):
            c, e = term
            return (1 if c < elim else 0, *monkey(e), -c)
        return key


DEFAULT_ORDER = ModuleOrder()


# -- submodule container -------------------------------------------------

_UNSCANNED = object()  # SubmoduleData._stairs before the first scan


class SubmoduleData:
    """A finitely generated submodule of a free module A^rank.

    rank == 1 means an ideal.  Generators are tuples of Polynomials.  The
    reduced Groebner basis for each order is cached after the first
    computation; it is canonical, so concurrent fillers agree.  A basis
    also caches the lead index that normal_form reduces against.

    A monomial submodule is held as its staircases: per component, the
    minimal exponent pairs, sorted (_mono_components).  A reduced basis
    the monomial fast paths build has no Polynomials until gens is first
    read, which builds them in lead order (_stair_gens).  Instances
    compare and hash on (ctx, rank, gens); the cache takes no part in
    either.
    """

    __slots__ = ("ctx", "rank", "_gens", "_stairs", "_cache")

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
        self._cache = {}

    @property
    def gens(self):
        gens = self._gens
        if gens is None:
            gens = self._gens = _stair_gens(self, DEFAULT_ORDER)
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
        one = Polynomial.one(ctx)
        z = Polynomial.zero(ctx)
        gens = tuple(tuple(one if i == c else z for i in range(rank))
                     for c in range(rank))
        return cls(ctx, rank, gens)

    # -- inspection ------------------------------------------------------

    def ideal_gens(self):
        if self.rank != 1:
            raise RankMismatchError("not an ideal")
        return tuple(g[0] for g in self.gens)

    def is_zero(self):
        stairs = _mono_components(self)
        return stairs is not None and not any(stairs)

    def is_monomial(self):
        """True when every generator is a single term in one component."""
        return _mono_components(self) is not None


# -- raw vector-polynomial helpers ---------------------------------------

def _to_vp(vec):
    vp = {}
    for c, p in enumerate(vec):
        for exps, coeff in p.terms.items():
            vp[(c, exps)] = coeff
    return vp


def _from_vp(ctx, rank, vp):
    cols = [{} for _ in range(rank)]
    for (c, exps), coeff in vp.items():
        cols[c][exps] = coeff
    return tuple(Polynomial(ctx, terms) for terms in cols)


def _vp_monic(vp, lc, field):
    """vp divided by its lead coefficient lc.  Over QQ the result holds
    Fractions even where vp holds integers."""
    inv = field.invert(lc)
    return {t: field.mul(c, inv) for t, c in vp.items()}


def _vp_normalize(vp, lt, field):
    """vp as the kernel keeps it, lt being its lead term: over GF(p)
    monic; over QQ a primitive integer vector (denominators cleared,
    content divided out) with a positive lead coefficient."""
    if field.characteristic:
        return vp if vp[lt] == 1 else _vp_monic(vp, vp[lt], field)
    den = lcm(*[c.denominator for c in vp.values()])
    ints = {t: c.numerator * (den // c.denominator) for t, c in vp.items()}
    g = gcd(*ints.values())
    if ints[lt] < 0:
        g = -g
    return {t: c // g for t, c in ints.items()}


class _LeadIndex:
    """Kernel elements by lead term, for finding a reducer.

    Each component keeps only minimal leads.  They form a staircase, and
    the one lead that can divide (x, y) is the last corner with a <= x,
    found by bisection.
    """

    def __init__(self):
        self._comps = {}  # component -> (corner a's, corner b's, entries)

    def add(self, lead, vp):
        """Index vp under lead, unless an indexed lead divides it; drop
        the indexed leads that lead divides."""
        c, e = lead
        xs, ys, entries = self._comps.setdefault(c, ([], [], []))
        x, y = e
        i = bisect_right(xs, x)
        if i and ys[i - 1] <= y:
            return
        lo = i - 1 if i and xs[i - 1] == x else i
        hi = i
        while hi < len(ys) and ys[hi] >= y:
            hi += 1
        xs[lo:hi], ys[lo:hi], entries[lo:hi] = [x], [y], [(lead, vp)]

    def find(self, term):
        """An indexed (lead, vp) whose lead divides term, or None."""
        c, e = term
        comp = self._comps.get(c)
        if comp is None:
            return None
        xs, ys, entries = comp
        i = bisect_right(xs, e[0]) - 1
        if i >= 0 and ys[i] <= e[1]:
            return entries[i]
        return None


def _descending(key):
    """Memoized negated key: ascending order of these keys is descending
    term order, which turns heapq's min-heap into a max-heap.  Needs the
    flat integer tuples ModuleOrder.key_function builds.  The memo lives
    as long as the returned function, so make one per Groebner run or
    per normal_form call, not per basis."""
    memo = {}

    def down(term):
        k = memo.get(term)
        if k is None:
            k = memo[term] = tuple([-x for x in key(term)])
        return k
    return down


def _vp_normal_form(vp, index, down, field):
    """Normal form of vp, up to a nonzero factor, against the entries of
    a _LeadIndex.

    The terms left to reduce sit in a dict and, keyed by down, in a lazy
    max-heap (Monagan & Pearce, J. Symb. Comput. 46, 2011): a term is
    pushed when it enters the dict, and a popped term no longer in the
    dict (cancelled, or a repeat) is skipped.  Every term a reduction
    step adds lies below the term it removes, so none is taken twice.

    A reducer's lead coefficient a is 1 unless the entries are the
    kernel's integer vectors over QQ.  When a does not divide the
    coefficient c to cancel, the terms left to reduce and the remainder
    kept so far are first multiplied by a/gcd(a, c) (pseudo-reduction),
    so the arithmetic stays in the integers.
    """
    work = dict(vp)
    heap = [(down(t), t) for t in work]
    heapify(heap)
    rem = {}
    add, mul, neg = field.add, field.mul, field.neg
    while heap:
        t = heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        hit = index.find(t)
        if hit is None:
            rem[t] = c
            continue
        lt, terms = hit
        a = terms[lt]
        if a != 1:
            d = gcd(a, c)
            c //= d
            s = a // d
            if s != 1:
                for u in work:
                    work[u] *= s
                for u in rem:
                    rem[u] *= s
        c = neg(c)
        q = mon_div(t[1], lt[1])
        for g, gcoeff in terms.items():
            if g == lt:
                continue
            tt = (g[0], mon_mul(g[1], q))
            old = work.get(tt)
            if old is None:
                work[tt] = mul(c, gcoeff)
                heappush(heap, (down(tt), tt))
                continue
            nc = add(old, mul(c, gcoeff))
            if nc == 0:
                del work[tt]
            else:
                work[tt] = nc
    return rem


def _spair(f, g, lt_f, lt_g, field):
    """The S-vector (b/d)*x^qf*f - (a/d)*x^qg*g of two kernel elements,
    a and b their lead coefficients and d = gcd(a, b), so that it stays
    integral over QQ; over GF(p) a = b = 1."""
    a, b = f[lt_f], g[lt_g]
    d = gcd(a, b)
    cf, cg = b // d, a // d
    L = mon_lcm(lt_f[1], lt_g[1])
    qf = mon_div(L, lt_f[1])
    qg = mon_div(L, lt_g[1])
    vp = {}
    for (c, e), coeff in f.items():
        vp[(c, mon_mul(e, qf))] = cf * coeff
    for (c, e), coeff in g.items():
        t = (c, mon_mul(e, qg))
        nc = field.sub(vp.get(t, 0), cg * coeff)
        if nc == 0:
            vp.pop(t, None)
        else:
            vp[t] = nc
    return vp


def _buchberger(gens, key, field, rank, deadline=None):
    """Reduced Groebner basis of the module generated by gens (list of vps).

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
    a _LeadIndex kept up to date as elements arrive.  Elements are kept as
    _vp_normalize makes them; the returned basis is monic.  deadline, when
    given, is checked once per input or pair taken from the heap.
    """
    down = _descending(key)
    index = _LeadIndex()
    basis, leads, active = [], [], []
    pairs = {}  # component -> {(i, j): lcm of the leads}, not yet reduced
    # (key of the lead, 0, n, n-th input) and (key of the lcm, 1, i, j),
    # smallest first; at equal keys an input comes before a pair
    heap = []

    def install(vp):
        c, t = lead = max(vp, key=key)
        vp = _vp_normalize(vp, lead, field)
        h = len(basis)
        basis.append(vp)
        leads.append(lead)
        index.add(lead, vp)
        old = pairs.setdefault(c, {})
        for (i, j), L in list(old.items()):
            if (mon_divides(t, L) and mon_lcm(leads[i][1], t) != L
                    and mon_lcm(leads[j][1], t) != L):
                del old[i, j]
        new = [(mon_lcm(leads[g][1], t), g)
               for g in active if leads[g][0] == c]
        kept = []
        for n, (L, g) in enumerate(new):
            coprime = rank == 1 and mon_coprime(leads[g][1], t)
            if coprime or not (
                    any(mon_divides(M, L) for M, _ in new[n + 1:])
                    or any(mon_divides(M, L) for M, _, _ in kept)):
                kept.append((L, g, coprime))
        for L, g, coprime in kept:
            if not coprime:
                old[g, h] = L
                heappush(heap, (key((c, L)), 1, g, h))
        active[:] = [g for g in active
                     if leads[g][0] != c or not mon_divides(t, leads[g][1])]
        active.append(h)

    for n, vp in enumerate(gens):
        if vp:
            lead = max(vp, key=key)
            heap.append((key(lead), 0, n, _vp_normalize(vp, lead, field)))
    heapify(heap)
    while heap:
        if deadline is not None:
            deadline.check()
        _, is_pair, i, x = heappop(heap)
        if not is_pair:
            vp = x
        elif pairs[leads[i][0]].pop((i, x), None) is None:
            continue
        else:
            vp = _spair(basis[i], basis[x], leads[i], leads[x], field)
        r = _vp_normal_form(vp, index, down, field)
        if r:
            install(r)
    return _autoreduce([(leads[g], basis[g]) for g in active],
                       key, down, field)


def _autoreduce(entries, key, down, field):
    """The reduced basis, monic, from the (lead, vp) entries of a
    Groebner basis.

    In ascending lead order an entry is dropped when an earlier lead
    divides its own; otherwise its tail is reduced against the entries
    kept before it (no entry's lead divides its lead, which stays).
    Every tail term lies below the entry's lead, so no later lead
    divides it, and one pass leaves no term divisible by another entry's
    lead.  The index keeps the entries as the kernel does; the result is
    made monic only at the end.
    """
    index = _LeadIndex()
    out = []
    for lt, vp in sorted(entries, key=lambda e: key(e[0])):
        if index.find(lt) is not None:
            continue
        reduced = _vp_normal_form(vp, index, down, field)
        index.add(lt, _vp_normalize(reduced, lt, field))
        out.append(_vp_monic(reduced, reduced[lt], field))
    return out


# -- monomial fast paths -------------------------------------------------
#
# A monomial ideal is kept as its minimal exponent pairs, sorted: a
# staircase of corners (a, b) with a strictly rising and b strictly
# falling, and (x, y) lies in the ideal iff y is at least the b of the
# last corner with a <= x (Miller & Sturmfels, Combinatorial Commutative
# Algebra, ch. 3).  Minimalizing is a sort and one sweep, a colon by a
# monomial one shifting pass, and intersecting a merge of two staircases.

_INF = float("inf")


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
    for g in U.gens:
        nonzero = [(c, p) for c, p in enumerate(g) if not p.is_zero()]
        if len(nonzero) > 1:
            return None
        if nonzero:
            c, p = nonzero[0]
            if not p.is_term():
                return None
            comps[c].append(p.leading_monomial())
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
    i, y = 0, _INF
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
    return _sweep([(x, y) for x, y in zip(xs, ys) if y != _INF])


def _from_mono_components(ctx, rank, comps, order=DEFAULT_ORDER):
    """The reduced basis with the given minimal generators per component;
    it is its own cached basis.  Its generators, monic terms sorted by
    lead term under order, are built when first read, and at once for
    an order other than the default."""
    gb = SubmoduleData.__new__(SubmoduleData)
    gb.ctx, gb.rank, gb._gens, gb._cache = ctx, rank, None, {order: gb}
    gb._stairs = tuple(map(tuple, comps))
    if order != DEFAULT_ORDER:
        gb._gens = _stair_gens(gb, order)
    return gb


def _stair_gens(U, order):
    """The generator vectors of the reduced basis U._stairs, sorted by
    lead term under order."""
    ctx, rank = U.ctx, U.rank
    z = Polynomial.zero(ctx)
    leads = [(c, e) for c, lst in enumerate(U._stairs) for e in lst]
    leads.sort(key=order.key_function(ctx))
    return tuple(tuple(Polynomial.monomial(ctx, e) if i == c else z
                       for i in range(rank))
                 for c, e in leads)


def _kernel_vectors(U):
    """U's generators as kernel vectors (_to_vp); a basis still held as
    staircases gives them without building Polynomials."""
    if U._gens is None:
        one = U.ctx.field.one
        return [{(c, e): one} for c, lst in enumerate(U._stairs)
                for e in lst]
    return [_to_vp(g) for g in U.gens]


# -- public operations ---------------------------------------------------

def groebner_basis(U, order=None):
    """Reduced Groebner basis of U as a new SubmoduleData (gens = basis).

    Deterministic: monic elements sorted by leading term.  The result for
    the default order is cached on U.
    """
    cache_key = order or DEFAULT_ORDER
    cached = U._cache.get(cache_key)
    if cached is not None:
        return cached
    comps = _mono_components(U)
    if comps is not None:
        gb = _from_mono_components(U.ctx, U.rank, comps, cache_key)
    else:
        gb = vector_basis(U.ctx, U.rank, _kernel_vectors(U), cache_key)
    U._cache[cache_key] = gb
    return gb


def vector_basis(ctx, rank, vps, order=DEFAULT_ORDER, deadline=None):
    """Reduced Groebner basis, as groebner_basis returns it, of the
    submodule of A^rank generated by the kernel vectors vps: dicts from
    (component, exponent tuple) to a coefficient, the field's own or,
    over QQ, an int.  Callers that build their generators term by term,
    like rees.piece_product, hand them over here without making
    Polynomials first.  deadline is as in _buchberger."""
    basis = _buchberger(vps, order.key_function(ctx), ctx.field, rank,
                        deadline)
    gb = SubmoduleData(ctx, rank,
                       tuple(_from_vp(ctx, rank, vp) for vp in basis))
    gb._cache[order] = gb
    return gb


def _basis_index(U, order=None):
    """The _LeadIndex of U's reduced basis for order, cached on the basis.
    Its entries are monic, so _vp_normal_form never scales against it."""
    gb = groebner_basis(U, order)
    order = order or DEFAULT_ORDER
    index = gb._cache.get((_LeadIndex, order))
    if index is None:
        key = order.key_function(U.ctx)
        index = gb._cache[_LeadIndex, order] = _LeadIndex()
        for vp in _kernel_vectors(gb):
            if vp:
                index.add(max(vp, key=key), vp)
    return index


def normal_form(vec, U, order=None):
    """Remainder of vec on division by the (Groebner basis of) U."""
    if len(vec) != U.rank:
        raise RankMismatchError(f"vector length {len(vec)} vs rank {U.rank}")
    index = _basis_index(U, order)
    key = (order or DEFAULT_ORDER).key_function(U.ctx)
    r = _vp_normal_form(_to_vp(vec), index, _descending(key), U.ctx.field)
    return _from_vp(U.ctx, U.rank, r)


def contains(U, V):
    """True iff V is a submodule of U."""
    if U.rank != V.rank:
        raise RankMismatchError("ambient ranks differ")
    if U.ctx != V.ctx:
        raise ContextMismatchError("containment across contexts")
    cu = _mono_components(U)
    if cu is not None:
        cv = _mono_components(V)
        if cv is not None:
            return all(all(any(mon_divides(u, v) for u in cu[c]) for v in lst)
                       for c, lst in enumerate(cv))
    return all(all(p.is_zero() for p in normal_form(g, U)) for g in V.gens)


def member(vec, U):
    return all(p.is_zero() for p in normal_form(vec, U))


def equal(U, V):
    """Submodule equality via canonical reduced bases.  The reduced basis
    of a monomial submodule is its staircases, so two bases of which
    one is monomial are equal iff their staircases are."""
    if U.rank != V.rank or U.ctx != V.ctx:
        return False
    U, V = groebner_basis(U), groebner_basis(V)
    su, sv = _mono_components(U), _mono_components(V)
    if su is None and sv is None:
        return U.gens == V.gens
    return su == sv


def _eliminate_block(pairs, W, rank):
    """The b with (0, b) in the submodule of A^(q + rank), q = W.rank,
    generated by the pairs (a, b) and by (w, 0) for w in W.gens.

    Under the order in which the first q components dominate, the
    elements of its reduced basis with no term there are a basis of the
    b; term over position orders them, monic and reduced, exactly as the
    default order does, so they are the result's own cached basis.
    """
    ctx, q = W.ctx, W.rank
    vps = [_to_vp(tuple(a) + tuple(b)) for a, b in pairs]
    vps += _kernel_vectors(W)
    key = ModuleOrder(elim_components=q).key_function(ctx)
    gens = tuple(_from_vp(ctx, rank, {(c - q, e): x
                                      for (c, e), x in vp.items()})
                 for vp in _buchberger(vps, key, ctx.field, q + rank)
                 if all(c >= q for c, _ in vp))
    gb = SubmoduleData(ctx, rank, gens)
    gb._cache[DEFAULT_ORDER] = gb
    return gb


def preimage(columns, W):
    """{v in A^p : sum v_j * columns[j] in W}, as its reduced basis.

    columns: list of vectors in A^q (q = W.rank).  Computed by the syzygy
    method: each column, tagged with a unit vector of A^p, goes into one
    block elimination with W.
    """
    ctx, p = W.ctx, len(columns)
    units = SubmoduleData.free(ctx, p).gens
    return _eliminate_block(zip(columns, units), W, p)


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
    return _eliminate_block(((u, u) for u in U.gens), V, U.rank)
