"""Rees-algebra layer: embeddings M in A^r, graded pieces, colengths.

A module M inside F = A^r, A = k[X, Y], is held as a generator matrix;
its image ideal MS in S = A[t1..tr] is generated by t-linear forms.  The
fiber-degree-n piece of (MS)^k is a submodule of a free A-module whose
basis is the set of degree-n t-monomials, which is where all length
computations happen.  S is never a ring of its own: an element of S is a
vector over such a basis in each of its degrees.

Pieces meet in exactly two operations: `piece_product`, the product of
two pieces, and `piece_colon`, the vectors of one fiber degree that a set
of vectors of another multiplies into a piece.  Ideals of A are the
pieces of fiber degree 0, so scaling by an ideal is a product and the
colon of a module by an ideal is a piece colon.  A colon takes
one of three routes: staircases for monomial pieces, linear algebra over
k on the standard monomials of a known submodule of the colon when that
has finite colength, and otherwise preimages and intersections.

Pieces, their products and colons, and the constant modules (the unit
ideal as M^0, the maximal ideal, mF) are staircases or kernel vectors.
Polynomials occur only in an embedding's columns as a caller gives or
reads them, in the determinants of fitting_ideal and in direct_sum's
zero entries.
"""

import itertools
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from math import comb
from operator import add

from .errors import ContextMismatchError, InputError, RankMismatchError
from .groebner import (SubmoduleData, contains, groebner_basis, intersect,
                       vector_basis, _basis_index, _by_component,
                       _check_range, _DEADLINE, _degree, _eliminate_block,
                       _from_mono_components, _kernel_vectors,
                       _mono_components, _mono_ideal_colon_single,
                       _mono_ideal_intersect, _mono_minimalize, _pack,
                       _unpack, _vp_normal_form, _vp_normalize, _X, _Y)
from .poly import Polynomial

INFINITE = float("inf")


@cache
def fiber_basis(r, n):
    """Degree-n exponent tuples in r fiber variables, descending order.

    The component order is t1^n > t1^(n-1)*t2 > ... matching the ambient
    degree-reverse-lexicographic comparison, so piece extraction is stable.
    """
    combos = [c for c in itertools.product(range(n + 1), repeat=r)
              if sum(c) == n]
    combos.sort(key=lambda e: tuple(-x for x in reversed(e)), reverse=True)
    return tuple(combos), {e: i for i, e in enumerate(combos)}


@cache
def fiber_products(r, a, b):
    """Table whose [i][j] entry is the degree-(a+b) index of the product
    of the i-th degree-a and the j-th degree-b fiber monomials."""
    basis_a, _ = fiber_basis(r, a)
    basis_b, _ = fiber_basis(r, b)
    _, index_ab = fiber_basis(r, a + b)
    return tuple(tuple(index_ab[tuple(map(add, x, y))] for y in basis_b)
                 for x in basis_a)


def piece_rank(r, n):
    return comb(n + r - 1, r - 1)


class ModuleEmbedding:
    """M inside F = A^r together with its powers M^n, the graded pieces of
    its Rees algebra.

    An embedding is made from M as a SubmoduleData U of rank r >= 1 and
    shares U's cached bases: made from a reduced basis held as
    staircases, it builds no Polynomials until its columns are read.
    columns are M's generators, the t-linear forms that generate the
    image ideal MS in S, and power_piece caches each M^n it computes.
    The colength of F/M is colength(E.submodule()).
    """

    def __init__(self, U):
        if U.rank < 1:
            raise InputError("free module rank must be positive")
        self._submodule = U
        self.ctx = U.ctx
        self.rank = U.rank
        self._power_cache = {}

    @classmethod
    def from_matrix(cls, ctx, rows):
        """Rows of the generator matrix; columns become the generators."""
        rows = [list(r) for r in rows]
        if not rows:
            raise InputError("empty matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise RankMismatchError("ragged generator matrix")
        return cls(SubmoduleData(ctx, len(rows), tuple(zip(*rows))))

    @property
    def columns(self):
        return self._submodule.gens

    def submodule(self):
        """M as the SubmoduleData the embedding was made from, so its
        Groebner basis is computed once."""
        return self._submodule

    # -- graded pieces ---------------------------------------------------

    def power_piece(self, n):
        """M^n as a submodule of the rank-C(n+r-1, r-1) free A-module.

        Stored as its reduced Groebner basis so repeated products stay
        small.  The missing powers below n are filled first, in order,
        and M^n = M^a * M^(n-a) for the largest a >= n/2 with both
        factors monomial: that product takes the monomial fast path and
        never reaches Buchberger, and a non-monomial M can have monomial
        powers (I = ((X+2Y)^4, (X+2Y)^3*Y, (X+2Y)*Y^3, Y^4) has
        I^2 = m^8).  Without such a split a = n-1, since M^(n-1)*M feeds
        Buchberger the fewest products (85*5 rather than 25*41 for M^7
        of a rank-2 binomial module).  The ambient deadline is checked
        once per power computed.
        """
        if n < 0:
            raise InputError("power must be non-negative")
        cache = self._power_cache
        got = cache.get(n)
        if got is not None:
            return got
        _DEADLINE.get().check()
        if n == 0:
            result = SubmoduleData.free(self.ctx, 1)
        elif n == 1:
            result = groebner_basis(self.submodule())
        else:
            for k in range(1, n):
                if k not in cache:
                    self.power_piece(k)
            a = next((a for a in range(n - 1, (n - 1) // 2, -1)
                      if cache[a].is_monomial()
                      and cache[n - a].is_monomial()), n - 1)
            result = piece_product(self, cache[a], a, cache[n - a], n - a)
        cache[n] = result
        return result

    def __repr__(self):
        return f"ModuleEmbedding(rank={self.rank}, ngens={len(self.columns)})"


# -- piece arithmetic ----------------------------------------------------

def _integer_product(u, v, bases, p):
    """The product of two vectors in groebner._by_component form as a kernel
    vector, bases[i][j] being the packed 1 in the component of the
    product of their i-th and j-th; its coefficients are reduced mod p
    when p is nonzero, and zero terms are left out."""
    vp = {}
    get = vp.get
    for i, pu in u:
        row = bases[i]
        for j, qv in v:
            base = row[j]
            for s1, c1 in pu:
                s1 += base
                for s2, c2 in qv:
                    t = s1 + s2
                    vp[t] = get(t, 0) + c1 * c2
    if p:
        return {t: c % p for t, c in vp.items() if c % p}
    return {t: c for t, c in vp.items() if c}


def piece_product(E, A, a, B, b):
    """Groebner basis of the product piece A*B in fiber degree a+b.

    E supplies the free rank r and the ring: the ModuleEmbedding of an
    M in A^r, or any SubmoduleData of A^r when only fiber degrees 0 and
    1 occur (an ideal is a piece of fiber degree 0).  When both pieces
    are monomial, so is the product: its component at t^(alpha+beta) is
    generated by the sums of the exponents of A at t^alpha and B at
    t^beta, and minimalizing each component (a staircase in two
    variables) gives the reduced basis with no polynomial arithmetic.

    Otherwise the kernel vectors of A and B (a basis keeps its own) are
    multiplied with int arithmetic on packed terms, made primitive (monic
    over GF(p)) with groebner's own normalization, and de-duplicated on
    that form: u*v = v*u in M*M, and (x*y)*z = (x*z)*y across M^(n-1)*M,
    and each repeat only adds work that reduces to zero.  The products go
    to groebner.vector_basis, with no Polynomial or Fraction in between.
    Products of too high a degree raise InputError.
    """
    rank = piece_rank(E.rank, a + b)
    comps_a = _mono_components(A)
    comps_b = _mono_components(B) if comps_a is not None else None
    index_ab = fiber_products(E.rank, a, b)
    if comps_b is not None:
        comps = [[] for _ in range(rank)]
        for row, us in zip(index_ab, comps_a):
            for k, vs in zip(row, comps_b):
                comps[k].extend([(x + u, y + v) for x, y in us
                                 for u, v in vs])
        return _from_mono_components(
            E.ctx, rank, [_mono_minimalize(c) for c in comps])
    p = E.ctx.characteristic
    us, vs = _kernel_vectors(A), _kernel_vectors(B)
    if us and vs:
        _check_range(max(_degree(max(vp)) for vp in us)
                     + max(_degree(max(vp)) for vp in vs), rank)
    bases = [[_pack(k, (0, 0)) for k in row] for row in index_ab]
    vs = [_by_component(v) for v in vs]
    products = {}
    for u in us:
        u = _by_component(u)
        for v in vs:
            vp = _integer_product(u, v, bases, p)
            if vp:
                vp = _vp_normalize(vp, max(vp), p)
                products.setdefault(frozenset(vp.items()), vp)
    return vector_basis(E.ctx, rank, list(products.values()))


def piece_colon(E, W, G, low, ambient, inside=None):
    """{v in the fiber-degree-ambient free piece : v*g in W for every g}.

    The g are the generators of G, a submodule of the fiber-degree-low
    piece; zero ones impose no condition.  E is as in piece_product.
    inside, when given, is a submodule of the ambient piece that the
    caller knows lies in the colon.  The first of three routes that
    applies computes the colon:

    - monomial: W and G are monomial.  Each g shifts components by a
      fixed t-monomial, so the colon splits into one ideal colon per
      component, intersected over the g.
    - linear algebra: inside has finite colength.  v -> (NF_W(v*g))_g is
      k-linear on the ambient piece F and vanishes on inside, so the
      colon is inside plus the kernel of that map on the span of inside's
      standard monomials, a finite-dimensional space (_colon_kernel).
    - syzygy: otherwise each g maps the basis vectors of the ambient
      piece into the piece of W, the preimage of W is a syzygy
      computation over the base ring (groebner._eliminate_block), and
      the colon is the intersection of the preimages.
    """
    r, ctx = E.rank, E.ctx
    rank_amb = piece_rank(r, ambient)
    if G.is_zero():
        return SubmoduleData.free(ctx, rank_amb)
    index = fiber_products(r, ambient, low)
    comps_w = _mono_components(W)
    comps_g = _mono_components(G)
    if comps_w is not None and comps_g is not None:
        comps = []
        for row in index:
            acc = None
            for k, exps in zip(row, comps_g):
                for e in exps:
                    part = _mono_ideal_colon_single(comps_w[k], e)
                    acc = part if acc is None else _mono_ideal_intersect(
                        acc, part)
            comps.append(acc)
        return _from_mono_components(ctx, rank_amb, comps)
    if inside is not None:
        B, stairs = _standard_stairs(inside)
        if stairs is not None:
            kernel = _colon_kernel(W, _kernel_vectors(G), index, stairs)
            if not kernel:
                return B
            return vector_basis(ctx, rank_amb,
                                [*_kernel_vectors(B), *kernel])
    result = None
    for g in _kernel_vectors(G):
        part = _eliminate_block(
            [(_unit_times(row, g), {_pack(c, (0, 0)): 1})
             for c, row in enumerate(index)], W, rank_amb)
        if result is not None:
            part = intersect(result, part)
        result = groebner_basis(part)
    return result


def _unit_times(row, g):
    """The kernel vector g of a low fiber degree times the ambient unit
    vector whose products row is, a row of the fiber_products table."""
    return {_pack(row[j], e): y for t, y in g.items()
            for j, e in [_unpack(t)]}


def _colon_kernel(W, gens_low, products, stairs):
    """Kernel vectors that, with inside, generate the colon of
    piece_colon: the kernel of s -> (NF_W(s*g))_g on the span of the
    standard monomials s of inside, whose lead staircases are stairs.
    gens_low are the g as kernel vectors, and products is the
    fiber_products table of the ambient and the low degree.

    The s are walked column by column, X^a*Y^b after X^a*Y^(b-1) and the
    foot X^a after X^(a-1), all standard as the staircase is an order
    ideal.  So each image is the normal form of the one before it times
    a variable, NF_W(x*v) = NF_W(x*NF_W(v)), as in FGLM (Faugere,
    Gianni, Lazard & Mora, J. Symb. Comput. 16, 1993).  W's basis index
    is monic, so the reduction never scales.  The images are eliminated
    one by one over the field, each row tagged with the combination of
    standard monomials it came from (Marinari, Moeller & Mora, AAECC 4,
    1993); a row that reduces to zero leaves its tag, an element of the
    colon.  The ambient deadline is checked once per standard monomial.
    """
    p = W.ctx.characteristic
    basis_index = _basis_index(W)

    def times(vps, x):
        return [_vp_normal_form({t + x: y for t, y in vp.items()},
                                basis_index, p) for vp in vps]

    pivots = {}
    kernel = []
    for c, steps in enumerate(stairs):
        for a1, a2, height in steps:
            for a in range(a1, a2):
                if a:
                    foot = times(foot, _X)
                else:
                    foot = [_vp_normal_form(_unit_times(products[c], g),
                                            basis_index, p)
                            for g in gens_low]
                column = foot
                for b in range(height):
                    _DEADLINE.get().check()
                    if b:
                        column = times(column, _Y)
                    tag = _eliminate(
                        {(i, t): y for i, vp in enumerate(column)
                         for t, y in vp.items()},
                        {_pack(c, (a, b)): 1}, pivots, p)
                    if tag is not None:
                        kernel.append(tag)
    return kernel


def _eliminate(row, tag, pivots, p):
    """Reduce row, and its tag alongside, against the pivot rows over the
    field of characteristic p: each is stored under its least term, with
    the inverse of its coefficient there.  Return the tag if the row
    reduces to zero; otherwise store the row as a new pivot and return
    None.  A pivot row only has terms above its pivot, so taking the
    row's terms least first reaches each one at most once."""
    heap = list(row)
    heapify(heap)
    while heap:
        t = heappop(heap)
        x = row.get(t)
        hit = None if x is None else pivots.get(t)
        if hit is None:
            continue
        pivot_row, pivot_tag, inv = hit
        f = -x * inv % p if p else -x * inv
        for vec, other in ((row, pivot_row), (tag, pivot_tag)):
            for u, y in other.items():
                old = vec.get(u)
                if old is None:
                    vec[u] = f * y % p if p else f * y
                    if vec is row:
                        heappush(heap, u)
                    continue
                nc = old + f * y
                if p:
                    nc %= p
                if nc == 0:
                    del vec[u]
                else:
                    vec[u] = nc
    if not row:
        return tag
    t = min(row)
    x = row[t]
    pivots[t] = (row, tag, pow(x, p - 2, p) if p else 1 / Fraction(x))
    return None


# -- lengths and generators ----------------------------------------------

def _standard_stairs(U):
    """U's reduced basis and, per component, the staircase of its lead
    terms as steps (a1, a2, b): the standard monomials X^a*Y^b' in the
    component are those with a1 <= a < a2 and b' < b for some step.  The
    steps are None when a staircase does not close off, that is when U
    has infinite colength."""
    gb = groebner_basis(U)
    comps = _mono_components(gb)
    if comps is None:
        comps = [[] for _ in range(U.rank)]
        for vp in _kernel_vectors(gb):
            c, e = _unpack(max(vp))
            comps[c].append(e)
    stairs = []
    for lst in comps:
        pts = sorted(lst)
        if not pts or pts[0][0] != 0 or pts[-1][1] != 0:
            return gb, None
        stairs.append([(a1, a2, b1)
                       for (a1, b1), (a2, _) in zip(pts, pts[1:])])
    return gb, stairs


def colength(U):
    """Length of the quotient of the ambient free module by U.

    Counts standard monomials of the leading-term module; INFINITE when
    some component's staircase fails to close off.
    """
    _, stairs = _standard_stairs(U)
    if stairs is None:
        return INFINITE
    return sum((a2 - a1) * b for steps in stairs for a1, a2, b in steps)


def maximal_ideal(ctx, rank=1, power=1):
    """m^power * A^rank, m = (X, Y): in each component the staircase of
    the monomials of degree power."""
    return _from_mono_components(
        ctx, rank, [[(a, power - a) for a in range(power + 1)]] * rank)


def min_gens(U):
    """mu = dim_k(U / mU) of a SubmoduleData U, the rank over k of the
    normal forms NF_mU(g) of U's generators: NF_mU is k-linear with
    kernel mU, and mU's basis is computed once.
    """
    p = U.ctx.characteristic
    vps = _kernel_vectors(U)
    mU = vector_basis(U.ctx, U.rank, [{t + x: y for t, y in vp.items()}
                                      for vp in vps for x in (_X, _Y)])
    index = _basis_index(mU)
    pivots = {}
    for vp in vps:
        _eliminate(_vp_normal_form(vp, index, p), {}, pivots, p)
    return len(pivots)


def is_parameter_module(E):
    """Finite colength, M inside mF, and mu = dim A + r - 1."""
    d = len(E.ctx.base_vars)
    M = E.submodule()
    length = colength(M)
    finite = length is not INFINITE
    inside = contains(maximal_ideal(E.ctx, E.rank), M)
    mu = min_gens(M)
    expected = d + E.rank - 1
    verdict = finite and inside and mu == expected
    return verdict, {
        "finite_colength": finite,
        "inside_mF": inside,
        "mu": mu,
        "mu_expected": expected,
        "colength": length if finite else "INFINITE",
    }


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    ctx = matrix[0][0].ctx
    total = Polynomial.zero(ctx)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * _det(minor)
        total = total - term if j % 2 else total + term
    return total


def fitting_ideal(E, i):
    """Ideal of (r - i) x (r - i) minors of the generator matrix."""
    if not 0 <= i < E.rank:
        raise InputError(f"Fitting index {i} out of range for rank {E.rank}")
    size = E.rank - i
    s = len(E.columns)
    if s < size:
        return SubmoduleData.zero(E.ctx, 1)
    rows = [[E.columns[j][k] for j in range(s)] for k in range(E.rank)]
    minors = []
    for rsel in itertools.combinations(range(E.rank), size):
        for csel in itertools.combinations(range(s), size):
            sub = [[rows[a][b] for b in csel] for a in rsel]
            m = _det(sub)
            if not m.is_zero():
                minors.append(m)
    return groebner_basis(SubmoduleData.ideal(E.ctx, minors))


def ord_ideal(I):
    """Largest n with I contained in m^n (minimum term degree on a basis)."""
    if I.rank != 1:
        raise RankMismatchError("ord is defined for ideals")
    vps = _kernel_vectors(groebner_basis(I))
    if not vps:
        raise InputError("ord of the zero ideal is undefined")
    return min(_degree(t) for vp in vps for t in vp)


# -- embedding constructions ---------------------------------------------

def direct_sum(E1, E2):
    if E1.ctx != E2.ctx:
        raise ContextMismatchError("direct sum across contexts")
    z = Polynomial.zero(E1.ctx)
    cols = [tuple(col) + (z,) * E2.rank for col in E1.columns]
    cols += [(z,) * E1.rank + tuple(col) for col in E2.columns]
    return ModuleEmbedding(SubmoduleData(E1.ctx, E1.rank + E2.rank,
                                         tuple(cols)))


def scale_by_ideal(E, I):
    """The embedding of I*M for an ideal I of the base ring, the product
    of I in fiber degree 0 and M in fiber degree 1."""
    if I.rank != 1:
        raise RankMismatchError("not an ideal")
    if I.ctx != E.ctx:
        raise ContextMismatchError("scaling across contexts")
    return ModuleEmbedding(piece_product(E, I, 0, E.submodule(), 1))


def add_columns(E, extra_columns):
    return ModuleEmbedding(SubmoduleData.from_vectors(
        E.ctx, E.rank, (*E.columns, *extra_columns)))
