"""The ring context and the monomial order.

The engine works in A = k[X, Y]: a context fixes the characteristic p of
k, its only description of the field (0 for exact rationals, a prime for
GF(p)), and the names of the two variables, and orders monomials,
exponent pairs (a, b), degree-reverse-lexicographically.  Coefficients
are Fractions over QQ and ints in [0, p) over GF(p), and every layer
computes with them inline from p.  The Rees algebra S = A[t1..tr] is
never a ring here: its graded pieces are free A-modules
(rees.fiber_basis).
"""

from math import isqrt

from .errors import InputError


class RingContext:
    """Immutable description of the ring A = k[X, Y].

    characteristic is 0 or a prime below 2^31, anything else raises
    InputError; it is the context's only description of the field k.
    base_vars names exactly two distinct variables; anything else raises
    InputError, so every ring the engine meets has two.  The context
    describes the ring only: the module orders of the Groebner kernel,
    elimination included, are packed into its terms (groebner._pack).
    """

    __slots__ = ("characteristic", "base_vars", "nvars", "var_index",
                 "_hash")

    def __init__(self, characteristic=0, base_vars=("X", "Y")):
        base_vars = tuple(base_vars)
        if len(set(base_vars)) != 2 or len(base_vars) != 2 \
                or not all(base_vars):
            raise InputError(
                "the ring needs exactly two base variables with distinct, "
                f"non-empty names, got {', '.join(map(repr, base_vars))}")
        p = characteristic
        if p and not (2 <= p < 1 << 31
                      and all(p % q for q in range(2, isqrt(p) + 1))):
            raise InputError(
                f"characteristic must be 0 or a prime below 2^31, got {p}")
        self.characteristic = characteristic
        self.base_vars = base_vars
        self.nvars = 2
        self.var_index = {v: i for i, v in enumerate(base_vars)}
        self._hash = hash((characteristic, base_vars))

    # -- order -----------------------------------------------------------

    def mon_key(self, exps):
        """Sort key of an exponent pair (a, b), a flat tuple of integers;
        larger key means larger monomial."""
        a, b = exps
        return (a + b, -b, -a)

    # -- equality --------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, RingContext)
                and self.characteristic == other.characteristic
                and self.base_vars == other.base_vars)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"RingContext(char={self.characteristic}, "
                f"base={'%s' % (self.base_vars,)})")


# -- exponent-pair helpers -----------------------------------------------

def mon_one(nvars):
    return (0,) * nvars


def mon_mul(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mon_divides(a, b):
    """True iff monomial a divides monomial b."""
    return a[0] <= b[0] and a[1] <= b[1]


def mon_lcm(a, b):
    x, y = a
    u, v = b
    return (x if x > u else u, y if y > v else v)


def mon_coprime(a, b):
    return (a[0] == 0 or b[0] == 0) and (a[1] == 0 or b[1] == 0)
