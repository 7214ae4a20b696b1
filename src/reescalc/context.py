"""Coefficient fields, the ring context, and the monomial order.

The engine works in A = k[X, Y]: a context fixes the coefficient field
(exact rationals or a prime field) and the names of the two variables,
and orders monomials, exponent pairs (a, b), degree-reverse-
lexicographically.  The Rees algebra S = A[t1..tr] is never a ring here:
its graded pieces are free A-modules (rees.fiber_basis).
"""

from fractions import Fraction
from math import isqrt

from .errors import InputError


class RationalField:
    """Exact rationals; values are Fraction in lowest terms."""

    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Prime field F_p; values are reduced representatives in [0, p)."""

    def __init__(self, p):
        if not 2 <= p < 1 << 31 or any(
                p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise InputError(
                f"characteristic must be 0 or a prime below 2^31, got {p}")
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, Fraction):
            if value.denominator % self.characteristic == 0:
                raise ZeroDivisionError("denominator vanishes in F_p")
            return (value.numerator * self.invert(value.denominator)) % self.characteristic
        return int(value) % self.characteristic

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return (a * b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def invert(self, a):
        a %= self.characteristic
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.characteristic - 2, self.characteristic)

    def __repr__(self):
        return f"GF({self.characteristic})"

    def __eq__(self, other):
        return (isinstance(other, PrimeField)
                and other.characteristic == self.characteristic)

    def __hash__(self):
        return hash(("GF", self.characteristic))


class RingContext:
    """Immutable description of the ring A = k[X, Y].

    base_vars names exactly two distinct variables; anything else raises
    InputError, so every ring the engine meets has two.  The context
    describes the ring only: the module orders of the Groebner kernel,
    elimination included, are packed into its terms (groebner._pack).
    """

    __slots__ = ("characteristic", "base_vars", "field", "nvars",
                 "var_index", "_hash")

    def __init__(self, characteristic=0, base_vars=("X", "Y")):
        base_vars = tuple(base_vars)
        if len(set(base_vars)) != 2 or len(base_vars) != 2 \
                or not all(base_vars):
            raise InputError(
                "the ring needs exactly two base variables with distinct, "
                f"non-empty names, got {', '.join(map(repr, base_vars))}")
        self.characteristic = characteristic
        self.base_vars = base_vars
        self.field = RationalField() if characteristic == 0 else PrimeField(characteristic)
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
