"""Coefficient fields, ring contexts, and monomial orders.

A context fixes the coefficient field (exact rationals or a prime field),
the base variables (the coordinate ring A), the fiber variables (the
polynomial extension S = A[t1..tr]), and a total monomial order.  The
default order compares total fiber degree first, so graded pieces of
fiber-graded ideals can be read off degree by degree, then falls back to
degree-reverse-lexicographic comparison inside each block.
"""

from fractions import Fraction
from math import isqrt
from operator import add, le, sub

from .errors import InputError

Exponents = tuple  # one non-negative int per context variable


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


def _negrev(exps):
    return tuple(-e for e in reversed(exps))


class RingContext:
    """Immutable description of the ambient polynomial ring.

    Variables are stored as base block followed by fiber block; fiber
    degree is compared before base degree.  The context describes the
    ring only: an order in which a block of components dominates, as
    elimination needs, is a groebner.ModuleOrder over it.
    """

    __slots__ = ("characteristic", "base_vars", "fiber_vars", "field",
                 "vars", "nvars", "_nbase", "_nfiber", "var_index", "_hash",
                 "_key_cache")

    def __init__(self, characteristic=0, base_vars=("X", "Y"), fiber_vars=()):
        base_vars = tuple(base_vars)
        fiber_vars = tuple(fiber_vars)
        allvars = base_vars + fiber_vars
        if len(set(allvars)) != len(allvars) or any(not v for v in allvars):
            raise InputError("variable names must be distinct and non-empty")
        self.characteristic = characteristic
        self.base_vars = base_vars
        self.fiber_vars = fiber_vars
        self.field = RationalField() if characteristic == 0 else PrimeField(characteristic)
        self.vars = allvars
        self.nvars = len(allvars)
        self._nbase = len(base_vars)
        self._nfiber = len(fiber_vars)
        self.var_index = {v: i for i, v in enumerate(allvars)}
        self._hash = hash((characteristic, base_vars, fiber_vars))
        self._key_cache = {}

    # -- degrees ---------------------------------------------------------

    def base_degree(self, exps):
        nb = self._nbase
        return sum(exps[:nb])

    def fiber_degree(self, exps):
        nb = self._nbase
        return sum(exps[nb:nb + self._nfiber])

    # -- order -----------------------------------------------------------

    def mon_key(self, exps):
        """Sort key, a flat tuple of integers; larger key means larger
        monomial."""
        got = self._key_cache.get(exps)
        if got is not None:
            return got
        nb = self._nbase
        fiber = exps[nb:nb + self._nfiber]
        base = exps[:nb]
        key = (sum(fiber), *_negrev(fiber), sum(base), *_negrev(base))
        self._key_cache[exps] = key
        return key

    # -- derived contexts ------------------------------------------------

    def with_fiber(self, fiber_vars):
        return RingContext(self.characteristic, self.base_vars, tuple(fiber_vars))

    # -- equality --------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, RingContext)
                and self.characteristic == other.characteristic
                and self.base_vars == other.base_vars
                and self.fiber_vars == other.fiber_vars)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        bits = [f"char={self.characteristic}", f"base={'%s' % (self.base_vars,)}"]
        if self.fiber_vars:
            bits.append(f"fiber={'%s' % (self.fiber_vars,)}")
        return f"RingContext({', '.join(bits)})"


# -- exponent-tuple helpers ----------------------------------------------

def mon_one(nvars):
    return (0,) * nvars


def mon_mul(a, b):
    return tuple(map(add, a, b))


def mon_divides(a, b):
    """True iff monomial a divides monomial b."""
    return all(map(le, a, b))


def mon_div(a, b):
    """Quotient a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mon_lcm(a, b):
    return tuple(map(max, a, b))


def mon_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))
