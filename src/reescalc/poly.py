"""Exact multivariate polynomials plus the text front end.

Polynomials are dictionaries from exponent tuples to nonzero
coefficients.  The context's characteristic p is the only description
of the field: over QQ (p = 0) a coefficient is a Fraction, over GF(p) an
int in [0, p), and the arithmetic below reduces mod p inline, as the
Groebner kernel does.  The canonical term list (descending in the
context order) is produced on demand, so arithmetic stays dict-based and
cheap.
"""

import re
from fractions import Fraction
from math import comb

from .context import mon_mul, mon_one
from .errors import ContextMismatchError, InputError, ParseError


def _coefficient(value, p):
    """The int or Fraction value as a coefficient over the field of
    characteristic p."""
    if not p:
        return Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator % p == 0:
            raise ZeroDivisionError("denominator vanishes in F_p")
        return value.numerator * pow(value.denominator, p - 2, p) % p
    return int(value) % p


def _clean(terms, p):
    """terms, reduced mod p over GF(p), without zero coefficients."""
    if p:
        return {e: c % p for e, c in terms.items() if c % p}
    return {e: c for e, c in terms.items() if c}


class Polynomial:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        """Take ownership of a clean term dict (no zero coefficients)."""
        self.ctx = ctx
        self.terms = terms

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx):
        return cls.constant(ctx, 1)

    @classmethod
    def constant(cls, ctx, value):
        return cls.monomial(ctx, mon_one(ctx.nvars), value)

    @classmethod
    def variable(cls, ctx, name):
        exps = [0] * ctx.nvars
        exps[ctx.var_index[name]] = 1
        return cls.monomial(ctx, exps)

    @classmethod
    def monomial(cls, ctx, exps, coeff=1):
        c = _coefficient(coeff, ctx.characteristic)
        return cls(ctx, {tuple(exps): c} if c else {})

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    # -- structure -------------------------------------------------------

    def sorted_terms(self):
        """Terms in strictly decreasing monomial order."""
        key = self.ctx.mon_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError(
                f"operands in different contexts: {self.ctx} vs {other.ctx}")

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + sign * coeff
        return Polynomial(self.ctx, _clean(terms, self.ctx.characteristic))

    def __neg__(self):
        p = self.ctx.characteristic
        return Polynomial(self.ctx, {e: -c % p if p else -c
                                     for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mon_mul(e1, e2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial(self.ctx, _clean(terms, self.ctx.characteristic))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.ctx)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ctx == other.ctx
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- printing --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.ctx.base_vars, exps) if e)
            neg = not self.ctx.characteristic and coeff < 0
            mag = -coeff if neg else coeff
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


# -- parser --------------------------------------------------------------

# Largest exponent after `^`, and largest degree of a power, that
# parse_poly accepts.  A power is expanded as it is parsed, and (X+Y)^n
# costs time that grows faster than n, so a larger exponent, or a power
# such as ((X+Y)^100)^4 whose degree would exceed the cap, is refused
# before it is expanded.
MAX_EXPONENT = 200
# Largest coefficient size of a power, in bits, that parse_poly accepts:
# the bit length of the base's largest coefficient times the exponent.
# Constants have degree 0, so only this bounds ((7^200)^200)^40, whose
# digits each nesting multiplies.
MAX_POWER_BITS = 16384
# Largest number of terms a power may expand to, by the smaller of two
# upper bounds (see _power_terms_bound).  The degree cap alone lets
# (X+Y+1)^200 through, and its 20301 terms take minutes to expand.
MAX_POWER_TERMS = 2000
# Largest sum of those bounds over the powers of one expression, or of
# one problem file (a PowerBudget shared by its entries): each
# (X+Y+1)^61 is under the cap above and takes 1.35 s, and a row of six
# of them took 12.6 s.  Powers of one term cost nothing and count 0.
MAX_TOTAL_POWER_TERMS = 4000
# Deepest nesting of parentheses parse_poly accepts.  Each level takes
# four frames of the recursive-descent parser, which overflowed Python's
# stack at about 250 levels.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()^*+-]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class PowerBudget:
    """The term bounds spent so far by the powers that share this budget,
    against MAX_TOTAL_POWER_TERMS."""

    __slots__ = ("spent",)

    def __init__(self):
        self.spent = 0


class _Parser:
    def __init__(self, text, ctx, budget):
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.budget = budget
        self.depth = 0
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        result = self.term()
        if sign < 0:
            result = -result
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            result = result - rhs if op == "-" else result + rhs
        return result

    def term(self):
        result = self.factor()
        while self.peek()[0] == "*":
            self.take()
            result = result * self.factor()
        return result

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                raise ParseError(f"exponent must be an integer, found {tok[1]!r}",
                                 tok[2])
            if tok[1] > MAX_EXPONENT:
                raise InputError(f"exponent {tok[1]} exceeds {MAX_EXPONENT} "
                                 f"(at position {tok[2]})")
            degree = base.total_degree() * tok[1]
            if degree > MAX_EXPONENT:
                raise InputError(f"power of degree {degree} exceeds "
                                 f"{MAX_EXPONENT} (at position {tok[2]})")
            bits = _coefficient_bits(base) * tok[1]
            if bits > MAX_POWER_BITS:
                raise InputError(f"power of {bits} coefficient bits exceeds "
                                 f"{MAX_POWER_BITS} (at position {tok[2]})")
            terms = _power_terms_bound(base, tok[1])
            if terms > MAX_POWER_TERMS:
                raise InputError(f"power of up to {terms} terms exceeds "
                                 f"{MAX_POWER_TERMS} (at position {tok[2]})")
            if len(base.terms) > 1:
                self.budget.spent += terms
                if self.budget.spent > MAX_TOTAL_POWER_TERMS:
                    raise InputError(
                        f"powers of up to {self.budget.spent} terms in all "
                        f"exceed {MAX_TOTAL_POWER_TERMS} "
                        f"(at position {tok[2]})")
            base = base ** tok[1]
        return base

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return Polynomial.constant(self.ctx, tok[1])
        if tok[0] == "name":
            if tok[1] not in self.ctx.var_index:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
            return Polynomial.variable(self.ctx, tok[1])
        if tok[0] == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise InputError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING} (at position {tok[2]})")
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def _coefficient_bits(p):
    """Bit length of the largest numerator or denominator of p."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)


def _power_terms_bound(p, n):
    """An upper bound on the number of terms of p^n, the smaller of two:
    the number of multisets of n of p's t terms, C(n+t-1, t-1), and the
    number of monomials in p's v variables whose degree lies between n
    times p's lowest degree and n times its highest."""
    t = len(p.terms)
    if t <= 1 or n == 0:
        return 1
    degrees = [sum(e) for e in p.terms]
    v = sum(1 for i in range(p.ctx.nvars) if any(e[i] for e in p.terms))
    low, high = n * min(degrees), n * max(degrees)
    # monomials in v variables of degree at most d: C(d+v, v)
    in_degrees = comb(high + v, v) - (comb(low - 1 + v, v) if low else 0)
    return min(comb(n + t - 1, t - 1), in_degrees)


def parse_poly(text, ctx, budget=None):
    """Parse a polynomial expression over the given context.

    Grammar: integers, variable names, `^` integer powers, `*`, `+`, `-`,
    parentheses.  Juxtaposition is not multiplication.  An exponent above
    MAX_EXPONENT, a power whose degree (the base's total degree times
    the exponent) would exceed it, or a power whose coefficient bits (the
    bit length of the base's largest coefficient times the exponent)
    would exceed MAX_POWER_BITS, or a power that may expand to more than
    MAX_POWER_TERMS terms raises InputError.  So does a power whose
    bound takes the sum over the budget's powers past
    MAX_TOTAL_POWER_TERMS, and parentheses nested deeper than
    MAX_NESTING.  Without a budget the powers of this expression share
    one.
    """
    return _Parser(text, ctx, budget or PowerBudget()).parse()
