"""Tiny expression language for ring elements on the command line.

Grammar: sums/differences of products of powers over named classes,
generators, rational literals, and parentheses, e.g. ``(D1+3*D2)^2`` or
``2/231*(D1+3*D2)^2 + 15/11*S2``.  Values are exact scalars or graded
classes (ring elements and dual classes); a sum of a scalar and a class,
or of two kinds of class, is an input error.
"""

from __future__ import annotations

import re
import sys

from .errors import DomainError, InputError
from .rationals import rat
from .rings import GradedClass, RingElement, RingPresentation

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[()+*^-])")


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise InputError(f"bad expression near {text[pos:pos + 10]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens, names, ring: RingPresentation):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        token = self.peek()
        self.pos += 1
        return token

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise InputError(f"unexpected token {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = _add(value, rhs) if op == "+" else _add(value, _scale(rhs, -1))
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*" or (
            self.peek() not in (None, "+", "-", ")", "^", "*")
        ):
            if self.peek() == "*":
                self.take()
            value = _mul(value, self.factor(), self.ring)
        return value

    def factor(self):
        value = self.atom()
        while self.peek() == "^":
            self.take()
            power_token = self.take()
            if power_token is None or not power_token.isdigit():
                raise InputError("exponent must be a nonnegative integer")
            value = _power(value, rat(power_token), self.ring)
        return value

    def atom(self):
        token = self.take()
        if token is None:
            raise InputError("unexpected end of expression")
        if token == "(":
            value = self.expr()
            if self.take() != ")":
                raise InputError("missing closing parenthesis")
            return value
        if token == "-":
            return _scale(self.atom(), -1)
        if re.fullmatch(r"\d+/\d+|\d+", token):
            return rat(token)
        if token in self.names:
            return self.names[token]
        if token in (")", "+", "*", "^"):  # an operator where an operand belongs
            raise InputError(f"unexpected token {token!r}")
        raise InputError(f"unknown name {token!r}")


def _scale(value, factor):
    factor = rat(factor)
    if isinstance(value, GradedClass):
        return value.scale(factor)
    return value * factor


def _add(a, b):
    if isinstance(a, GradedClass) != isinstance(b, GradedClass):
        raise InputError("cannot add a scalar to a class")
    return a + b


def _mul(a, b, ring):
    if not isinstance(a, GradedClass):
        return _scale(b, a)
    if not isinstance(b, GradedClass):
        return _scale(a, b)
    if isinstance(a, RingElement) and isinstance(b, RingElement):
        return ring.multiply(a, b)
    raise InputError("cannot multiply these operands")


def _power(base, power: int, ring):
    """``base`` to a nonnegative integer ``power``, in at most
    ``top_degree + 1`` products: a scalar or degree-0 power is one checked
    ``**``, and the product loop of a positive-degree element raises in
    ``ring.multiply`` once it passes the top degree."""
    if not isinstance(base, GradedClass):
        return _scalar_power(base, power)
    if isinstance(base, RingElement) and base.degree == 0:
        # c times the unit, so its power is c^power times the unit
        return ring.one().scale(_scalar_power(base.coords[0], power))
    value = ring.one()
    for _ in range(power):
        value = _mul(value, base, ring)
    return value


def _scalar_power(base, power: int):
    """``base ** power``, unless the result has more digits than the
    interpreter's limit (its default when the limit is off)."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    bits = max(base.numerator.bit_length(), base.denominator.bit_length())
    # an integer of b >= 1 bits raised to p has at least (b - 1) p + 1 bits,
    # so at least floor((b - 1) p log10 2) + 1 digits; 3010/10000 < log10 2
    if (bits - 1) * power * 3010 // 10000 + 1 > limit:
        raise DomainError(
            f"power {power} of a {bits}-bit rational has more than {limit} "
            "digits, the interpreter's limit (sys.get_int_max_str_digits())",
            limit=limit,
        )
    return base**power


def evaluate(text: str, ring: RingPresentation, names: dict) -> object:
    """Evaluate ``text`` to a RingElement, a DualClass, or else a scalar:
    an ``int`` or a ``Fraction``."""
    full_names = dict(names)
    for generator in ring.generators:
        full_names.setdefault(generator, ring.generator(generator))
    return _Parser(tokenize(text), full_names, ring).parse()
