"""Exact rational parsing and formatting.

``rat`` is the one rule for exact numbers: an integral value comes back
as an ``int``, any other as a reduced ``fractions.Fraction``.  Floats are
rejected at every boundary so no rounding can sneak in through I/O.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import DomainError, InputError


def rat(value) -> int | Fraction:
    """``value`` as an exact number: an ``int`` when integral, else a Fraction.

    Accepts int, Fraction, and strings of the form ``"3"``, ``"-2/7"``.
    Floats and bools are rejected: callers must supply exact data.
    """
    if type(value) is int:  # the common case; bool and int subclasses go on
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool):
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        raise InputError(
            f"floating-point input rejected: {value!r}; pass an exact "
            'rational such as "3/4"'
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" not in text:
                return int(text)
            num, den = text.split("/")
            value = Fraction(int(num.strip()), int(den.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(_unparsable(text, value)) from exc
        return value.numerator if value.denominator == 1 else value
    raise InputError(f"not a rational number: {_shown(value)}")


def _unparsable(text: str, value) -> str:
    """Why ``text`` is no rational; names the digit limit when that is why."""
    limit = sys.get_int_max_str_digits()
    for part in text.split("/"):
        digits = part.strip().lstrip("+-")
        if limit and digits.isdigit() and len(digits) > limit:
            return (
                f"integer of {len(digits)} digits exceeds the interpreter's "
                f"limit of {limit} (sys.get_int_max_str_digits()): {_shown(value)}"
            )
    return f"not a rational number: {_shown(value)}"


def _shown(value) -> str:
    """``repr(value)``, cut to a short prefix so messages stay readable."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def rat_str(value: Fraction) -> str:
    """Canonical string form: ``"3"`` for integers, ``"p/q"`` otherwise.

    An integer longer than ``sys.get_int_max_str_digits()`` cannot be
    printed; that is a ``DomainError`` naming the limit.
    """
    if type(value) is not int:  # an exact int is its own numerator over 1
        value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise DomainError(
            f"a result has an integer of more than {limit} digits, the "
            "interpreter's limit (sys.get_int_max_str_digits())",
            limit=limit,
        ) from exc
