"""Exact rational parsing and formatting.

All arithmetic in the package runs on ``fractions.Fraction``; floats are
rejected at every boundary so no rounding can sneak in through I/O.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import DomainError, InputError


def rat(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fraction, int, and strings of the form ``"3"``, ``"-2/7"``.
    Floats are rejected: callers must supply exact data.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # the common case; bool and int subclasses go on
        return Fraction(value)
    if isinstance(value, bool):
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"floating-point input rejected: {value!r}; pass an exact "
            'rational such as "3/4"'
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(_unparsable(text, value)) from exc
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
