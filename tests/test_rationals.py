import sys
from enum import IntEnum
from fractions import Fraction

import pytest

from cyclecones.errors import DomainError, InputError
from cyclecones.rationals import exact, rat, rat_str


def test_parses_integers_and_fractions():
    assert rat("3") == 3
    assert rat("-2/7") == Fraction(-2, 7)
    assert rat(" 4 / 6 ") == Fraction(2, 3)
    assert rat(5) == 5
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rejects_floats_and_garbage():
    with pytest.raises(InputError):
        rat(0.5)
    with pytest.raises(InputError):
        rat("0.5")
    with pytest.raises(InputError):
        rat("1/0")
    with pytest.raises(InputError):
        rat(True)


def test_integers_convert_exactly_and_bools_stay_rejected():
    class Rank(IntEnum):
        BIG = 10**30 + 1

    for value in (3, -7, 0, 10**40):
        got = rat(value)
        assert type(got) is Fraction and got == value
    # an int subclass skips the plain-int fast path and still converts exactly
    got = rat(Rank.BIG)
    assert type(got) is Fraction and got == 10**30 + 1
    for flag in (True, False):
        with pytest.raises(InputError):
            rat(flag)


def test_exact_is_int_when_integral_and_rat_stays_fraction():
    for value, want in ((3, 3), ("6/2", 3), (Fraction(4, 2), 2), (" -8 / 4 ", -2)):
        got = exact(value)
        assert type(got) is int and got == want
    got = exact("1/2")
    assert type(got) is Fraction and got == Fraction(1, 2)
    for bad in (True, 1.0, "x"):
        with pytest.raises(InputError):
            exact(bad)
    for value in (3, "6/2", Fraction(4, 2)):
        assert type(rat(value)) is Fraction


def test_canonical_strings():
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-3, 9)) == "-1/3"
    assert rat_str(Fraction(0)) == "0"


def test_over_long_integer_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for text in ("9" * (limit + 1), "1/-" + "9" * (limit + 1)):
        with pytest.raises(InputError) as caught:
            rat(text)
        message = caught.value.message
        assert f"limit of {limit}" in message
        assert "sys.get_int_max_str_digits()" in message
        assert len(message) < 200
    with pytest.raises(InputError) as caught:
        rat("x" * (limit + 1))
    assert caught.value.message.startswith("not a rational number: 'xxx")
    assert len(caught.value.message) < 100


def test_over_long_result_is_domain_error_naming_the_limit():
    limit = sys.get_int_max_str_digits()
    for value in (Fraction(10**limit), Fraction(1, 10**limit), Fraction(-(10**limit), 3)):
        with pytest.raises(DomainError) as caught:
            rat_str(value)
        assert f"more than {limit} digits" in caught.value.message
        assert "sys.get_int_max_str_digits()" in caught.value.message
        assert caught.value.details == {"limit": limit}
    assert rat_str(Fraction(10 ** (limit - 1))) == "1" + "0" * (limit - 1)
