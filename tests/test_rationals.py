import random
import sys
from enum import IntEnum
from fractions import Fraction

import pytest

from cyclecones import rationals
from cyclecones.errors import DomainError, InputError
from cyclecones.rationals import rat, rat_str

from conftest import fraction_rat


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
        assert type(got) is int and got == value
    # an int subclass skips the plain-int fast path and comes back a plain int
    got = rat(Rank.BIG)
    assert type(got) is int and got == 10**30 + 1
    for flag in (True, False):
        with pytest.raises(InputError):
            rat(flag)


def test_rat_is_int_exactly_when_integral():
    for value, want in ((3, 3), ("6/2", 3), (Fraction(4, 2), 2), (" -8 / 4 ", -2)):
        got = rat(value)
        assert type(got) is int and got == want
    for value in ("1/2", Fraction(-1, 3), " 4 / 6 "):
        got = rat(value)
        assert type(got) is Fraction and got == fraction_rat(value)
    for bad in (True, 1.0, "x"):
        with pytest.raises(InputError):
            rat(bad)


def _inputs(rng: random.Random):
    """Seeded exact inputs of every accepted shape."""

    class Count(int):
        pass

    def integer():
        return rng.choice([rng.randint(-9, 9), rng.randint(-(10**6), 10**6), rng.randint(-(10**40), 10**40)])

    def spaced(text):
        return " " * rng.randint(0, 2) + text + " " * rng.randint(0, 2)

    shapes = [
        lambda: integer(),
        lambda: Count(integer()),
        lambda: Fraction(integer(), rng.randint(1, 12)),
        lambda: Fraction(integer() * 5, 5),
        lambda: spaced(str(integer())),
        lambda: spaced(rng.choice("+-") + str(abs(integer()))),
        lambda: spaced(f"{integer()} / {rng.randint(1, 12)}"),
        lambda: spaced(f"{rng.choice(['', '+', '-'])}{abs(integer()) * 3}/{rng.choice([1, 3, -3])}"),
    ]
    return [rng.choice(shapes)() for _ in range(600)]


def test_rat_matches_fraction_oracle():
    for seed in (1, 7919):
        for value in _inputs(random.Random(seed)):
            got, want = rat(value), fraction_rat(value)
            assert got == want, value
            assert (type(got) is int) == (want.denominator == 1), value
            assert type(got) in (int, Fraction), value


def test_rejections_keep_their_messages():
    limit = sys.get_int_max_str_digits()
    bad = [0.5, 1.0, float("inf"), True, False, "1/0", " 3 / 0 ", "0.5", "x", "",
           "1/2/3", "/", "2/", None, [1], {"a": 1}, complex(1, 0), "9" * (limit + 1)]
    for value in bad:
        with pytest.raises(InputError) as want:
            fraction_rat(value)
        with pytest.raises(InputError) as got:
            rat(value)
        assert got.value.message == want.value.message, value


def test_canonical_strings():
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-3, 9)) == "-1/3"
    assert rat_str(Fraction(0)) == "0"
    assert rat_str(-12) == "-12"


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


def test_an_int_prints_without_a_fraction(monkeypatch):
    # an exact int is printed as it is, and one past the digit limit is still
    # the DomainError; a bool goes through Fraction as before
    limit = sys.get_int_max_str_digits()
    assert [rat_str(True), rat_str(False)] == ["1", "0"]

    def no_fraction(*args):
        raise AssertionError("rat_str built a Fraction for an int")

    monkeypatch.setattr(rationals, "Fraction", no_fraction)
    assert [rat_str(-12), rat_str(0), rat_str(10 ** (limit - 1))] == [
        "-12", "0", "1" + "0" * (limit - 1)]
    with pytest.raises(DomainError) as caught:
        rat_str(-(10**limit))
    assert caught.value.details == {"limit": limit}
    with pytest.raises(AssertionError):
        rat_str(True)
