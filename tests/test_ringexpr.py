import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cyclecones import ringexpr
from cyclecones.errors import DomainError, InputError
from cyclecones.fixtures import load
from cyclecones.ringexpr import evaluate
from cyclecones.rings import DualClass, RingElement


@pytest.fixture(scope="module")
def hilb():
    fixture = load("p2-hilb2")
    names = dict(fixture.ring_elements)
    return fixture.ring, names


def test_scalar_arithmetic(hilb):
    ring, names = hilb
    assert evaluate("2/3 + 1/6", ring, names) == Fraction(5, 6)
    assert evaluate("2^3", ring, names) == 8


def test_generator_products(hilb):
    ring, names = hilb
    value = evaluate("(D1+D2)^2", ring, names)
    assert value.coords == (1, 2, 1)


def test_named_classes_and_scaling(hilb):
    ring, names = hilb
    m = evaluate("S3 + 2*S1", ring, names)
    assert m.terms == names["M"].terms
    half = evaluate("1/2*M", ring, names)
    assert half.scale(2).terms == names["M"].terms


def test_implicit_multiplication(hilb):
    ring, names = hilb
    assert evaluate("2(D1)", ring, names).terms == names["D1"].scale(2).terms


def test_dual_classes_in_moduli_fixture():
    fixture = load("m07-s7")
    names = dict(fixture.ring_elements)
    names.update(fixture.dual_classes)
    gamma = evaluate("12*S1 + 7*S2 + 2*S3", fixture.ring, names)
    assert gamma.coords == (108, 0, 0)


def test_errors_are_informative(hilb):
    ring, names = hilb
    with pytest.raises(InputError):
        evaluate("NOPE", ring, names)
    with pytest.raises(InputError):
        evaluate("D1 + 2", ring, names)
    with pytest.raises(InputError):
        evaluate("(D1", ring, names)
    with pytest.raises(InputError):
        evaluate("D1 ^ D2", ring, names)


def looped_power(base, power, ring):
    """The power as repeated products, one per unit of the exponent."""
    value = ring.one() if isinstance(base, (RingElement, DualClass)) else 1
    for _ in range(power):
        value = ringexpr._mul(value, base, ring)
    return value


@pytest.mark.parametrize(
    "text", ["0", "1", "-1", "2/3", "-7/2", "2*(S3^0)", "-1/2*(D1^0)", "0*(D1^0)", "D1", "S3", "E"]
)
def test_power_matches_repeated_products(hilb, text):
    ring, names = hilb
    base = evaluate(f"({text})", ring, names)
    for power in range(7):
        try:
            expected = looped_power(base, power, ring)
        except DomainError as exc:
            with pytest.raises(DomainError) as caught:
                ringexpr._power(base, power, ring)
            assert caught.value.message == exc.message
            continue
        got = ringexpr._power(base, power, ring)
        # a scalar may be an int or a Fraction; a class keeps its kind
        assert type(got) is type(expected) or not isinstance(got, (RingElement, DualClass))
        assert got == expected


def test_large_exponents_are_bounded_before_the_products(hilb, monkeypatch):
    ring, names = hilb
    calls = []
    original = ringexpr._mul

    def counted(a, b, ring):
        calls.append(1)
        return original(a, b, ring)

    monkeypatch.setattr(ringexpr, "_mul", counted)
    assert evaluate("1^3000000", ring, names) == 1
    assert evaluate("(S3^0)^3000000", ring, names).terms == ring.one().terms
    with pytest.raises(DomainError) as caught:
        evaluate("S3^3000000", ring, names)
    # S3 has degree 2: the loop used to fail at its third product, degree 6
    assert caught.value.message == "p2-hilb2: product degree 6 exceeds top degree 4"
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    for text in ("2^100000", "(2*(S3^0))^100000", "(1/3)^100000"):
        with pytest.raises(DomainError) as caught:
            evaluate(text, ring, names)
        assert f"more than {limit} digits" in caught.value.message
    # three products of S3 up to degree 6, and the one in 2*(S3^0)
    assert len(calls) == 4


def test_dual_class_powers_keep_their_errors():
    fixture = load("m07-s7")
    names = dict(fixture.dual_classes)
    assert evaluate("S1^0", fixture.ring, names).terms == fixture.ring.one().terms
    with pytest.raises(InputError, match="cannot multiply these operands"):
        evaluate("S1^3000000", fixture.ring, names)


def test_over_long_exponent_is_input_error_naming_the_limit(hilb):
    ring, names = hilb
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InputError) as caught:
        evaluate("2^" + "9" * (limit + 1), ring, names)
    assert f"limit of {limit}" in caught.value.message


def _atoms(fixture):
    """Every named class and generator, every product of two generators, and
    three scalars, as expression text."""
    generators = fixture.ring.generators
    products = [f"{a}*{b}" for a, b in combinations_with_replacement(generators, 2)]
    return [*fixture.ring_elements, *fixture.dual_classes, *generators, *products,
            "0", "2", "1/3"]


@pytest.mark.parametrize("name", ["p2-hilb2", "m07-s7"])
def test_operations_on_atoms_give_a_value_or_a_classified_error(name):
    # a sum of a dual class and a ring element used to raise TypeError, and
    # pairing a dual class or a scalar AttributeError
    fixture = load(name)
    ring, names = fixture.ring, {**fixture.ring_elements, **fixture.dual_classes}
    atoms = _atoms(fixture)
    escaped, runs = [], 0

    def attempt(call, *args):
        nonlocal runs
        runs += 1
        try:
            return call(*args)
        except (InputError, DomainError):
            return None
        except Exception as exc:  # what the sweep looks for
            escaped.append((args[0] if call is evaluate else args, repr(exc)))

    for a in atoms:
        for b in atoms:
            for text in (f"{a} + {b}", f"{a} - {b}", f"{a} * {b}", f"{a} ({b})"):
                attempt(evaluate, text, ring, names)
        for k in range(4):
            attempt(evaluate, f"({a})^{k}", ring, names)
    values = [evaluate(a, ring, names) for a in atoms]
    for a in values:
        for b in values:
            attempt(ring.pair, a, b)
    assert runs == 5 * len(atoms) ** 2 + 4 * len(atoms)
    assert escaped == []
