from fractions import Fraction

import pytest

from cyclecones.errors import InputError
from cyclecones.vectors import (
    ClassVector,
    dual_basis,
    register_basis,
    unit_vector,
    zero_vector,
)

F = Fraction


def test_dimension_enforced_after_registration():
    register_basis("vb3", 3)
    ClassVector("vb3", (1, 2, 3))
    with pytest.raises(InputError):
        ClassVector("vb3", (1, 2))
    with pytest.raises(InputError):
        register_basis("vb3", 4)


def test_arithmetic_requires_matching_basis():
    a = ClassVector("vb2a", (1, 2))
    b = ClassVector("vb2b", (1, 2))
    with pytest.raises(InputError):
        a + b
    assert (a + a).coords == (2, 4)
    assert (a - a).is_zero()
    assert a.scale(F(1, 2)).coords == (F(1, 2), 1)


def test_dual_naming_is_an_involution():
    assert dual_basis("vbx") == "vbx*"
    assert dual_basis("vbx*") == "vbx"
    register_basis("vby", 2, dual="vby.dual")
    assert dual_basis("vby") == "vby.dual"
    assert dual_basis("vby.dual") == "vby"


def test_primitive_scaling():
    v = ClassVector("vbq", (F(2, 3), F(-4, 3), F(0)))
    assert v.primitive().coords == (1, -2, 0)
    zero = zero_vector("vbq")
    assert zero.primitive().coords == (0, 0, 0)


def test_unit_vectors():
    e1 = unit_vector("vbu", 1, dim=3)
    assert e1.coords == (0, 1, 0)
