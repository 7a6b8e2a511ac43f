from fractions import Fraction

import pytest

from cyclecones.cones import PolyCone, dual_cone
from cyclecones.errors import InputError
from cyclecones.negdef import PairingBasis
from cyclecones.vectors import ClassVector, dual_basis

F = Fraction


def test_dimension_is_the_coordinate_count():
    assert ClassVector("vb3", (1, 2, 3)).dim == 3
    # a basis name fixes no dimension: each vector carries its own
    assert ClassVector("vb3", (1, 2)).dim == 2
    with pytest.raises(InputError):
        ClassVector("vb3", (1, 2, 3)) + ClassVector("vb3", (1, 2))
    with pytest.raises(InputError):
        ClassVector("vb3", (1, 2)) - ClassVector("vb3", (1, 2, 3))


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
    cone = PolyCone.from_generators("vby", [(1, 0), (1, 1)], dual="vby.dual")
    dual = dual_cone(cone)
    assert (dual.basis, dual.dual) == ("vby.dual", "vby")
    assert {g.basis for g in dual.generators} == {"vby.dual"}
    assert {l.basis for l in dual.inequalities} == {"vby"}
    back = dual_cone(dual)
    assert (back.basis, back.dual) == ("vby", "vby.dual")


def test_primitive_scaling():
    v = ClassVector("vbq", (F(2, 3), F(-4, 3), F(0)))
    assert v.primitive().coords == (1, -2, 0)
    zero = ClassVector("vbq", (0, 0, 0))
    assert zero.primitive().coords == (0, 0, 0)


def test_integral_coordinates_are_int():
    v = ClassVector("vb4", (3, "6/2", F(4, 2), "1/2"))
    assert [type(c) for c in v.coords] == [int, int, int, F]
    assert v.coords == (3, 3, 2, F(1, 2))
    for bad in (True, 1.0, "x"):
        with pytest.raises(InputError):
            ClassVector("vb4", (bad,))
    a, b = ClassVector("vb2", (1, 2)), ClassVector("vb2", (F(1), F(2)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "ClassVector('vb2', (1,2))"
    gram = PairingBasis(("x", "y"), (("-2", F(1, 2)), (F(1, 2), F(-4, 2)))).gram
    assert [[type(x) for x in row] for row in gram] == [[int, F], [F, int]]
    assert gram == ((-2, F(1, 2)), (F(1, 2), -2))
