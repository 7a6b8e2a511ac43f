"""Public constructors and calls reject malformed input with an
``InputError`` that names the fault."""

import pytest

from cyclecones.cones import PolyCone
from cyclecones.errors import InputError
from cyclecones.polytope import RationalPolytope
from cyclecones.projbundle import HNProfile, class_basis, pair_classes, zariski_decompose
from cyclecones.rings import RingPresentation
from cyclecones.vectors import ClassVector

PROFILE = HNProfile.parse("2:0,2:2")


def _multiply_across_presentations():
    ring, other = (
        RingPresentation("r", ("a",), 1, {}, None, 1) for _ in range(2)
    )
    ring.multiply(ring.generator("a"), other.one())


def _pair_in_one_dimension():
    # rank 4: dimension 1 pairs with dimension 3, not with itself
    a = ClassVector(class_basis(PROFILE, 1), (1, 0))
    pair_classes(PROFILE, 1, a, a)


CASES = [
    ("cone-without-representation", lambda: PolyCone("u", 2),
     "cone needs at least one representation"),
    ("cone-without-generators-or-dim", lambda: PolyCone.from_generators("u", []),
     "dim required for a cone with no generators"),
    ("polytope-vertex-in-another-basis",
     lambda: RationalPolytope("p", 1, ((1, 0),), vertices=(ClassVector("q", (0,)),)),
     "vertex outside the polytope's basis"),
    ("empty-profile", lambda: HNProfile(()),
     "profile needs at least one (rank, degree) piece"),
    ("pairing-in-one-dimension", _pair_in_one_dimension,
     "classes must live in complementary dimensions"),
    ("decompose-in-another-basis",
     lambda: zariski_decompose(PROFILE, 2, ClassVector("other", (1, 1))),
     f"class must be given in basis {class_basis(PROFILE, 2)!r}"),
    ("multiply-across-presentations", _multiply_across_presentations,
     "elements belong to different presentations"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_public_input_errors(call, message):
    with pytest.raises(InputError) as caught:
        call()
    assert caught.value.message == message
