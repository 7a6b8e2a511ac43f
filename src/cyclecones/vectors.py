"""Coordinate vectors of numerical classes, tagged with a named basis.

A basis name identifies both the vector space and the chosen coordinates
(for example ``"toric3.curves"`` for curve classes in the dual basis of
``D1, D2, D3, D7, D8``).  Vectors combine arithmetically only within one
basis and one dimension, which is the number of coordinates.  Linear
functionals live in a dual basis, whose name a cone or polytope carries;
it defaults to ``dual_basis(basis)``.  Coordinates are ``rationals.rat``:
an ``int`` when integral, a ``Fraction`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .linalg import int_primitive
from .rationals import rat, rat_str


def dual_basis(name: str) -> str:
    """The default dual basis name: ``name*`` for ``name``, and back."""
    return name[:-1] if name.endswith("*") else name + "*"


@dataclass(frozen=True)
class ClassVector:
    """An exact coordinate vector in a named basis."""

    basis: str
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(rat, self.coords)))

    @classmethod
    def from_ints(cls, basis: str, coords: tuple[int, ...]) -> "ClassVector":
        """``ClassVector(basis, coords)`` for a tuple of ``int``s, which
        ``rat`` would return unchanged: equal, hashing and printing alike."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "basis", basis)
        object.__setattr__(vector, "coords", coords)
        return vector

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check_same_space(self, other: "ClassVector") -> None:
        if (self.basis, self.dim) != (other.basis, other.dim):
            raise InputError(
                f"vectors in different spaces: {self.basis!r} (dim {self.dim}) "
                f"vs {other.basis!r} (dim {other.dim})"
            )

    def __add__(self, other: "ClassVector") -> "ClassVector":
        self._check_same_space(other)
        return ClassVector(
            self.basis, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        self._check_same_space(other)
        return ClassVector(
            self.basis, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "ClassVector":
        return ClassVector(self.basis, tuple(-a for a in self.coords))

    def scale(self, factor) -> "ClassVector":
        factor = rat(factor)
        return ClassVector(self.basis, tuple(factor * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def primitive(self) -> "ClassVector":
        """Clear denominators and divide by the content, keeping orientation."""
        return ClassVector(self.basis, int_primitive(self.coords))

    def __repr__(self):
        body = ",".join(rat_str(c) for c in self.coords)
        return f"ClassVector({self.basis!r}, ({body}))"
