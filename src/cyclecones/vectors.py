"""Coordinate vectors of numerical classes, tagged with a named basis.

A basis name identifies both the vector space and the chosen coordinates
(for example ``"toric3.curves"`` for curve classes in the dual basis of
``D1, D2, D3, D7, D8``).  Vectors combine arithmetically only within one
basis; linear functionals live in the registered dual basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .linalg import int_primitive
from .rationals import rat

_DIMENSIONS: dict[str, int] = {}
_DUALS: dict[str, str] = {}


def register_basis(name: str, dim: int, dual: str | None = None) -> None:
    """Register a basis name with its dimension and optionally its dual.

    Re-registration with identical data is a no-op; conflicting data is an
    error.  Registering a dual links both directions.
    """
    if dim < 0:
        raise InputError(f"basis {name!r} cannot have negative dimension")
    if name in _DIMENSIONS and _DIMENSIONS[name] != dim:
        raise InputError(
            f"basis {name!r} already registered with dimension "
            f"{_DIMENSIONS[name]}, not {dim}"
        )
    _DIMENSIONS[name] = dim
    if dual is not None:
        register_basis(dual, dim)
        for a, b in ((name, dual), (dual, name)):
            if a in _DUALS and _DUALS[a] != b:
                raise InputError(f"basis {a!r} already has dual {_DUALS[a]!r}")
            _DUALS[a] = b


def basis_dim(name: str) -> int:
    if name not in _DIMENSIONS:
        raise InputError(f"unknown basis {name!r}")
    return _DIMENSIONS[name]


def dual_basis(name: str) -> str:
    """The dual basis name; defaults to the ``*``-suffix convention."""
    if name in _DUALS:
        return _DUALS[name]
    dual = name[:-1] if name.endswith("*") else name + "*"
    if name in _DIMENSIONS:
        register_basis(dual, _DIMENSIONS[name], dual=name)
    else:
        _DUALS[name] = dual
        _DUALS[dual] = name
    return dual


@dataclass(frozen=True)
class ClassVector:
    """An exact coordinate vector in a named basis."""

    basis: str
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(rat(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if self.basis in _DIMENSIONS:
            if _DIMENSIONS[self.basis] != len(coords):
                raise InputError(
                    f"basis {self.basis!r} has dimension "
                    f"{_DIMENSIONS[self.basis]}, got {len(coords)} coordinates"
                )
        else:
            register_basis(self.basis, len(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check_same_basis(self, other: "ClassVector") -> None:
        if self.basis != other.basis:
            raise InputError(
                f"basis mismatch: {self.basis!r} vs {other.basis!r}"
            )

    def __add__(self, other: "ClassVector") -> "ClassVector":
        self._check_same_basis(other)
        return ClassVector(
            self.basis, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        self._check_same_basis(other)
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
        from .rationals import rat_str

        body = ",".join(rat_str(c) for c in self.coords)
        return f"ClassVector({self.basis!r}, ({body}))"


def zero_vector(basis: str, dim: int | None = None) -> ClassVector:
    if dim is None:
        dim = basis_dim(basis)
    return ClassVector(basis, (Fraction(0),) * dim)


def unit_vector(basis: str, index: int, dim: int | None = None) -> ClassVector:
    if dim is None:
        dim = basis_dim(basis)
    return ClassVector(basis, tuple(Fraction(int(i == index)) for i in range(dim)))

