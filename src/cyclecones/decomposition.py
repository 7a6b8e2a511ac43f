"""Shared decomposition record: input = positive + negative, with receipts.

In every engine, certificate data are exact numbers (``int``, ``Fraction``)
and labels, read back by a verifier as they are; metadata is JSON as built.
``Decomposition.to_json`` writes both: each exact number of a certificate by
``rat_str``, the metadata as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .errors import CycleConesError
from .rationals import rat_str
from .vectors import ClassVector


@dataclass(frozen=True)
class Certificate:
    """A named verified fact plus the exact witness data backing it."""

    fact: str
    data: Mapping[str, Any]


@dataclass(frozen=True)
class Decomposition:
    """An exact splitting input = positive + negative.

    The split itself is re-checkable from the vectors alone; everything
    else a producer wants to promise (memberships, optimality, uniqueness)
    rides along as certificates and metadata.
    """

    input: ClassVector
    positive: ClassVector
    negative: ClassVector
    certificates: tuple[Certificate, ...] = ()
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if (self.positive + self.negative).coords != self.input.coords:
            raise CycleConesError(
                "inconsistent decomposition: positive + negative != input",
                input=[rat_str(c) for c in self.input.coords],
                positive=[rat_str(c) for c in self.positive.coords],
                negative=[rat_str(c) for c in self.negative.coords],
            )

    def certificate(self, fact: str) -> Certificate | None:
        return next((c for c in self.certificates if c.fact == fact), None)

    def to_json(self) -> dict:
        return {
            "basis": self.input.basis,
            "input": [rat_str(c) for c in self.input.coords],
            "positive": [rat_str(c) for c in self.positive.coords],
            "negative": [rat_str(c) for c in self.negative.coords],
            "certificates": [
                {"fact": c.fact, **_jsonable(c.data)} for c in self.certificates
            ],
            "metadata": dict(self.metadata),
        }


def _jsonable(value):
    """Certificate data as JSON: an exact number (never a bool) by ``rat_str``."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return rat_str(value)
    return value
