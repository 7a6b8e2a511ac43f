"""Finite graded intersection rings presented by rewrite relations.

A presentation carries generator symbols, monomial rewrite rules, top-degree
values, and optionally "dual layers": named bases of the homology side whose
pairing against the monomial basis is the identity by definition.  Products
are evaluated by exact monomial rewriting to a declared normal form; the
consistency audit recomputes everything along independent paths and reports
(never hides) disagreements in the presented data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import DomainError, InputError
from .linalg import dot
from .rationals import rat, rat_str

Monomial = tuple[int, ...]

_MAX_REWRITE_STEPS = 10_000


def format_monomial(mono: Monomial, generators) -> str:
    parts = []
    for exp, name in zip(mono, generators):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def parse_monomial(text: str, generators) -> Monomial:
    exps = [0] * len(generators)
    text = text.strip()
    if text in ("1", ""):
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        name, caret, power = factor.partition("^")
        if caret:
            power = rat(power)
            if power.denominator != 1 or power < 0:
                raise InputError(f"bad power in monomial {text!r}")
        else:
            power = 1
        name = name.strip()
        if name not in generators:
            raise InputError(f"unknown generator {name!r} in monomial {text!r}")
        exps[generators.index(name)] += int(power)
    return tuple(exps)


def _divides(lhs: Monomial, mono: Monomial) -> bool:
    return all(a <= b for a, b in zip(lhs, mono))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class DualLayer:
    """A named basis of the homology side in one degree.

    Pairing a monomial-basis element of the given degree against the named
    basis is the identity matrix by definition.  ``cap_images`` optionally
    records a printed expansion of each basis monomial into the named basis;
    those expansions are audit material, not trusted structure.
    """

    degree: int
    names: tuple[str, ...]
    cap_images: dict[Monomial, tuple[Fraction, ...]] | None = None


@dataclass(frozen=True)
class RingElement:
    """A graded element on the monomial (cohomology) side, in normal form."""

    ring: "RingPresentation"
    degree: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    def coeff(self, mono: Monomial) -> Fraction:
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

    def coords(self) -> tuple[Fraction, ...]:
        basis = self.ring.monomial_basis(self.degree)
        return tuple(self.coeff(m) for m in basis)

    def __add__(self, other):
        self.ring._check_same(other, self.degree)
        merged = dict(self.terms)
        for m, c in other.terms:
            merged[m] = merged.get(m, Fraction(0)) + c
        return self.ring._element_from_dict(self.degree, merged)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor) -> "RingElement":
        factor = rat(factor)
        return self.ring._element_from_dict(
            self.degree, {m: factor * c for m, c in self.terms}
        )

    def __mul__(self, other):
        return self.ring.multiply(self, other)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "RingElement(0)"
        body = " + ".join(
            f"{rat_str(c)}*{format_monomial(m, self.ring.generators)}"
            for m, c in self.terms
        )
        return f"RingElement({body})"


@dataclass(frozen=True)
class DualClass:
    """An element of the homology side, in a declared dual named basis."""

    ring: "RingPresentation"
    degree: int  # the monomial degree it pairs against
    coords: tuple[Fraction, ...]

    def __add__(self, other):
        if (other.ring, other.degree) != (self.ring, self.degree):
            raise InputError("dual classes from different layers")
        return DualClass(
            self.ring,
            self.degree,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor) -> "DualClass":
        factor = rat(factor)
        return DualClass(self.ring, self.degree, tuple(factor * c for c in self.coords))


@dataclass(frozen=True)
class AuditFinding:
    kind: str
    detail: dict


@dataclass(frozen=True)
class AuditReport:
    ring: str
    confluence_products_checked: int
    gram_matrices: dict
    findings: tuple[AuditFinding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def findings_of_kind(self, kind: str) -> list[AuditFinding]:
        return [f for f in self.findings if f.kind == kind]


@dataclass(frozen=True)
class RingPresentation:
    """A graded ring given by generators, rewrite rules, and pairings."""

    name: str
    generators: tuple[str, ...]
    top_degree: int
    rewrites: dict[Monomial, dict[Monomial, Fraction]]
    top_values: dict[Monomial, Fraction] | None
    max_monomial_degree: int
    dual_layers: dict[int, DualLayer] = field(default_factory=dict)

    def _check_same(self, other, degree) -> None:
        if not isinstance(other, RingElement) or other.ring is not self:
            raise InputError("elements belong to different presentations")
        if other.degree != degree:
            raise InputError("degree mismatch")

    # -- monomial bases -------------------------------------------------

    def is_normal(self, mono: Monomial) -> bool:
        return not any(_divides(lhs, mono) for lhs in self.rewrites)

    def monomial_basis(self, degree: int) -> tuple[Monomial, ...]:
        """Normal-form monomials of one degree, leading-generator-first."""
        if degree < 0 or degree > self.max_monomial_degree:
            raise DomainError(
                f"{self.name}: no declared monomial basis in degree {degree}"
            )
        monos = [
            mono
            for mono in self._all_monomials(degree)
            if self.is_normal(mono)
        ]
        return tuple(sorted(monos, reverse=True))

    def _all_monomials(self, degree: int):
        n = len(self.generators)
        for combo in combinations_with_replacement(range(n), degree):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            yield tuple(exps)

    # -- construction ----------------------------------------------------

    def _element_from_dict(self, degree, terms: dict) -> RingElement:
        cleaned = tuple(
            sorted(
                ((m, rat(c)) for m, c in terms.items() if c != 0),
                reverse=True,
            )
        )
        return RingElement(self, degree, cleaned)

    def element(self, degree: int, terms) -> RingElement:
        """Build an element from {monomial | text: coefficient} terms."""
        if not isinstance(terms, dict):
            raise InputError(f"element terms must be an object, got {terms!r}")
        parsed: dict[Monomial, Fraction] = {}
        for key, coeff in terms.items():
            mono = key if isinstance(key, tuple) else parse_monomial(key, self.generators)
            if sum(mono) != degree:
                raise InputError(
                    f"monomial {format_monomial(mono, self.generators)} is not "
                    f"of degree {degree}"
                )
            parsed[mono] = parsed.get(mono, Fraction(0)) + rat(coeff)
        return self._element_from_dict(degree, self.normal_form(parsed))

    def zero(self, degree: int) -> RingElement:
        return RingElement(self, degree, ())

    def one(self) -> RingElement:
        return self.element(0, {"1": 1})

    def generator(self, name: str) -> RingElement:
        return self.element(1, {name: 1})

    def dual_class(self, degree: int, coords) -> DualClass:
        layer = self.dual_layers.get(degree)
        if layer is None:
            raise InputError(f"{self.name}: no dual basis declared in degree {degree}")
        coords = tuple(rat(c) for c in coords)
        if len(coords) != len(layer.names):
            raise InputError("dual coordinate length mismatch")
        return DualClass(self, degree, coords)

    # -- rewriting -------------------------------------------------------

    def normal_form(self, terms: dict, strategy: str = "first") -> dict:
        """Rewrite a term dict to normal form.

        ``strategy`` picks which applicable rule fires when several match
        ("first"/"last" in the fixed rule order); confluent presentations
        give the same answer either way, and the audit checks exactly that.
        """
        rules = sorted(self.rewrites)
        if strategy == "last":
            rules = rules[::-1]
        work = {m: rat(c) for m, c in terms.items() if c != 0}
        for _ in range(_MAX_REWRITE_STEPS):
            target = next(
                (
                    m
                    for m in sorted(work, reverse=strategy == "first")
                    if not self.is_normal(m)
                ),
                None,
            )
            if target is None:
                return work
            rule = next(lhs for lhs in rules if _divides(lhs, target))
            rest = _mono_sub(target, rule)
            coeff = work.pop(target)
            for rhs_mono, rhs_coeff in self.rewrites[rule].items():
                key = _mono_mul(rhs_mono, rest)
                value = work.get(key, Fraction(0)) + coeff * rhs_coeff
                if value == 0:
                    work.pop(key, None)
                else:
                    work[key] = value
        raise DomainError(f"{self.name}: rewriting did not terminate")

    # -- products and pairings --------------------------------------------

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        """Fully rewritten product in the target degree's monomial basis."""
        if a.ring is not self or b.ring is not self:
            raise InputError("elements belong to different presentations")
        degree = a.degree + b.degree
        if degree > self.top_degree:
            raise DomainError(
                f"{self.name}: product degree {degree} exceeds top degree "
                f"{self.top_degree}"
            )
        if degree > self.max_monomial_degree:
            raise DomainError(
                f"{self.name}: no declared monomial basis in degree {degree}"
            )
        raw: dict[Monomial, Fraction] = {}
        for ma, ca in a.terms:
            for mb, cb in b.terms:
                key = _mono_mul(ma, mb)
                raw[key] = raw.get(key, Fraction(0)) + ca * cb
        return self._element_from_dict(degree, self.normal_form(raw))

    def top_value(self, element: RingElement) -> Fraction:
        if element.degree != self.top_degree:
            raise DomainError("top value needs a top-degree element")
        if self.top_values is None:
            raise DomainError(
                f"{self.name}: no trusted top-degree structure is declared"
            )
        total = Fraction(0)
        for mono, coeff in self._element_from_dict(
            element.degree, self.normal_form(dict(element.terms))
        ).terms:
            if mono not in self.top_values:
                raise DomainError(
                    f"{self.name}: no declared value for top monomial "
                    f"{format_monomial(mono, self.generators)}"
                )
            total += coeff * self.top_values[mono]
        return total

    def pair(self, a: RingElement, b) -> Fraction:
        """Exact pairing of complementary-degree elements.

        Against a ``DualClass`` this is the defining coordinate dot product;
        against another monomial-side element it is the top-degree value of
        the product (available only for fully presented rings).
        """
        if isinstance(b, DualClass):
            if b.ring is not self:
                raise InputError("dual class from another presentation")
            if a.degree != b.degree:
                raise DomainError("pairing needs complementary degrees")
            basis = self.monomial_basis(a.degree)
            return dot([a.coeff(m) for m in basis], b.coords)
        if a.degree + b.degree != self.top_degree:
            raise DomainError("pairing needs complementary degrees")
        return self.top_value(self.multiply(a, b))

    def cap_image_from_relations(self, element: RingElement) -> DualClass:
        """Expand into the dual basis using the printed cap relations.

        Quarantined path: the expansions come straight from the presented
        data and may be internally inconsistent; ``consistency_audit`` is
        the arbiter.  Use ``pair`` for trusted values.
        """
        layer = self.dual_layers.get(element.degree)
        if layer is None or layer.cap_images is None:
            raise DomainError(
                f"{self.name}: no printed cap relations in degree {element.degree}"
            )
        coords = [Fraction(0)] * len(layer.names)
        for mono, coeff in element.terms:
            image = layer.cap_images.get(mono)
            if image is None:
                raise DomainError(
                    f"{self.name}: no printed cap image for "
                    f"{format_monomial(mono, self.generators)}"
                )
            for i, x in enumerate(image):
                coords[i] += coeff * x
        return DualClass(self, element.degree, tuple(coords))


def consistency_audit(ring: RingPresentation) -> AuditReport:
    """Recompute the presented data along independent paths and report.

    Checks: (i) rewrite confluence on all generator-times-basis products,
    fired under both rule orders; (ii) symmetry of every induced
    middle-degree Gram matrix; (iii) pairings that disagree between two
    computation paths.  Findings are data for the caller, never exceptions.
    """
    findings: list[AuditFinding] = []

    checked = 0
    gens = [ring.generator(name) for name in ring.generators]
    for degree in range(ring.max_monomial_degree - 1):
        for mono in ring.monomial_basis(degree):
            base = ring._element_from_dict(degree, {mono: Fraction(1)})
            for i, j in combinations_with_replacement(range(len(gens)), 2):
                left = ring.multiply(ring.multiply(base, gens[i]), gens[j])
                right = ring.multiply(ring.multiply(base, gens[j]), gens[i])
                pair_mono = tuple(
                    int(k == i) + int(k == j) for k in range(len(gens))
                )
                raw = {_mono_mul(mono, pair_mono): Fraction(1)}
                first = ring.normal_form(raw, strategy="first")
                last = ring.normal_form(raw, strategy="last")
                checked += 1
                if left.terms != right.terms or first != last:
                    findings.append(
                        AuditFinding(
                            "rewrite-nonconfluence",
                            {
                                "monomial": format_monomial(mono, ring.generators),
                                "generators": [
                                    ring.generators[i],
                                    ring.generators[j],
                                ],
                            },
                        )
                    )

    gram_matrices: dict[str, list[list[str]]] = {}
    if ring.top_degree % 2 == 0:
        middle = ring.top_degree // 2
        gram = _middle_gram(ring, middle)
        if gram is not None:
            basis = ring.monomial_basis(middle)
            gram_matrices[f"degree-{middle}"] = [
                [rat_str(x) for x in row] for row in gram
            ]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    if gram[i][j] != gram[j][i]:
                        names = (
                            format_monomial(basis[i], ring.generators),
                            format_monomial(basis[j], ring.generators),
                        )
                        findings.append(
                            AuditFinding(
                                "gram-asymmetry",
                                {
                                    "degree": middle,
                                    "monomials": list(names),
                                    "values": [
                                        rat_str(gram[i][j]),
                                        rat_str(gram[j][i]),
                                    ],
                                },
                            )
                        )
                        findings.append(
                            AuditFinding(
                                "pairing-path-disagreement",
                                {
                                    "pairing": f"{names[0]} . {names[1]}",
                                    "values": [
                                        rat_str(gram[i][j]),
                                        rat_str(gram[j][i]),
                                    ],
                                },
                            )
                        )

    if ring.top_values is not None:
        for mono in ring._all_monomials(ring.top_degree):
            first = ring.normal_form({mono: Fraction(1)}, strategy="first")
            last = ring.normal_form({mono: Fraction(1)}, strategy="last")
            if first != last:
                findings.append(
                    AuditFinding(
                        "pairing-path-disagreement",
                        {
                            "pairing": format_monomial(mono, ring.generators),
                            "values": ["strategy-dependent normal forms"],
                        },
                    )
                )

    return AuditReport(
        ring=ring.name,
        confluence_products_checked=checked,
        gram_matrices=gram_matrices,
        findings=tuple(findings),
    )


def _middle_gram(ring: RingPresentation, middle: int):
    """Gram matrix on the middle-degree monomial basis, entry (i, j) being
    the pairing of monomial i against the homology image of monomial j."""
    basis = ring.monomial_basis(middle)
    layer = ring.dual_layers.get(middle)
    if layer is not None and layer.cap_images is not None:
        rows = []
        for i in range(len(basis)):
            row = []
            for j in range(len(basis)):
                image = layer.cap_images.get(basis[j])
                if image is None:
                    return None
                row.append(image[i])
            rows.append(row)
        return rows
    if ring.top_values is not None:
        elements = [
            ring._element_from_dict(middle, {m: Fraction(1)}) for m in basis
        ]
        return [
            [ring.top_value(ring.multiply(a, b)) for b in elements]
            for a in elements
        ]
    return None
