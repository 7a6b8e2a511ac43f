"""Finite graded intersection rings presented by rewrite relations.

A presentation carries generator symbols, monomial rewrite rules, top-degree
values, and optionally "dual layers": named bases of the homology side whose
pairing against the monomial basis is the identity by definition.  Products
are evaluated by exact monomial rewriting to a declared normal form; the
consistency audit recomputes everything along independent paths and reports
(never hides) disagreements in the presented data.

Ring elements and dual classes are one kind of value, a ``GradedClass``:
a ring, a degree, and dense exact coordinates over the fixed ``basis`` of
that degree, the normal-form monomials or the named dual basis, whose
length a class checks when built.  A presentation computes its monomial
bases once, when it is built, and checks that each dual layer names one
class per monomial of its degree.  Adding classes of different kinds,
rings or degrees is an input error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .errors import CycleConesError, DomainError, InputError
from .linalg import combine, dot
from .rationals import rat, rat_str

Monomial = tuple[int, ...]

# Most rewrite steps one normal form may take.  The packaged rings' loads,
# claims and two golden `ring` commands make 376 normal forms of at most 7
# steps; rules that cycle reach the cap in 0.04 s (Python 3.11, 2-vCPU VM).
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
        exps[generators.index(name)] += power
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
    cap_images: dict[Monomial, tuple[int | Fraction, ...]] | None = None


@dataclass(frozen=True)
class GradedClass:
    """Exact coordinates of a class over the fixed basis of its degree."""

    ring: "RingPresentation"
    degree: int
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.basis):
            raise InputError(f"{self.side} coordinate length mismatch")

    def __add__(self, other):
        if type(other) is not type(self):
            raise InputError(f"cannot add a {type(other).__name__} to a {type(self).__name__}")
        if other.ring is not self.ring:
            raise InputError("classes belong to different presentations")
        if other.degree != self.degree:
            raise InputError(f"cannot add classes of degrees {self.degree} and {other.degree}")
        coords = tuple(rat(a + b) for a, b in zip(self.coords, other.coords))
        return type(self)(self.ring, self.degree, coords)

    def __sub__(self, other):
        if not isinstance(other, GradedClass):
            raise InputError(f"cannot subtract a {type(other).__name__} from a {type(self).__name__}")
        return self + other.scale(-1)

    def scale(self, factor):
        factor = rat(factor)
        return type(self)(self.ring, self.degree, tuple(rat(factor * c) for c in self.coords))


class RingElement(GradedClass):
    """A graded element on the monomial (cohomology) side, in normal form."""

    side = "monomial"

    @property
    def basis(self) -> tuple[Monomial, ...]:
        return self.ring.monomial_basis(self.degree)

    @property
    def terms(self) -> tuple[tuple[Monomial, int | Fraction], ...]:
        """The nonzero ``(monomial, coefficient)`` pairs, in basis order."""
        return tuple((m, c) for m, c in zip(self.basis, self.coords) if c)

    def __repr__(self):
        if not self.terms:
            return "RingElement(0)"
        body = " + ".join(
            f"{rat_str(c)}*{format_monomial(m, self.ring.generators)}"
            for m, c in self.terms
        )
        return f"RingElement({body})"


class DualClass(GradedClass):
    """An element of the homology side, in a declared dual named basis;
    its degree is the monomial degree it pairs against."""

    side = "dual"

    @property
    def basis(self) -> tuple[str, ...]:
        if self.degree not in self.ring.dual_layers:
            raise InputError(f"{self.ring.name}: no dual basis declared in degree {self.degree}")
        return self.ring.dual_layers[self.degree].names


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
    rewrites: dict[Monomial, dict[Monomial, int | Fraction]]
    top_values: dict[Monomial, int | Fraction] | None
    max_monomial_degree: int
    dual_layers: dict[int, DualLayer] = field(default_factory=dict)
    _bases: dict[int, tuple[Monomial, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a normal form stays in the monomial basis of its degree
        if any(sum(lhs) == 0 or any(sum(m) != sum(lhs) for m in rhs)
               for lhs, rhs in self.rewrites.items()):
            raise InputError(f"{self.name}: a relation must rewrite a monomial of "
                             "positive degree into monomials of its degree")
        if self.top_values is not None and self.max_monomial_degree < self.top_degree:
            raise InputError(f"{self.name}: top values need the degree-{self.top_degree} "
                             f"basis, above max_monomial_degree {self.max_monomial_degree}")
        bases = {d: tuple(sorted(filter(self.is_normal, self._all_monomials(d)), reverse=True))
                 for d in range(self.max_monomial_degree + 1)}
        object.__setattr__(self, "_bases", bases)
        for degree, layer in self.dual_layers.items():
            at, names = f"{self.name}: dual_bases[{str(degree)!r}]", layer.names
            if any(len(row) != len(names) for row in (layer.cap_images or {}).values()):
                raise InputError(f"{at}: a cap relation row is not {len(names)} long")
            if len(names) != len(bases.get(degree, ())):
                raise InputError(f"{at} names do not match the degree-{degree} monomial basis")

    # -- monomial bases -------------------------------------------------

    def is_normal(self, mono: Monomial) -> bool:
        return not any(_divides(lhs, mono) for lhs in self.rewrites)

    def monomial_basis(self, degree: int) -> tuple[Monomial, ...]:
        """Normal-form monomials of one degree, leading-generator-first."""
        if degree not in self._bases:
            raise DomainError(
                f"{self.name}: no declared monomial basis in degree {degree}"
            )
        return self._bases[degree]

    def _all_monomials(self, degree: int):
        n = len(self.generators)
        for combo in combinations_with_replacement(range(n), degree):
            yield tuple(combo.count(i) for i in range(n))

    # -- construction ----------------------------------------------------

    def _element_from_dict(self, degree, terms: dict) -> RingElement:
        """The element with normal-form ``terms``, which it consumes."""
        basis = self.monomial_basis(degree)
        coords = tuple(rat(terms.pop(m, 0)) for m in basis)
        if any(terms.values()):
            raise CycleConesError(
                f"{self.name}: a normal form left the degree-{degree} basis"
            )
        return RingElement(self, degree, coords)

    def element(self, degree: int, terms) -> RingElement:
        """Build an element from {monomial | text: coefficient} terms."""
        if not isinstance(terms, dict):
            raise InputError(f"element terms must be an object, got {terms!r}")
        parsed: dict[Monomial, int | Fraction] = {}
        for key, coeff in terms.items():
            mono = key if isinstance(key, tuple) else parse_monomial(key, self.generators)
            if sum(mono) != degree:
                raise InputError(
                    f"monomial {format_monomial(mono, self.generators)} is not "
                    f"of degree {degree}"
                )
            parsed[mono] = parsed.get(mono, 0) + rat(coeff)
        return self._element_from_dict(degree, self.normal_form(parsed))

    def one(self) -> RingElement:
        return self.element(0, {"1": 1})

    def generator(self, name: str) -> RingElement:
        return self.element(1, {name: 1})

    def dual_class(self, degree: int, coords) -> DualClass:
        return DualClass(self, degree, tuple(rat(c) for c in coords))

    # -- rewriting -------------------------------------------------------

    def normal_form(self, terms: dict, strategy: str = "first") -> dict:
        """Rewrite a term dict to normal form.

        ``strategy`` picks which applicable rule fires when several match
        ("first"/"last" in the fixed rule order); confluent presentations
        give the same answer either way, and the audit checks exactly that.
        Each step is one scan of the monomials, in descending order under
        "first" and ascending under "last": the first monomial some rule
        divides is rewritten by the first such rule.
        """
        rules = sorted(self.rewrites, reverse=strategy == "last")
        work = {m: rat(c) for m, c in terms.items() if c != 0}
        for _ in range(_MAX_REWRITE_STEPS + 1):  # pass k finds a form needing k steps
            step = next(((m, lhs) for m in sorted(work, reverse=strategy == "first")
                         for lhs in rules if _divides(lhs, m)), None)
            if step is None:
                return work
            target, rule = step
            rest = _mono_sub(target, rule)
            coeff = work.pop(target)
            for rhs_mono, rhs_coeff in self.rewrites[rule].items():
                key = _mono_mul(rhs_mono, rest)
                value = work.get(key, 0) + coeff * rhs_coeff
                if value == 0:
                    work.pop(key, None)
                else:
                    work[key] = value
        raise DomainError(f"{self.name}: rewriting exceeds its step budget")

    # -- products and pairings --------------------------------------------

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        """Fully rewritten product in the target degree's monomial basis."""
        for factor in (a, b):
            if not isinstance(factor, RingElement):
                raise InputError(f"cannot multiply a {type(factor).__name__}; "
                                 "only ring elements multiply")
        if a.ring is not self or b.ring is not self:
            raise InputError("elements belong to different presentations")
        degree = a.degree + b.degree
        if degree > self.top_degree:
            raise DomainError(
                f"{self.name}: product degree {degree} exceeds top degree "
                f"{self.top_degree}"
            )
        raw: dict[Monomial, int | Fraction] = {}
        for ma, ca in a.terms:
            for mb, cb in b.terms:
                key = _mono_mul(ma, mb)
                raw[key] = raw.get(key, 0) + ca * cb
        return self._element_from_dict(degree, self.normal_form(raw))

    def top_value(self, element: RingElement) -> int | Fraction:
        if element.degree != self.top_degree:
            raise DomainError("top value needs a top-degree element")
        if self.top_values is None:
            raise DomainError(
                f"{self.name}: no trusted top-degree structure is declared"
            )
        total = 0
        for mono, coeff in element.terms:
            if mono not in self.top_values:
                raise DomainError(
                    f"{self.name}: no declared value for top monomial "
                    f"{format_monomial(mono, self.generators)}"
                )
            total += coeff * self.top_values[mono]
        return total

    def pair(self, a: RingElement, b: GradedClass) -> int | Fraction:
        """Exact pairing of complementary-degree elements.

        Against a ``DualClass`` this is the defining coordinate dot product;
        against another monomial-side element it is the top-degree value of
        the product (available only for fully presented rings).
        """
        if not isinstance(a, RingElement):
            raise InputError("the first pairing argument must be a ring element")
        if not isinstance(b, GradedClass):
            raise InputError("the second pairing argument must be a class")
        if a.ring is not self or b.ring is not self:
            raise InputError("classes belong to different presentations")
        if isinstance(b, DualClass):
            if a.degree != b.degree:
                raise DomainError("pairing needs complementary degrees")
            return dot(a.coords, b.coords)
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
        terms = element.terms
        for mono, _ in terms:
            if mono not in layer.cap_images:
                raise DomainError(
                    f"{self.name}: no printed cap image for "
                    f"{format_monomial(mono, self.generators)}"
                )
        images = [layer.cap_images[m] for m, _ in terms]
        coords = combine([c for _, c in terms], images, len(layer.names))
        return DualClass(self, element.degree, coords)


def consistency_audit(ring: RingPresentation) -> AuditReport:
    """Recompute the presented data along independent paths and report.

    Checks: (i) rewrite confluence on all generator-times-basis products,
    fired under both rule orders; (ii) top-degree basis monomials that the
    declared top values leave without a value; (iii) symmetry of every
    induced middle-degree Gram matrix; (iv) pairings that disagree between
    two computation paths.  Findings are data for the caller, never
    exceptions: a Gram matrix that would need a missing top value is not
    computed.
    """
    findings: list[AuditFinding] = []

    checked = 0
    gens = [ring.generator(name) for name in ring.generators]
    for degree in range(ring.max_monomial_degree - 1):
        for mono in ring.monomial_basis(degree):
            base = ring._element_from_dict(degree, {mono: 1})
            for i, j in combinations_with_replacement(range(len(gens)), 2):
                left = ring.multiply(ring.multiply(base, gens[i]), gens[j])
                right = ring.multiply(ring.multiply(base, gens[j]), gens[i])
                pair_mono = tuple(
                    int(k == i) + int(k == j) for k in range(len(gens))
                )
                raw = {_mono_mul(mono, pair_mono): 1}
                first = ring.normal_form(raw, strategy="first")
                last = ring.normal_form(raw, strategy="last")
                checked += 1
                if left.coords != right.coords or first != last:
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

    uncovered = [
        format_monomial(m, ring.generators) for m in ring._bases.get(ring.top_degree, ())
        if ring.top_values is not None and m not in ring.top_values
    ]
    findings += [AuditFinding("uncovered-top-monomial", {"monomial": m}) for m in uncovered]

    gram_matrices: dict[str, list[list[str]]] = {}
    middle = ring.top_degree // 2
    gram = _middle_gram(ring, middle, bool(uncovered)) if ring.top_degree % 2 == 0 else None
    if gram is not None:
        shown = [[rat_str(x) for x in row] for row in gram]
        gram_matrices[f"degree-{middle}"] = shown
        names = [format_monomial(m, ring.generators) for m in ring.monomial_basis(middle)]
        for i, j in combinations(range(len(names)), 2):
            if gram[i][j] != gram[j][i]:
                values = [shown[i][j], shown[j][i]]
                findings.append(AuditFinding(
                    "gram-asymmetry",
                    {"degree": middle, "monomials": [names[i], names[j]], "values": values},
                ))
                findings.append(AuditFinding(
                    "pairing-path-disagreement",
                    {"pairing": f"{names[i]} . {names[j]}", "values": list(values)},
                ))

    if ring.top_values is not None:
        for mono in ring._all_monomials(ring.top_degree):
            first = ring.normal_form({mono: 1}, strategy="first")
            last = ring.normal_form({mono: 1}, strategy="last")
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


def _middle_gram(ring: RingPresentation, middle: int, uncovered: bool):
    """Gram matrix on the middle-degree monomial basis, entry (i, j) being
    the pairing of monomial i against the homology image of monomial j;
    None when no path gives it, as when the top values would be the path
    and some top monomial is ``uncovered``."""
    basis = ring.monomial_basis(middle)
    units = [ring._element_from_dict(middle, {m: 1}) for m in basis]
    layer = ring.dual_layers.get(middle)
    if layer is not None and layer.cap_images is not None:
        if not all(m in layer.cap_images for m in basis):
            return None
        images = [ring.cap_image_from_relations(u) for u in units]
    elif ring.top_values is not None and not uncovered:
        images = units
    else:
        return None
    return [[ring.pair(a, image) for image in images] for a in units]
