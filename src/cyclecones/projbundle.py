"""Cycle cones on a projective bundle over a smooth curve.

The whole model is driven by the numerical data of the bundle's
semistable filtration: an ordered list of (rank, degree) pieces with
strictly increasing slopes.  Every cone of k-dimensional classes is
two-dimensional, spanned by powers of the relative hyperplane class and
the fiber class, and the three cone constants are heights of one slope
polygon, tabulated once per profile (``HNProfile.heights``) and read, with
the one check that they nest, by ``_constants``.  The cones are built
canonical in closed form, so no double description converts them, and
decompositions and their movable certificates are read off the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .cones import PolyCone
from .decomposition import Certificate, Decomposition
from .errors import CycleConesError, DomainError, InputError
from .linalg import dot, int_primitive, reproduces, violated
from .rationals import rat, rat_str
from .vectors import ClassVector, dual_basis

# Largest profile rank accepted.  ``projbundle`` prints every epsilon, nu
# and sigma, so its work and output grow with the rank: with ``--hn
# "n:1,n:2"``, wall clock with interpreter start on Python 3.11 (shared
# 2-vCPU Xeon VM, median of 15 runs), rank 2 000 took 0.19 s and 10 000
# 0.63 s (0.9 MB of JSON); with the cap raised, 40 000 took 1.9 s (3.8 MB).
# Every fixture and benchmark profile has rank 20 or less.
_MAX_PROFILE_RANK = 10_000


@dataclass(frozen=True)
class HNProfile:
    """Numerical slope data: ordered (rank, degree) pieces.

    Slopes degree/rank must strictly increase along the list; that is the
    ordering under which the slope polygon below is convex.
    """

    pieces: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pieces = tuple((rat(r), rat(d)) for r, d in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise InputError("profile needs at least one (rank, degree) piece")
        for r, d in pieces:
            if type(r) is not int or type(d) is not int:
                raise InputError(f"ranks and degrees must be integers, got {r}:{d}")
            if r < 1:
                raise InputError("ranks must be positive integers")
        if self.rank > _MAX_PROFILE_RANK:
            raise DomainError(
                f"profile rank {self.rank} exceeds the cap of {_MAX_PROFILE_RANK}",
                rank=self.rank,
                cap=_MAX_PROFILE_RANK,
            )
        slopes = self.slopes
        for a, b in zip(slopes, slopes[1:]):
            if a >= b:
                raise InputError(
                    "slopes must strictly increase: "
                    + ", ".join(rat_str(s) for s in slopes)
                )

    @staticmethod
    def parse(text: str) -> "HNProfile":
        """Parse the CLI syntax ``"r:d,r:d,..."``, e.g. ``"2:0,2:2"``."""
        if not isinstance(text, str):
            raise InputError(f"a profile is text like \"2:0,2:2\", got {text!r}")
        pieces = []
        for chunk in text.split(","):
            try:
                r, d = chunk.split(":")
                pieces.append((int(r), int(d)))
            except ValueError as exc:
                raise InputError(f"bad profile piece {chunk!r}") from exc
        return HNProfile(tuple(pieces))

    @cached_property
    def rank(self) -> int:
        return sum(r for r, _ in self.pieces)

    @cached_property
    def degree(self) -> int:
        return sum(d for _, d in self.pieces)

    @cached_property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, r) for r, d in self.pieces)

    @cached_property
    def heights(self) -> tuple[Fraction, ...]:
        """eps_0..eps_rank: heights of the slope polygon over x = 0..rank.

        The polygon runs from (0, -degree) to (rank, 0), one segment of
        horizontal length r and slope d/r per piece (r, d), in order.  Its
        breakpoints (x, y) are integer points, so the height over x + j on
        the segment of piece (r, d) is the one Fraction (y·r + j·d) / r.
        """
        y, heights = -self.degree, [Fraction(-self.degree)]
        for r, d in self.pieces:
            heights.extend(Fraction(y * r + j * d, r) for j in range(1, r + 1))
            y += d
        return tuple(heights)

    @property
    def top_slope(self) -> Fraction:
        return self.slopes[-1]

    def text(self) -> str:
        return ",".join(f"{r}:{d}" for r, d in self.pieces)


def class_basis(profile: HNProfile, k: int) -> str:
    """Basis name for k-dimensional classes: coordinates (x, y) meaning
    x*xi^(n-k) + y*xi^(n-k-1)f."""
    return f"pb[{profile.text()}].N{k}"


def _check_k(profile: HNProfile, k: int, low: int, high: int) -> None:
    if not (low <= k <= high):
        raise InputError(
            f"k={k} outside the valid range {low}..{high} for rank "
            f"{profile.rank}"
        )


def epsilon(profile: HNProfile, k: int) -> Fraction:
    """Height of the slope polygon over x = k (``HNProfile.heights``)."""
    _check_k(profile, k, 0, profile.rank)
    return profile.heights[k]


def _constants(profile: HNProfile, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(eps_k, nu_k, sigma_k), the eff, nef and mov boundary constants in
    dimension k, read off ``HNProfile.heights``: nu_k = -degree - eps_(n-k)
    and sigma_k = eps_(k-1) + top slope.  They must nest, nu_k >= sigma_k >=
    eps_k (nef <= mov <= eff); the convex polygon guarantees it, so a
    violation is an internal error."""
    _check_k(profile, k, 1, profile.rank - 1)
    heights = profile.heights
    eps, nu_k = heights[k], -profile.degree - heights[profile.rank - k]
    sig = heights[k - 1] + profile.top_slope
    if not (nu_k >= sig >= eps):
        raise CycleConesError(
            "cone constants out of order",
            epsilon=rat_str(eps), sigma=rat_str(sig), nu=rat_str(nu_k),
        )
    return eps, nu_k, sig


def nu(profile: HNProfile, k: int) -> Fraction:
    """Boundary constant of the nef cone in dimension k."""
    return _constants(profile, k)[1]


def sigma(profile: HNProfile, k: int) -> Fraction:
    """Boundary constant of the movable cone in dimension k."""
    return _constants(profile, k)[2]


def _plane_cones(basis: str, constants) -> tuple[PolyCone, ...]:
    """The canonical cones <(1, c), (0, 1)> of ``basis``, one per constant
    c, in closed form.

    With (q, p) = ``int_primitive((1, c))``, so q >= 1, the sorted primitive
    generators are (0, 1), (q, p) and the facets (1, 0) and (-p, q), sorted:
    what ``dd_convert`` prints.  Before a cone is marked canonical, each
    facet is checked in integers to vanish on one generator and be positive
    on the other.  The cones share their vectors (0, 1) and (1, 0).
    """
    dual = dual_basis(basis)
    fiber, edge = ClassVector(basis, (0, 1)), ClassVector(dual, (1, 0))
    cones = []
    for c in constants:
        q, p = int_primitive((1, c))
        ray, cut = ClassVector(basis, (q, p)), ClassVector(dual, (-p, q))
        facets = (cut, edge) if cut.coords < edge.coords else (edge, cut)
        for f in facets:
            a, b = dot(f.coords, fiber.coords), dot(f.coords, ray.coords)
            if a * b != 0 or a + b <= 0:
                raise CycleConesError(
                    "closed-form cone fails its facet check",
                    constant=rat_str(c),
                    generators=[[rat_str(x) for x in g.coords] for g in (fiber, ray)],
                    facets=[[rat_str(x) for x in f.coords] for f in facets],
                )
        cone = PolyCone(
            basis, 2, generators=(fiber, ray), inequalities=facets, dual=dual
        )
        object.__setattr__(cone, "canonical", True)
        cones.append(cone)
    return tuple(cones)


def cones_at(profile: HNProfile, k: int):
    """(eff, nef, mov) cones of k-dimensional classes, each 2D and canonical.

    eff = <(1, eps_k), (0, 1)>, nef = <(1, nu_k), (0, 1)>,
    mov = <(1, sigma_k), (0, 1)>, built in closed form by ``_plane_cones``
    from ``_constants``, which checks the nesting nef <= mov <= eff.
    """
    return _plane_cones(class_basis(profile, k), _constants(profile, k))


def cone_coincidence(profile: HNProfile, k: int):
    """Flags (mov == eff, nef == eff) in dimension k, verified two ways.

    Movable equals effective exactly when k exceeds rank minus the last
    piece's rank.  Nef equals effective exactly for a single-piece profile:
    convexity of the slope polygon gives eps_k + eps_(n-k) < -degree as
    soon as there are two distinct slopes, so the nef and effective
    boundary constants can never meet in any dimension.  Both closed forms
    are independently confirmed against the checked ``_constants`` triple.
    """
    eps, nu_k, sig = _constants(profile, k)
    mov_eq_eff = profile.rank - profile.pieces[-1][0] < k
    nef_eq_eff = len(profile.pieces) == 1
    if mov_eq_eff != (sig == eps):
        raise CycleConesError("movable/effective coincidence flags disagree")
    if nef_eq_eff != (nu_k == eps):
        raise CycleConesError("nef/effective coincidence flags disagree")
    return mov_eq_eff, nef_eq_eff


def _plane(v: ClassVector) -> tuple[Fraction, ...]:
    """The coordinates (x, y) of a class; every cone here is two-dimensional."""
    if v.dim != 2:
        raise InputError(
            f"classes in basis {v.basis!r} have 2 coordinates, got {v.dim}"
        )
    return v.coords


def pair_classes(profile: HNProfile, k: int, a: ClassVector, b: ClassVector) -> Fraction:
    """Intersection number of classes in complementary dimensions k, n-k.

    With a = (x, y) and b = (x', y'): x*x'*degree + x*y' + x'*y, from the
    three monomial relations of the bundle.
    """
    n = profile.rank
    if a.basis != class_basis(profile, k) or b.basis != class_basis(profile, n - k):
        raise InputError("classes must live in complementary dimensions")
    (x, y), (xp, yp) = _plane(a), _plane(b)
    return x * xp * profile.degree + x * yp + xp * y


def degree_functional(profile: HNProfile, k: int) -> ClassVector:
    """Default objective: pairing with the sum (1, nu_{n-k} + 1) of the two
    complementary-dimension nef generators (1, nu_{n-k}) and (0, 1).

    By ``pair_classes`` this is the functional (d + nu_{n-k} + 1, 1) on
    (x, y), d the bundle degree.  It takes the value 1 on both effective
    extremal rays: on (0, 1) directly, and on (1, eps_k) because
    nu_{n-k} = -d - eps_k.  Each nef generator alone vanishes on one of
    the two rays, so only the sum is strictly positive on the whole cone.
    """
    n = profile.rank
    nu_comp = nu(profile, n - k)
    basis = class_basis(profile, k)
    return ClassVector(
        dual_basis(basis), (profile.degree + nu_comp + 1, Fraction(1))
    )


def zariski_decompose(profile: HNProfile, k: int, alpha: ClassVector) -> Decomposition:
    """Closed-form decomposition of a pseudo-effective class.

    Writing alpha = a*(1, eps_k) + b*(0, 1) with a, b >= 0: if
    b >= a*(sigma_k - eps_k) the class is movable and is its own positive
    part; otherwise the positive part is the multiple of the movable
    boundary ray (1, sigma_k) with coefficient b/(sigma_k - eps_k) and the
    negative part is the leftover multiple of the effective boundary ray
    (1, eps_k).

    The movable certificate of the positive part (x, y) is its unique
    combination (y - x*sigma_k, x/q) of mov's canonical generators (0, 1)
    and (q, p), the primitive form of (1, sigma_k).
    """
    basis = class_basis(profile, k)
    if alpha.basis != basis:
        raise InputError(f"class must be given in basis {basis!r}")
    eps, nu_k, sig = _constants(profile, k)
    a, y = _plane(alpha)
    b = y - a * eps
    if a < 0 or b < 0:
        # a < 0 is negative on the facet (1, 0), b < 0 on (-p, q) = q*(-eps_k, 1)
        facets = _plane_cones(basis, (eps,))[0].inequality_rows()
        cut = facets[violated(facets, int_primitive(alpha.coords))]
        raise DomainError(
            "class is not pseudo-effective",
            separating_functional=[rat_str(c) for c in cut],
        )
    gap = sig - eps
    if b >= a * gap:
        positive, negative = alpha, ClassVector(basis, (0, 0))
        negative_multiple = Fraction(0)
    else:
        positive = ClassVector(basis, (1, sig)).scale(Fraction(b, gap))
        negative_multiple = Fraction(a * gap - b, gap)
        negative = ClassVector(basis, (1, eps)).scale(negative_multiple)
    q, p = int_primitive((1, sig))
    x, y = positive.coords
    combination = (y - x * sig, Fraction(x, q))
    if not reproduces(combination, ((0, 1), (q, p)), positive.coords):
        raise CycleConesError("movable combination does not reproduce the positive part")
    certificates = (
        Certificate("positive-part-movable", {"combination": list(combination)}),
        Certificate(
            "negative-part-on-effective-boundary-ray",
            {"ray": [1, eps], "multiple": negative_multiple},
        ),
    )
    return Decomposition(
        input=alpha,
        positive=positive,
        negative=negative,
        certificates=certificates,
        metadata={
            "method": "closed-form",
            "eff_coordinates": [rat_str(a), rat_str(b)],
            "constants": {
                "epsilon": rat_str(eps),
                "sigma": rat_str(sig),
                "nu": rat_str(nu_k),
            },
        },
    )


def constants_table(profile: HNProfile) -> dict:
    """JSON-ready table of the polygon and all cone constants."""
    n, heights = profile.rank, profile.heights
    ends = accumulate((r for r, _ in profile.pieces), initial=0)
    triples = [_constants(profile, k) for k in range(1, n)]
    return {
        "profile": profile.text(),
        "rank": n,
        "degree": profile.degree,
        "slopes": [rat_str(s) for s in profile.slopes],
        "polygon": [[str(x), rat_str(heights[x])] for x in ends],
        "epsilon": {str(k): rat_str(e) for k, e in enumerate(heights)},
        "nu": {str(k): rat_str(nu_k) for k, (_, nu_k, _) in enumerate(triples, 1)},
        "sigma": {str(k): rat_str(sig) for k, (_, _, sig) in enumerate(triples, 1)},
    }
