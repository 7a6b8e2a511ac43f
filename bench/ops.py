"""Set-up, operations and exact checks of the library workloads.

``setup`` turns generated inputs into library values through public
constructors; ``op`` is the timed operation; ``check`` re-verifies its
result by direct arithmetic outside the timed region and returns a digest
of it, raising ``CheckError`` on any mismatch.  Library functions are
always called through their modules, so the tracer's patches see them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd

from cyclecones import cones, fixtures, negdef, projbundle, zariski
from cyclecones.cones import PolyCone
from cyclecones.vectors import ClassVector, dual_basis

from inputs import rank


class CheckError(Exception):
    """An operation's result failed exact re-verification."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckError(what)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _combination_reproduces(combo, generators, vector) -> bool:
    combo = [Fraction(c) for c in combo]
    if len(combo) != len(generators) or any(c < 0 for c in combo):
        return False
    total = [Fraction(0)] * len(vector.coords)
    for c, g in zip(combo, generators):
        for i, x in enumerate(g.coords):
            total[i] += c * x
    return tuple(total) == vector.coords


def _primitive(row) -> tuple[int, ...]:
    ints = [int(x) for x in row]
    content = 0
    for v in ints:
        content = gcd(content, v)
    return tuple(v // content for v in ints) if content else tuple(ints)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class DecomposeLadder:
    """``decompose`` plus ``preceq_maximum`` and its ``verify()``: the work
    of the ``decompose`` and ``directed`` commands."""

    def setup(self, rungs):
        toric = None
        geometries = {}  # instances of a fixed-shape rung share one geometry
        fixed = []
        for rung in rungs:
            items = []
            for i, inst in enumerate(rung["instances"]):
                if rung["extra"] is None:
                    if toric is None:
                        toric = fixtures.load("toric-3fold").geometry("curves")
                    gens = toric.eff.generators
                    if len(gens) != len(inst["coeffs"]):
                        raise CheckError("toric-3fold eff curve cone changed shape")
                    alpha = ClassVector(toric.basis, tuple(
                        sum(c * g.coords[j] for c, g in zip(inst["coeffs"], gens))
                        for j in range(toric.dim)))
                    items.append((toric, alpha))
                    continue
                basis = f"bench.ladder{rung['dim']}"
                key = (tuple(inst["eff"]), tuple(inst["mov"]))
                if key not in geometries:
                    geometries[key] = zariski.cone_geometry(
                        f"{rung['label']}-{i}",
                        PolyCone.from_generators(basis, inst["mov"]),
                        PolyCone.from_generators(basis, inst["eff"]),
                        ClassVector(dual_basis(basis), (1,) * rung["dim"]),
                    )
                items.append((geometries[key], ClassVector(basis, inst["alpha"])))
            fixed.append(items)
        return fixed

    def op(self, item):
        geometry, alpha = item
        dec = zariski.decompose(geometry, alpha)
        polytope = zariski.decomposition_polytope(geometry, alpha)
        report = zariski.preceq_maximum(geometry, polytope)
        return dec, report, report.verify()

    def check(self, item, result) -> str:
        geometry, alpha = item
        dec, report, verified = result
        require(verified is True, "directedness report did not verify in the operation")
        require(report.verify(), "directedness certificate fails re-verification")
        require(dec.input.coords == alpha.coords, "decomposition of another class")
        require(zariski.verify_decomposition(geometry, dec), "decomposition certificates fail")
        certified = dec.metadata["positive_part_status"] == "certified-preceq-maximum"
        is_max = report.status == "maximum" and report.maximum.coords == dec.positive.coords
        require(certified == is_max, "positive-part status contradicts the report")
        return digest([dec.to_json(), report.to_json()])

    @staticmethod
    def shape(result) -> dict:
        _, report, _ = result
        polytope = report.polytope
        return {"m": len(polytope.inequalities), "vertices": len(polytope.vertices),
                "status": report.status}


class ConeConvert:
    """``dd_convert``, ``dual_cone``, then membership queries with
    certificates, on cones given by generators or by inequalities.

    The member by construction is asked of whichever of the cone and its
    dual is generated by the input rows, so its certificate is a simplex
    over those rows; the probe is drawn at random, and the negated
    all-ones vector is a non-member whose certificate is an inequality.
    """

    def setup(self, rungs):
        fixed = []
        for rung in rungs:
            basis = f"bench.cone{rung['dim']}"
            dual = dual_basis(basis)
            minus_ones = (-1,) * rung["dim"]
            items = []
            for inst in rung["instances"]:
                if rung["kind"] == "generators":
                    cone = PolyCone.from_generators(basis, inst["rows"])
                    queries = (("cone", ClassVector(basis, inst["combo"])),
                               ("cone", ClassVector(basis, inst["probe"])),
                               ("dual", ClassVector(dual, minus_ones)))
                else:
                    cone = PolyCone.from_inequalities(basis, inst["rows"])
                    queries = (("dual", ClassVector(dual, inst["combo"])),
                               ("cone", ClassVector(basis, inst["probe"])),
                               ("cone", ClassVector(basis, minus_ones)))
                items.append((rung["kind"], cone, queries))
            fixed.append(items)
        return fixed

    def op(self, item):
        _, cone, queries = item
        full = cones.dd_convert(cone)
        dual = cones.dual_cone(full)
        sides = {"cone": full, "dual": dual}
        verdicts = tuple(cones.contains(sides[side], vector) for side, vector in queries)
        return full, dual, verdicts

    def check(self, item, result) -> str:
        kind, cone, _ = item
        full, dual, verdicts = result
        gens = [g.coords for g in full.generators]
        ineqs = [l.coords for l in full.inequalities]
        # the canonical rows are integral, so the checks run on ints
        int_gens = [_ints(g) for g in gens]
        int_ineqs = [_ints(l) for l in ineqs]
        check_pair(int_gens, int_ineqs, full.dim)
        rows = [_ints(r.coords)
                for r in (cone.generators if kind == "generators" else cone.inequalities)]
        inputs = {_primitive(r) for r in rows}
        if kind == "generators":
            require(all(_dot(l, r) >= 0 for r in rows for l in int_ineqs),
                    "an input generator violates a computed facet")
            require(all(_primitive(g) in inputs for g in int_gens),
                    "a ray is not an input generator")
        else:
            require(all(_dot(r, g) >= 0 for r in rows for g in int_gens),
                    "a computed ray violates an input inequality")
            require(all(_primitive(l) in inputs for l in int_ineqs),
                    "a facet is not an input row")
        require([g.coords for g in dual.generators] == ineqs
                and [l.coords for l in dual.inequalities] == gens,
                "dual cone is not the swapped pair")
        for verdict in verdicts:
            require(verdict.verify(), "membership certificate fails re-verification")
        require(verdicts[0].member, "a member by construction was rejected")
        require(not verdicts[2].member, "a non-member by construction was accepted")
        return digest([gens, ineqs, [(v.member, v.combination, v.separating and v.separating.coords)
                                     for v in verdicts]])

    @staticmethod
    def shape(result) -> dict:
        full, _, _ = result
        return {"rays": len(full.generators), "facets": len(full.inequalities)}


def check_pair(gens, ineqs, dim: int) -> None:
    """A pointed full-dimensional generator/facet pair of integer rows, by
    direct arithmetic: every generator satisfies every inequality, each
    facet is tight on generators of rank dim - 1, each ray on facets of
    rank dim - 1."""
    values = [[_dot(l, g) for g in gens] for l in ineqs]
    require(all(v >= 0 for row in values for v in row), "a generator violates an inequality")
    for li in range(len(ineqs)):
        tight = [gens[gi] for gi in range(len(gens)) if values[li][gi] == 0]
        require(bool(tight) and rank(tight) == dim - 1, "an inequality is not a facet")
    for gi in range(len(gens)):
        tight = [ineqs[li] for li in range(len(ineqs)) if values[li][gi] == 0]
        require(bool(tight) and rank(tight) == dim - 1, "a generator is not an extremal ray")


def _ints(row) -> list[int]:
    out = []
    for x in row:
        if Fraction(x).denominator != 1:
            raise CheckError("canonical row is not integral")
        out.append(int(x))
    return out


class SmallBatch:
    """Tiny exact problems, each solved by two independent routes: slope
    profiles by closed form and by the 2-dim LP ``decompose``; pairing
    matrices by support growth and by brute force."""

    def setup(self, rungs):
        fixed = []
        for rung in rungs:
            items = []
            for inst in rung["instances"]:
                if rung["label"] == "slope":
                    profile = projbundle.HNProfile(tuple(inst["pieces"]))
                    k = inst["k"]
                    basis = projbundle.class_basis(profile, k)
                    a, b = inst["a"], inst["b"]
                    alpha = ClassVector(basis, (a, a * projbundle.epsilon(profile, k) + b))
                    items.append(("slope", profile, k, alpha))
                else:
                    rank = inst["rank"]
                    basis = negdef.PairingBasis(tuple(f"v{i}" for i in range(rank)),
                                                tuple(tuple(r) for r in inst["gram"]))
                    items.append(("pairing", basis, tuple(inst["coeffs"])))
            fixed.append(items)
        return fixed

    def op(self, item):
        if item[0] == "slope":
            _, profile, k, alpha = item
            closed = projbundle.zariski_decompose(profile, k, alpha)
            eff, _, mov = projbundle.cones_at(profile, k)
            geometry = zariski.cone_geometry(
                "slope", mov, eff, projbundle.degree_functional(profile, k))
            return closed, geometry, zariski.decompose(geometry, alpha)
        _, basis, coeffs = item
        return negdef.decompose(basis, coeffs), negdef.brute_force(basis, coeffs)

    def check(self, item, result) -> str:
        if item[0] == "slope":
            alpha = item[3]
            closed, geometry, lp = result
            require(closed.input.coords == alpha.coords, "closed form of another class")
            require(closed.positive.coords == lp.positive.coords
                    and closed.negative.coords == lp.negative.coords,
                    "closed form and LP decomposition disagree")
            require(zariski.verify_decomposition(geometry, lp), "LP certificates fail")
            combo = closed.certificate("positive-part-movable").data["combination"]
            require(_combination_reproduces(combo, geometry.mov.generators, closed.positive),
                    "closed-form movable certificate fails")
            return digest([closed.to_json(), lp.to_json()])
        basis, coeffs = item[1], item[2]
        fast, oracle = result
        require(fast.input.coords == tuple(Fraction(c) for c in coeffs), "decomposed another class")
        require(negdef.verify(basis, fast), "support-growth certificates fail")
        require(negdef.verify(basis, oracle), "brute-force certificates fail")
        require(fast.negative.coords == oracle.negative.coords,
                "support growth and brute force disagree")
        return digest([fast.to_json(), oracle.to_json()])

    @staticmethod
    def shape(result) -> dict:
        if len(result) == 3:
            return {"movable": result[0].negative.is_zero()}
        return {"support": len(result[0].metadata["support"])}


WORKLOADS = {
    "decompose-ladder": DecomposeLadder,
    "cone-convert": ConeConvert,
    "small-batch": SmallBatch,
}
