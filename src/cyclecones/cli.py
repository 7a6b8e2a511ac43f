"""Command-line surface: every operation, JSON in, JSON out.

Exit codes: 0 ok, 1 input error, 2 domain error, 3 internal error; an
internal error names the exception type and its innermost frame.  Output
is deterministic for identical inputs; ``--meta`` adds a timestamp block
alongside (never inside) the payload.

Each handler imports the modules only it needs inside its body, so a
command loads just the layers it runs; the top-level imports are the ones
every command loads anyway.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .cones import contains, dd_convert, dual_cone, extremal_rays, is_salient
from .errors import DomainError, InputError
from .jsonio import (
    cone_from_json,
    cone_to_json,
    geometry_from_json,
    gram_from_json,
    parse_vector_text,
    read_json,
    rows_to_json,
)
from .rationals import rat_str

SCHEMA = "cyclecones/v1"

_EXIT_CODES = {"ok": 0, "input_error": 1, "domain_error": 2, "internal_error": 3}


def __getattr__(name):
    # ``negdef_brute_force`` stays an attribute of this module without every
    # command importing negdef at start-up
    if name == "negdef_brute_force":
        from .negdef import brute_force

        return brute_force
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_geometry(ref: str):
    """A geometry is a JSON file path or a fixture reference ``fixture:id``,
    where ``fixture`` is a packaged name or a fixture ``.json`` file."""
    if ":" in ref and not ref.endswith(".json"):
        from . import fixtures

        fixture_ref, geometry_id = ref.rsplit(":", 1)
        fixture = fixtures.load(fixture_ref)
        return fixture.geometry(geometry_id)
    return geometry_from_json(read_json(ref))


def _cone_payload(args) -> dict:
    cone = cone_from_json(read_json(args.input))
    if args.cone_op == "convert":
        return {"cone": cone_to_json(dd_convert(cone))}
    if args.cone_op == "dual":
        return {"cone": cone_to_json(dual_cone(cone))}
    if args.cone_op == "rays":
        full = dd_convert(cone)
        return {
            "salient": is_salient(full),
            "rays": rows_to_json(extremal_rays(full)),
        }
    if args.cone_op == "contains":
        vector = parse_vector_text(args.vector, cone.basis, cone.dim)
        verdict = contains(cone, vector)
        payload = {"member": bool(verdict), "verified": verdict.verify()}
        if verdict.member:
            payload["combination"] = [rat_str(c) for c in verdict.combination]
            payload["generators"] = rows_to_json(verdict.cone.generators)
        else:
            payload["separating_functional"] = [
                rat_str(c) for c in verdict.separating.coords
            ]
        return payload
    raise InputError(f"unknown cone operation {args.cone_op!r}")


def _decompose_payload(args) -> dict:
    from .zariski import decompose, negative_boundary_check

    geometry = _load_geometry(args.geometry)
    alpha = parse_vector_text(args.klass, geometry.basis, geometry.dim)
    objective = None
    if args.objective:
        objective = parse_vector_text(args.objective, geometry.eff.dual, geometry.dim)
    result = decompose(geometry, alpha, objective)
    payload = result.to_json()
    payload["negative_on_eff_boundary"] = negative_boundary_check(geometry, result)
    if args.plot_section:
        from .section_plot import render_section

        svg = render_section(geometry, result)
        try:
            with open(args.plot_section, "w", encoding="utf-8") as handle:
                handle.write(svg)
        except OSError as exc:  # no such directory, a directory, ...
            raise InputError(
                f"cannot write {args.plot_section}: {exc.strerror or exc}"
            ) from exc
        payload["plot_section"] = args.plot_section
    return payload


def _directed_payload(args) -> dict:
    from .zariski import decomposition_polytope, preceq_maximum

    geometry = _load_geometry(args.geometry)
    alpha = parse_vector_text(args.klass, geometry.basis, geometry.dim)
    polytope = decomposition_polytope(geometry, alpha)
    report = preceq_maximum(geometry, polytope)
    payload = report.to_json()
    payload["verified"] = report.verify()
    return payload


def _projbundle_payload(args) -> dict:
    from .projbundle import (
        HNProfile,
        class_basis,
        cone_coincidence,
        cones_at,
        constants_table,
        zariski_decompose,
    )

    profile = HNProfile.parse(args.hn)
    payload = {"constants": constants_table(profile)}
    if args.k is not None:
        k = args.k
        eff, nef, mov = cones_at(profile, k)
        mov_eq_eff, nef_eq_eff = cone_coincidence(profile, k)
        payload["k"] = k
        payload["cones"] = {
            "eff": cone_to_json(dd_convert(eff)),
            "nef": cone_to_json(dd_convert(nef)),
            "mov": cone_to_json(dd_convert(mov)),
        }
        payload["coincidence"] = {
            "mov_eq_eff": mov_eq_eff,
            "nef_eq_eff": nef_eq_eff,
        }
        if args.klass:
            alpha = parse_vector_text(args.klass, class_basis(profile, k), 2)
            payload["decomposition"] = zariski_decompose(profile, k, alpha).to_json()
    elif args.klass:
        raise InputError("--class requires --k")
    return payload


def _bck_payload(args) -> dict:
    from .negdef import brute_force, decompose

    basis = gram_from_json(read_json(args.gram))
    coeffs = tuple(
        parse_vector_text(args.klass, basis.basis_name, basis.rank).coords
        if basis.rank
        else ()
    )
    result = decompose(basis, coeffs)
    payload = result.to_json()
    if args.brute_force:
        oracle = brute_force(basis, coeffs)
        payload["brute_force_agrees"] = (
            oracle.negative.coords == result.negative.coords
        )
    return payload


def _ring_payload(args) -> dict:
    from . import fixtures
    from .rings import DualClass, RingElement
    from .ringexpr import evaluate

    fixture = fixtures.load(args.fixture)
    if fixture.ring is None:
        raise InputError(f"fixture {args.fixture!r} has no ring")
    names = dict(fixture.ring_elements)
    names.update(fixture.dual_classes)
    if args.ring_op == "eval":
        value = evaluate(args.expr, fixture.ring, names)
        return {"expr": args.expr, **_ring_value_json(fixture.ring, value)}
    if args.ring_op == "pair":
        a = evaluate(args.a, fixture.ring, names)
        b = evaluate(args.b, fixture.ring, names)
        if not isinstance(a, RingElement):
            raise InputError("the first pairing argument must be a ring element")
        if not isinstance(b, (RingElement, DualClass)):
            raise InputError("the second pairing argument must be a class")
        return {
            "a": args.a,
            "b": args.b,
            "value": rat_str(fixture.ring.pair(a, b)),
        }
    raise InputError(f"unknown ring operation {args.ring_op!r}")


def _ring_value_json(ring, value) -> dict:
    from .rings import DualClass, format_monomial

    if isinstance(value, Fraction):
        return {"kind": "scalar", "value": rat_str(value)}
    if isinstance(value, DualClass):
        layer = ring.dual_layers[value.degree]
        return {
            "kind": "dual-class",
            "degree": value.degree,
            "basis": list(layer.names),
            "coords": [rat_str(c) for c in value.coords],
        }
    payload = {
        "kind": "element",
        "degree": value.degree,
        "monomial_basis": [
            format_monomial(m, ring.generators) for m in ring.monomial_basis(value.degree)
        ],
        "coords": [rat_str(c) for c in value.coords()],
    }
    if value.degree == ring.top_degree and ring.top_values is not None:
        payload["top_value"] = rat_str(ring.top_value(value))
    return payload


def _fixture_payload(args) -> dict:
    from . import fixtures

    fixture = fixtures.load(args.name)
    payload = {
        "name": fixture.name,
        "description": fixture.description,
        "cones": sorted(fixture.cones),
        "geometries": sorted(fixture.geometries),
        "profiles": sorted(fixture.profiles),
        "claims": [c.id for c in fixture.claims],
    }
    if fixture.audit is not None:
        payload["audit"] = {
            "clean": fixture.audit.clean,
            "findings": [
                {"kind": f.kind, **f.detail} for f in fixture.audit.findings
            ],
        }
    if args.verify:
        report = fixtures.verify_claims(fixture)
        payload["verification"] = report.to_json()
        if not report.all_ok:
            raise DomainError(
                "fixture verification failed", verification=report.to_json()
            )
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclecones",
        description=(
            "Exact rational computations with cones of cycle classes: "
            "duality, membership, and Zariski-type decompositions."
        ),
    )
    parser.add_argument(
        "--meta",
        action="store_true",
        help="add a metadata block (timestamp) next to the payload",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cone = subparsers.add_parser("cone", help="cone conversion, duality, membership")
    cone_sub = cone.add_subparsers(dest="cone_op", required=True)
    for op in ("convert", "dual", "rays"):
        sub = cone_sub.add_parser(op)
        sub.add_argument("--input", required=True, help="cone JSON file, or - for stdin")
    sub = cone_sub.add_parser("contains")
    sub.add_argument("--input", required=True)
    sub.add_argument("--vector", required=True, help='coordinates, e.g. "1,1,0,1,2"')

    dec = subparsers.add_parser("decompose", help="positive/negative part over cone data")
    dec.add_argument("--geometry", required=True, help="geometry JSON file or fixture:id")
    dec.add_argument("--class", dest="klass", required=True)
    dec.add_argument("--objective", default=None)
    dec.add_argument("--plot-section", default=None, help="write an SVG cross-section")

    directed = subparsers.add_parser("directed", help="maximum-element report")
    directed.add_argument("--geometry", required=True)
    directed.add_argument("--class", dest="klass", required=True)

    pb = subparsers.add_parser("projbundle", help="slope-polygon cone model")
    pb.add_argument("--hn", required=True, help='profile "r:d,r:d,..."')
    pb.add_argument("--k", type=int, default=None)
    pb.add_argument("--class", dest="klass", default=None)

    bck = subparsers.add_parser("bck", help="pairing-matrix decomposition")
    bck.add_argument("--gram", required=True, help="pairing JSON file")
    bck.add_argument("--class", dest="klass", required=True)
    bck.add_argument("--brute-force", action="store_true")

    ring = subparsers.add_parser("ring", help="intersection ring evaluation")
    ring_sub = ring.add_subparsers(dest="ring_op", required=True)
    sub = ring_sub.add_parser("eval")
    sub.add_argument("--fixture", required=True)
    sub.add_argument("--expr", required=True)
    sub = ring_sub.add_parser("pair")
    sub.add_argument("--fixture", required=True)
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)

    fx = subparsers.add_parser("fixture", help="load and verify embedded geometries")
    fx.add_argument("name", help="packaged fixture name or fixture .json file")
    fx.add_argument("--verify", action="store_true")

    return parser


_HANDLERS = {
    "cone": _cone_payload,
    "decompose": _decompose_payload,
    "directed": _directed_payload,
    "projbundle": _projbundle_payload,
    "bck": _bck_payload,
    "ring": _ring_payload,
    "fixture": _fixture_payload,
}


def run(argv) -> tuple[dict, int]:
    """Execute one command; returns (result document, exit code)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 1
        status = "ok" if code == 0 else "input_error"
        return {"schema": SCHEMA, "status": status, "payload": {}}, code

    status = "ok"
    payload: dict = {}
    diagnostics: list[str] = []
    try:
        payload = _HANDLERS[args.command](args)
    except InputError as exc:
        status = "input_error"
        payload = {"error": exc.payload()}
        diagnostics.append(exc.message)
    except DomainError as exc:
        status = "domain_error"
        payload = {"error": exc.payload()}
        diagnostics.append(exc.message)
    except Exception as exc:  # a fault of the program: say where it happened
        import traceback

        status = "internal_error"
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        payload = {
            "error": {
                "message": f"{type(exc).__name__}: {exc}",
                "type": type(exc).__name__,
                "frame": f"{os.path.basename(frame.filename)}:{frame.lineno} "
                f"in {frame.name}",
            }
        }
        diagnostics.append(str(exc))

    document = {
        "schema": SCHEMA,
        "status": status,
        "payload": payload,
        "diagnostics": diagnostics,
    }
    if getattr(args, "meta", False):
        import datetime

        document["meta"] = {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat()
        }
    return document, _EXIT_CODES[status]


def main(argv=None) -> int:
    document, code = run(sys.argv[1:] if argv is None else argv)
    try:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; stdout goes to devnull so the interpreter's
        # own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
