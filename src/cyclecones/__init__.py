"""cyclecones: exact rational cones of cycle classes and their decompositions.

The package computes with polyhedral cones of numerical cycle classes in
exact rational arithmetic: generator/inequality conversion and duality,
membership with certificates, bounded-polytope vertex enumeration and
linear optimization, graded intersection rings given by rewrite
presentations, the slope-polygon cone model for projective bundles over
curves, surface-style decompositions over a pairing matrix, and a general
positive/negative-part engine with directedness certificates.  Embedded,
audited fixtures reproduce the motivating example geometries.

Importing the package loads none of its modules: each public name below
is looked up in its home module on first use (PEP 562), so a command
pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# names of the packaged fixtures, which ``fixtures.load`` takes besides a
# path ending in .json; here so they import without the fixture loader
FIXTURE_NAMES = ("toric-3fold", "p2-hilb2", "m07-s7", "projbundle-sample")

_HOMES = {
    "cones": ("PolyCone", "contains", "dd_convert", "dual_cone", "extremal_rays", "is_salient"),
    "decomposition": ("Certificate", "Decomposition"),
    "errors": ("CycleConesError", "DomainError", "InputError"),
    "negdef": ("PairingBasis", "brute_force", "is_negative_definite"),
    "polytope": ("RationalPolytope", "maximize_linear", "vertex_enumeration"),
    "projbundle": ("HNProfile",),
    "rings": ("RingPresentation", "consistency_audit"),
    "vectors": ("ClassVector",),
    "zariski": (
        "ConeGeometry",
        "DirectednessReport",
        "cone_geometry",
        "decompose",
        "decomposition_polytope",
        "negative_boundary_check",
        "preceq_maximum",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    # not cached in globals(): the home module's current attribute is returned
    # on every access, so a function replaced there is replaced here too
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
