"""cyclecones: exact rational cones of cycle classes and their decompositions.

The package computes with polyhedral cones of numerical cycle classes in
exact rational arithmetic: generator/inequality conversion and duality,
membership with certificates, bounded-polytope vertex enumeration and
linear optimization, graded intersection rings given by rewrite
presentations, the slope-polygon cone model for projective bundles over
curves, surface-style decompositions over a pairing matrix, and a general
positive/negative-part engine with directedness certificates.  Embedded,
audited fixtures reproduce the motivating example geometries.
"""

from .cones import PolyCone, contains, dd_convert, dual_cone, extremal_rays, is_salient
from .decomposition import Certificate, Decomposition
from .errors import CycleConesError, DomainError, InputError
from .negdef import PairingBasis, brute_force, is_negative_definite
from .polytope import RationalPolytope, maximize_linear, vertex_enumeration
from .projbundle import HNProfile
from .rings import RingPresentation, consistency_audit
from .vectors import ClassVector
from .zariski import (
    ConeGeometry,
    DirectednessReport,
    cone_geometry,
    decompose,
    decomposition_polytope,
    negative_boundary_check,
    preceq_maximum,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ClassVector",
    "ConeGeometry",
    "CycleConesError",
    "Decomposition",
    "DirectednessReport",
    "DomainError",
    "HNProfile",
    "InputError",
    "PairingBasis",
    "PolyCone",
    "RationalPolytope",
    "RingPresentation",
    "brute_force",
    "cone_geometry",
    "consistency_audit",
    "contains",
    "dd_convert",
    "decompose",
    "decomposition_polytope",
    "dual_cone",
    "extremal_rays",
    "is_negative_definite",
    "is_salient",
    "maximize_linear",
    "negative_boundary_check",
    "preceq_maximum",
    "vertex_enumeration",
]
