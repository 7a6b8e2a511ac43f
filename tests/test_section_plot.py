from fractions import Fraction

from cyclecones import fixtures, section_plot, zariski
from cyclecones.cones import PolyCone
from cyclecones.linalg import combine
from cyclecones.vectors import ClassVector

from conftest import comparator_order_polygon


def _convex_position(points):
    """The vertices of the convex hull of ``points``, in no particular
    order: a monotone chain that drops every collinear point."""
    points = sorted(set(points))

    def chain(seq):
        hull = []
        for p in seq:
            while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
            ) <= 0:
                hull.pop()
            hull.append(p)
        return hull[:-1]

    return chain(points) + chain(points[::-1]) if len(points) > 2 else points


def test_order_polygon_matches_the_comparator_on_convex_point_sets(rng):
    # seeded convex polygons of 1 to 12 vertices with Fraction coordinates,
    # each in a shuffled order
    sizes = set()
    for _ in range(400):
        raw = [(Fraction(rng.randint(-30, 30), rng.randint(1, 4)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 4)))
               for _ in range(rng.randint(1, 16))]
        points = _convex_position(raw)
        rng.shuffle(points)
        assert section_plot._order_polygon(points) == comparator_order_polygon(points)
        sizes.add(min(len(points), 5))
    assert sizes == {1, 2, 3, 4, 5}


def test_order_polygon_matches_the_comparator_on_section_polygons(rng, monkeypatch):
    # every polygon render_section orders: p2-hilb2:surfaces classes, and
    # seeded geometries with 3 to 7 effective and 1 to 5 movable rays
    order, polygons = section_plot._order_polygon, []

    def checked(points):
        ordered = order(points)
        assert ordered == comparator_order_polygon(points)
        polygons.append(len(points))
        return ordered

    monkeypatch.setattr(section_plot, "_order_polygon", checked)
    cases = []
    g = fixtures.load("p2-hilb2").geometry("surfaces")
    for _ in range(20):
        coeffs = [rng.randint(0, 5) for _ in g.eff.generators]
        cases.append((g, combine(coeffs, g.eff.generator_rows(), 3)))
    while len(cases) < 150:
        eff = [tuple(rng.randint(1, 9) for _ in range(3)) for _ in range(rng.randint(3, 7))]
        mov = [combine([rng.randint(0, 3) for _ in eff], eff, 3)
               for _ in range(rng.randint(1, 5))]
        g = zariski.cone_geometry(
            "section", PolyCone.from_generators("sec3", mov),
            PolyCone.from_generators("sec3", eff), ClassVector("sec3*", (1, 1, 1)))
        if len(g.eff.generators) >= 3:
            cases.append((g, combine([rng.randint(0, 4) for _ in eff], eff, 3)))
    for g, alpha in cases:
        alpha = ClassVector(g.basis, alpha)
        assert section_plot.render_section(g, zariski.decompose(g, alpha)).startswith("<svg")
    assert len(polygons) == 2 * len(cases)
    assert {min(n, 6) for n in polygons} == {1, 2, 3, 4, 5, 6}
