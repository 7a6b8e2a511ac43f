"""Static SVG cross-sections of three-dimensional cone geometries.

The picture is the affine slice where the degree functional equals one:
the effective cone cuts a polygon, the movable cone a subpolygon, and a
decomposition contributes labelled points.  All geometry is computed in
exact arithmetic; rounding happens only when coordinates are printed into
the SVG text.
"""

from __future__ import annotations

from fractions import Fraction

from .decomposition import Decomposition
from .errors import InputError
from .linalg import dot, solve_unique
from .vectors import ClassVector
from .zariski import ConeGeometry

_SIZE = 420
_MARGIN = 40


def _fmt(x: Fraction) -> str:
    """Fixed-point decimal with four places, computed without floats."""
    scaled = round(x * 10_000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10_000}.{scaled % 10_000:04d}"


def _normalize(v: ClassVector, objective: ClassVector) -> tuple[Fraction, ...]:
    value = dot(objective.coords, v.coords)
    if value <= 0:
        raise InputError("cannot normalize a class with nonpositive degree")
    return tuple(Fraction(c, value) for c in v.coords)


def _chart(points_3d, frame):
    """Coordinates of slice points in the affine frame (p0; u, v)."""
    p0, u, v = frame
    chart = []
    for p in points_3d:
        rhs = [p[i] - p0[i] for i in range(3)]
        matrix = [[u[i], v[i]] for i in range(3)]
        solution = solve_unique(matrix, rhs)
        if solution is None:
            raise InputError("cross-section point outside the slice plane")
        chart.append(solution)
    return chart


def _order_polygon(points):
    """Order 2D points counterclockwise around their centroid, exactly.

    The key is the half-plane (dy > 0, or dy = 0 < dx, first), then the
    L1 pseudo-angle dx / (|dx| + |dy|), decreasing in the first half and
    increasing in the second; points on one ray keep their order.  The
    points are the vertices of a convex polygon, so none is its centroid
    and the key is always defined.
    """
    if len(points) <= 2:
        return list(points)
    cx = sum((p[0] for p in points), Fraction(0)) / len(points)
    cy = sum((p[1] for p in points), Fraction(0)) / len(points)

    def key(p):
        dx, dy = p[0] - cx, p[1] - cy
        turn = dx / (abs(dx) + abs(dy))
        return (0, -turn) if dy > 0 or (dy == 0 and dx > 0) else (1, turn)

    return sorted(points, key=key)


def render_section(g: ConeGeometry, decomposition: Decomposition) -> str:
    """SVG text for the degree-one cross-section of a 3D geometry."""
    if g.dim != 3:
        raise InputError(
            "cross-section plots are only available for three-dimensional "
            f"class spaces (geometry has dimension {g.dim})"
        )
    objective = g.degree_functional
    if objective is None:
        raise InputError("cross-section plots need a degree functional")

    eff_pts = [_normalize(r, objective) for r in g.eff.generators]
    mov_pts = [_normalize(r, objective) for r in g.mov.generators]
    if len(eff_pts) < 3:
        raise InputError("effective cone section is degenerate")
    p0, p1, p2 = eff_pts[0], eff_pts[1], eff_pts[2]
    frame = (
        p0,
        tuple(p1[i] - p0[i] for i in range(3)),
        tuple(p2[i] - p0[i] for i in range(3)),
    )

    eff_chart = _order_polygon(_chart(eff_pts, frame))
    mov_chart = _order_polygon(_chart(mov_pts, frame))
    marks = []
    for label, v in (
        ("input", decomposition.input),
        ("P", decomposition.positive),
        ("N", decomposition.negative),
    ):
        if not v.is_zero():  # the zero class has no point on the slice
            marks.append((label, _chart([_normalize(v, objective)], frame)[0]))

    everything = eff_chart + mov_chart + [p for _, p in marks]
    xs = [p[0] for p in everything]
    ys = [p[1] for p in everything]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, Fraction(1, 100))
    scale = Fraction(_SIZE - 2 * _MARGIN) / span

    def place(p):
        x = _MARGIN + (p[0] - min_x) * scale
        y = _SIZE - _MARGIN - (p[1] - min_y) * scale
        return _fmt(x), _fmt(y)

    def polygon(points, style):
        body = " ".join(",".join(place(p)) for p in points)
        return f'<polygon points="{body}" {style} />'

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white" />',
        polygon(
            eff_chart,
            'fill="#f3e9d7" stroke="#8a6d3b" stroke-width="1.5"',
        ),
        polygon(
            mov_chart,
            'fill="#d7e7f3" stroke="#31708f" stroke-width="1.5"',
        ),
    ]
    for label, p in marks:
        x, y = place(p)
        lines.append(
            f'<circle cx="{x}" cy="{y}" r="4" fill="#a94442" />'
        )
        lines.append(
            f'<text x="{x}" y="{y}" dx="7" dy="-5" font-size="13" '
            f'font-family="sans-serif" fill="#a94442">{label}</text>'
        )
    lines.append(
        f'<text x="{_MARGIN}" y="{_SIZE - 12}" font-size="12" '
        f'font-family="sans-serif" fill="#555">degree-one cross-section: '
        f"effective (outer), movable (inner)</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
