"""Static SVG 1.1 figures of packings.

Subcontainers are drawn as light gray rounded-triangle paths, circles in dark
gray, the container as an outline. The output contains exactly one <circle>
element per placement and one <path> element per subcontainer.
"""

import numpy as np

from .geometry import Square
from .packer import Packing

_SUBCONTAINER_FILL = "#d4d4d4"
_SUBCONTAINER_STROKE = "#a0a0a0"
_CIRCLE_FILL = "#696969"
_WIDTH = 640.0

# Numbers below this share of the figure's extent print as 0, so that
# rounding noise in the geometry (-1.7e-18 for 0) does not reach the text.
_ZERO_REL = 1e-12
_TINY = np.finfo(float).tiny

_CIRCLE = f'<circle cx="%.10g" cy="%.10g" r="%.10g" fill="{_CIRCLE_FILL}"/>'
_SHARP = "M %.10g %.10g L %.10g %.10g L %.10g %.10g Z"
_ARC = "%.10g %.10g A %.10g %.10g 0 0 1 %.10g %.10g"
_ROUNDED = f"M {_ARC} L {_ARC} L {_ARC} Z"
# a fully rounded hat is its incircle, drawn as two half arcs
_FULL = "M %.10g %.10g A %.10g %.10g 0 1 1 %.10g %.10g A %.10g %.10g 0 1 1 %.10g %.10g Z"


def _rows(values: np.ndarray, zero: float):
    """The rows of ``values`` as tuples, with entries below ``zero`` in magnitude set to 0."""
    flat = iter(np.where(np.abs(values) < zero, 0.0, values).ravel().tolist())
    return zip(*[flat] * values.shape[1])


def _hat_paths(tris: np.ndarray, rounding: np.ndarray, zero: float) -> list[str]:
    """SVG path data for triangles (m, 3, 2) with corners rounded to the given radii."""
    doubled = (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1]) - (
        tris[:, 1, 1] - tris[:, 0, 1]) * (tris[:, 2, 0] - tris[:, 0, 0])
    tris = np.where((doubled < 0.0)[:, None, None], tris[:, [0, 2, 1]], tris)  # counterclockwise
    edges = np.roll(tris, -1, axis=1) - tris  # edge i runs from vertex i to vertex i + 1
    # a zero-area hat is drawn sharp; the floor only keeps its numbers finite
    lengths = np.maximum(np.hypot(edges[..., 0], edges[..., 1]), _TINY)
    perimeter = lengths.sum(axis=1)
    # the corners of the triangle shrunk inward by s are its homothety about
    # the incenter with ratio (inradius - s) / inradius
    incenter = (np.roll(lengths, -1, axis=1)[..., None] * tris).sum(axis=1) / perimeter[:, None]
    inradius = np.maximum(np.abs(doubled) / perimeter, _TINY)
    s = np.minimum(rounding, inradius)[:, None, None]
    k = (inradius[:, None, None] - s) / inradius[:, None, None]
    corners = incenter[:, None, :] + k * (tris - incenter[:, None, :])
    normals = np.stack((edges[..., 1], -edges[..., 0]), axis=-1) / lengths[..., None]  # outward
    radii = np.broadcast_to(s, (len(s), 3, 2))
    arcs = np.concatenate((corners + s * np.roll(normals, 1, axis=1), radii, corners + s * normals), axis=2)
    ix, iy, r = incenter[:, 0], incenter[:, 1], s[:, 0, 0]
    full = np.stack((ix + r, iy, r, r, ix - r, iy, r, r, ix + r, iy), axis=1)
    kinds = np.where(r <= 0.0, 0, np.where(k[:, 0, 0] * lengths.max(axis=1) < 1e-12 * r, 2, 1))
    templates = (_SHARP, _ROUNDED, _FULL)
    rows = [_rows(args[kinds == kind], zero)
            for kind, args in enumerate((tris.reshape(-1, 6), arcs.reshape(-1, 18), full))]
    return [templates[kind] % next(rows[kind]) for kind in kinds.tolist()]


def render_packing_svg(packing: Packing) -> str:
    """Render a packing record as a standalone SVG figure."""
    container = packing.container
    if isinstance(container, Square):
        min_x = min_y = 0.0
        max_x = max_y = container.side
    else:
        xs = [p.x for p in container.vertices]
        ys = [p.y for p in container.vertices]
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
    extent = max(max_x - min_x, max_y - min_y)
    zero = _ZERO_REL * extent

    def fmt(x: float) -> str:
        return "0" if abs(x) < zero else f"{x:.10g}"

    pad = 0.04 * extent
    vb_x, vb_y = min_x - pad, min_y - pad
    vb_w, vb_h = (max_x - min_x) + 2 * pad, (max_y - min_y) + 2 * pad
    stroke = extent / 300.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(_WIDTH)}" height="{fmt(_WIDTH * vb_h / vb_w)}" '
        f'viewBox="{fmt(vb_x)} {fmt(vb_y)} {fmt(vb_w)} {fmt(vb_h)}">',
        # flip to the usual y-up orientation
        f'<g transform="matrix(1 0 0 -1 0 {fmt(vb_y + vb_y + vb_h)})">',
    ]
    if isinstance(container, Square):
        lines.append(
            f'<rect x="0" y="0" width="{fmt(container.side)}" height="{fmt(container.side)}" '
            f'fill="none" stroke="black" stroke-width="{fmt(stroke)}"/>'
        )
    else:
        pts = " ".join(f"{fmt(p.x)},{fmt(p.y)}" for p in container.vertices)
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="black" stroke-width="{fmt(stroke)}"/>'
        )
    # shallow hats first, so that deeper ones are drawn on top
    order = np.argsort(np.asarray(packing.hat_depth), kind="stable")
    tris = np.asarray(packing.hat_vertices, dtype=float).reshape(-1, 3, 2)[order]
    paths = _hat_paths(tris, np.asarray(packing.hat_rounding, dtype=float)[order], zero)
    hat_style = (f'fill="{_SUBCONTAINER_FILL}" stroke="{_SUBCONTAINER_STROKE}" '
                 f'stroke-width="{fmt(stroke / 2)}"')
    lines += [f'<path d="{path}" {hat_style}/>' for path in paths]
    circles = np.column_stack([np.asarray(c, dtype=float) for c in (packing.x, packing.y, packing.radius)])
    lines += [_CIRCLE % row for row in _rows(circles, zero)]
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines)
