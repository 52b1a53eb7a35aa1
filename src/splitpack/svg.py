"""Static SVG 1.1 figures of packings.

Subcontainers are drawn as light gray rounded-triangle paths, circles in dark
gray, the container as an outline. The output contains exactly one <circle>
element per placement and one <path> element per subcontainer.
"""

import numpy as np

from .geometry import Square
from .packer import Packing
from .verifier import _hat_shape

_SUBCONTAINER_FILL = "#d4d4d4"
_SUBCONTAINER_STROKE = "#a0a0a0"
_CIRCLE_FILL = "#696969"
_WIDTH = 640.0

# Numbers below this share of the figure's extent print as 0, so that
# rounding noise in the geometry (-1.7e-18 for 0) does not reach the text.
_ZERO_REL = 1e-12

# Hats and circles are turned into text _BLOCK at a time, so that no list
# spans every element or every number.
_BLOCK = 4096

_CIRCLE = f'<circle cx="%.10g" cy="%.10g" r="%.10g" fill="{_CIRCLE_FILL}"/>'
_SHARP = "M %.10g %.10g L %.10g %.10g L %.10g %.10g Z"
_ARC = "%.10g %.10g A {r} {r} 0 0 1 %.10g %.10g"
# a rounded hat's path, in the pieces that its radius's text joins
_ROUNDED = f"M {_ARC} L {_ARC} L {_ARC} Z".split("{r}")
_PREV = [2, 0, 1]


def _clamped(values: np.ndarray, zero: float) -> list[float]:
    """``values`` flattened to floats, with entries below ``zero`` in magnitude set to 0."""
    return np.where(np.abs(values) < zero, 0.0, values).ravel().tolist()


def _rows(values: np.ndarray, zero: float):
    """The rows of ``values`` as tuples, clamped as by :func:`_clamped`."""
    flat = iter(_clamped(values, zero))
    return zip(*[flat] * values.shape[1])


def _hat_paths(tris: np.ndarray, rounding: np.ndarray, zero: float) -> list[str]:
    """SVG path data for hats with corners (m, 3, 2) and the given rounding, as
    the verifier reads them: a hat of radius 0 is its triangle, any other its
    shrunk corners joined by arcs of its radius between the edges' normals."""
    table, corner_x, corner_y, radii = _hat_shape(tris[..., 0].T, tris[..., 1].T, rounding)
    rounded = radii > 0.0
    sharp = np.compress(~rounded, table[:2], axis=-1).T.reshape(-1, 6)
    _, _, ex, ey, length = np.compress(rounded, table, axis=-1)
    x, y, r = (np.compress(rounded, v, axis=-1) for v in (corner_x, corner_y, radii))
    nx, ny = ey / length, -ex / length  # outward; edge i runs from corner i to the next
    ends = np.stack(np.broadcast_arrays(x + r * nx[_PREV], y + r * ny[_PREV], x + r * nx, y + r * ny))
    sharp_rows, end_rows = _rows(sharp, zero), _rows(ends.T.reshape(-1, 12), zero)
    radius_texts = map("%.10g".__mod__, _clamped(r, zero))  # each radius is printed six times
    return [next(radius_texts).join(_ROUNDED) % next(end_rows) if is_rounded else _SHARP % next(sharp_rows)
            for is_rounded in rounded.tolist()]


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
    vertices = np.asarray(packing.hat_vertices, dtype=float).reshape(-1, 3, 2)
    rounding = np.asarray(packing.hat_rounding, dtype=float)
    hat_style = (f'fill="{_SUBCONTAINER_FILL}" stroke="{_SUBCONTAINER_STROKE}" '
                 f'stroke-width="{fmt(stroke / 2)}"')
    between_paths = f'" {hat_style}/>\n<path d="'  # closes one hat's element and opens the next
    for start in range(0, len(order), _BLOCK):
        block = order[start:start + _BLOCK]
        paths = _hat_paths(vertices[block], rounding[block], zero)
        lines.append(f'<path d="{between_paths.join(paths)}" {hat_style}/>')
    circles = np.column_stack([np.asarray(c, dtype=float) for c in (packing.x, packing.y, packing.radius)])
    for start in range(0, len(circles), _BLOCK):
        lines.append("\n".join([_CIRCLE % row for row in _rows(circles[start:start + _BLOCK], zero)]))
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines)
