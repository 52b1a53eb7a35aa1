"""Asymmetric containers: packing obtuse triangles at their critical density.

For a non-acute triangle with sides x, y, z the guaranteed-packable fraction
is pi * sqrt((x+y-z)(z+x-y)(y+z-x) / (x+y+z)^3) — the incircle-to-area ratio.
The weighted split targets the incircle areas of the two altitude halves, so
unequal triangles get unequal groups. This script tabulates densities and
packs a random full-capacity set into each shape.

Run:  python demos/03_obtuse_triangles.py
"""

import math
import pathlib

import numpy as np

from splitpack import (
    CircleSet,
    PackRequest,
    Triangle,
    critical_density,
    pack,
    packable_area,
    render_packing_svg,
    verify,
)
from splitpack.geometry import shape_table

OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

shapes = [
    ("right isosceles", Triangle.from_sides(1.0, 1.0, math.sqrt(2.0))),
    ("(3, 4, 5)", Triangle.from_sides(3.0, 4.0, 5.0)),
    ("mildly obtuse", Triangle.from_sides(2.0, 2.6, 4.0)),
    ("very obtuse", Triangle.from_sides(1.3, 2.0, 3.2)),
]

print(f"{'shape':<16} {'density':>9} {'split key ratio':>16}")
for name, tri in shapes:
    # the key is the halves' incircle areas, so its ratio is their inradii's, squared
    _r_in, (entry, *_) = shape_table(*tri.base_split)
    print(f"{name:<16} {critical_density(tri):>9.4f} {(entry[1] / entry[2]) ** 2:>16.4f}")

rng = np.random.default_rng(7)
print()
for i, (name, tri) in enumerate(shapes):
    n = int(rng.integers(15, 40))
    weights = rng.random(n) + 0.02
    areas = list(weights * (packable_area(tri) / weights.sum()))
    packing = pack(PackRequest(tri, CircleSet.from_areas(areas)))
    report = verify(packing, expected_areas=areas)
    print(f"{name}: {n} circles at 100% capacity -> {report.summary()}")
    path = OUT / f"03_triangle_{i}.svg"
    path.write_text(render_packing_svg(packing))
    print(f"  figure written to {path}")
