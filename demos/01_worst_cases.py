"""The tight worst cases: twincircles in a square, the incircle in a triangle.

A square can always take circles totalling pi/(3 + 2*sqrt(2)) ~ 53.90% of its
area, and no more: two equal circles just past that bound cannot both fit.
A right or obtuse triangle can always take its incircle area. This script
packs both extreme instances and shows that the verifier sees exact tangency
(slack ~ 1e-16).

Run:  python demos/01_worst_cases.py
"""

import math
import pathlib

from splitpack import (
    PHI_SQUARE,
    CircleSet,
    PackRequest,
    Square,
    Triangle,
    critical_density,
    pack,
    render_packing_svg,
    verify,
)

OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)


def save(packing, name):
    path = OUT / name
    path.write_text(render_packing_svg(packing))
    print(f"  figure written to {path}")


print(f"critical density of any square: {PHI_SQUARE:.6f} (~53.90%)")

square = Square(1.0)
areas = [PHI_SQUARE / 2.0, PHI_SQUARE / 2.0]
packing = pack(PackRequest(square, CircleSet.from_areas(areas)))
report = verify(packing, expected_areas=areas)
print(f"packed the worst case: {report.summary()}")
print(f"  the twincircles, radius side / (2 + sqrt 2) = {square.side / (2.0 + math.sqrt(2.0)):.6f}:")
for leaf in packing.circle_leaves():
    print(f"  circle {leaf.input_index}: center {leaf.shape.center}, r = {leaf.shape.radius:.6f}")
save(packing, "01_square_worst_case.svg")

print()
triangle = Triangle.from_sides(3.0, 4.0, 5.0)
print(f"critical density of the (3,4,5) triangle: {critical_density(triangle):.6f} (= pi/6)")
packing = pack(PackRequest(triangle, CircleSet.from_areas([math.pi])))
report = verify(packing)
print(f"packed the incircle itself: {report.summary()}")
save(packing, "01_triangle_worst_case.svg")

# any larger area is witnessed unpackable by two equal circles
epsilon = 1.001
try:
    pack(PackRequest(square, CircleSet.from_areas([a * epsilon for a in areas])))
except Exception as exc:
    print(f"\n0.1% past the bound is rejected: {exc}")
