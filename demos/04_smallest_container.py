"""Approximating the smallest container for a given circle set.

Since any feasible container must have at least the circles' combined area,
returning the smallest container whose guaranteed-packable area equals that
sum gives a constant-factor approximation: the area ratio against the true
optimum is at most 1/density, i.e. (3 + 2*sqrt(2))/pi ~ 1.8552 for squares
and 6/pi ~ 1.9099 for containers similar to the (3,4,5) triangle.

Run:  python demos/04_smallest_container.py
"""

import math
import pathlib

import numpy as np

from splitpack import (
    CircleSet,
    PackRequest,
    Triangle,
    min_container,
    pack,
    render_packing_svg,
    verify,
)

OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

SQRT2 = math.sqrt(2.0)

print("one unit circle into the smallest guaranteed square")
circles = CircleSet.from_areas([math.pi])
container = min_container(circles, "square")
print(f"  side {container.side:.6f} (= 1 + sqrt 2), area {container.area:.6f}")
print(f"  guaranteed bound:   area/sum <= {(3 + 2 * SQRT2) / math.pi:.4f}")
print(f"  realized vs optimum: {container.area / 4.0:.4f}  (the best square has side 2)")
packing = pack(PackRequest(container, circles))
(OUT / "04_single_circle.svg").write_text(render_packing_svg(packing))

print()
print("a random 30-circle set, square and triangular families")
rng = np.random.default_rng(11)
areas = list(rng.random(30) * 2.0 + 0.05)
circles = CircleSet.from_areas(areas)
for name, family in (("square", "square"), ("(3,4,5)-similar", Triangle.from_sides(3, 4, 5))):
    container = min_container(circles, family)
    packing = pack(PackRequest(container, circles))
    report = verify(packing, expected_areas=areas)
    ratio = container.area / math.fsum(areas)  # the exactly rounded total the container is sized by
    print(f"  {name:<16} area {container.area:8.3f}  area/sum {ratio:.4f}  -> {report.summary()}")
    path = OUT / f"04_min_{name.split('-')[0].strip('()').replace(',', '')}.svg"
    path.write_text(render_packing_svg(packing))
    print(f"    figure written to {path}")
