"""The independent verifier: certifying packings, catching broken ones.

The verifier never reuses the packer's placement formulas. It checks circle
pairs, containment in the container, each subcontainer against its
parent via the three corner disks (exact, because a hat is the convex hull of
its corner disks), and sibling disjointness via eroded-triangle distances.
Slack is signed: a tangent configuration reports ~0, a violation < 0.

Run:  python demos/05_verification.py
"""

import numpy as np

from splitpack import (
    PHI_SQUARE,
    CircleSet,
    PackRequest,
    Square,
    pack,
    verify,
)

square = Square(1.0)
rng = np.random.default_rng(5)
weights = rng.random(12) + 0.1
areas = list(weights * (0.97 * PHI_SQUARE / weights.sum()))
packing = pack(PackRequest(square, CircleSet.from_areas(areas)))

report = verify(packing, expected_areas=areas)
print("fresh packing:")
print(f"  {report.summary()}")
by_kind = {}
for check in report.checks:
    by_kind.setdefault(check.kind.value, []).append(check.slack)
for kind, slacks in sorted(by_kind.items()):
    print(f"  {kind:<22} {len(slacks):>4} checks, tightest slack {min(slacks):.3e}")

print()
print("now nudge one circle onto its neighbour...")
k = 1  # the circle of input index 1 (the record keeps circles in input order)
x, r = packing.x[k], packing.radius[k]
packing.x[k] = x + 0.02
report = verify(packing, expected_areas=areas)
print(f"  {report.summary()}")

print()
print("...and inflate a radius past the container instead")
packing.x[k], packing.radius[k] = x, r * 1.5
report = verify(packing, expected_areas=areas)
print(f"  {report.summary()}")
