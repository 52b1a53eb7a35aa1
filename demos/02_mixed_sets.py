"""How the recursion subdivides: mixed circle sets and self-similar halving.

Pack a mixed 24-circle set at full capacity into a square and look at the
subdivision tree. Then pack 16 equal circles whose total is exactly the
critical area: every subcontainer is a half of its parent, unscaled, so a hat
at depth d has area 2**-d, reproducing the self-similar subdivision that
motivates the split-in-half strategy.

Run:  python demos/02_mixed_sets.py
"""

import pathlib

import numpy as np

from splitpack import (
    PHI_SQUARE,
    CircleSet,
    PackRequest,
    PackStats,
    Square,
    pack,
    render_packing_svg,
    verify,
)

OUT = pathlib.Path("demo_output")
OUT.mkdir(exist_ok=True)

square = Square(1.0)

rng = np.random.default_rng(2024)
weights = rng.random(24) ** 2 + 0.05  # a few large, many small
areas = list(weights * (PHI_SQUARE / weights.sum()))

stats = PackStats()
packing = pack(PackRequest(square, CircleSet.from_areas(areas)), stats)
report = verify(packing, expected_areas=areas)
print("mixed 24-circle set at 100% of the packable area")
print(f"  {report.summary()}")
print(f"  subcontainers: {stats.hat_count} (bound 2n-2 = {2 * len(areas) - 2})")
print(f"  splits: {stats.split_calls}, element moves: {stats.element_moves}, "
      f"depth: {stats.max_depth}")
roundings = packing.hat_rounding
print(f"  rounded subcontainers: {sum(1 for s in roundings if s > 0)} of {len(roundings)}")
(OUT / "02_mixed_set.svg").write_text(render_packing_svg(packing))
print(f"  figure written to {OUT / '02_mixed_set.svg'}")

print()
print("16 equal circles summing exactly to the packable area")
areas = [PHI_SQUARE / 16.0] * 16
packing = pack(PackRequest(square, CircleSet.from_areas(areas)))
print(f"  {verify(packing, expected_areas=areas).summary()}")
v = np.asarray(packing.hat_vertices).reshape(-1, 6)
hat_areas = ((v[:, 2] - v[:, 0]) * (v[:, 5] - v[:, 1]) - (v[:, 4] - v[:, 0]) * (v[:, 3] - v[:, 1])) / 2
scaled = sorted(set(np.round(hat_areas * 2.0 ** np.asarray(packing.hat_depth), 12).tolist()))
print(f"  hat area times 2**depth: {scaled}  (self-similar halving)")
(OUT / "02_power_of_two.svg").write_text(render_packing_svg(packing))
print(f"  figure written to {OUT / '02_power_of_two.svg'}")
