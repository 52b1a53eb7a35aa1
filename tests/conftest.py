"""Shared helpers for the test suite."""

import math

import numpy as np

from splitpack import PackingDocument, Square, Triangle, packable_area


def triangle_from_angles(alpha: float, apex: float, scale: float = 1.0) -> Triangle:
    """Triangle with base (0,0)-(scale,0), left base angle alpha, apex angle apex."""
    beta = math.pi - apex - alpha
    if min(alpha, beta, apex) <= 0:
        raise ValueError("angles must be positive and sum to pi")
    x = math.tan(beta) / (math.tan(alpha) + math.tan(beta))
    tri = Triangle(((0.0, 0.0), (1.0, 0.0), (x, x * math.tan(alpha))))
    return tri if scale == 1.0 else tri.scaled_about((0.0, 0.0), scale)


def random_non_acute_triangle(rng: np.random.Generator, right: bool = False) -> Triangle:
    """Random right (apex exactly pi/2) or strictly obtuse canonical triangle."""
    apex = math.pi / 2 if right else float(rng.uniform(math.pi / 2 + 1e-6, math.pi * 0.95))
    alpha = float(rng.uniform(0.05, math.pi - apex - 0.05))
    scale = float(rng.uniform(0.4, 3.0))
    return triangle_from_angles(alpha, apex, scale)


def random_container(rng: np.random.Generator):
    if rng.random() < 0.3:
        return Square(float(rng.uniform(0.4, 3.0)))
    return random_non_acute_triangle(rng, right=bool(rng.random() < 0.3))


def random_areas(rng: np.random.Generator, n: int, total: float) -> list[float]:
    weights = rng.random(n) + 1e-9
    return list(weights * (total / weights.sum()))


def random_feasible_instance(rng: np.random.Generator, container, max_n: int = 200):
    """Random circle set with combined area uniform in (0, packable]."""
    n = int(rng.integers(1, max_n + 1))
    capacity = packable_area(container)
    fraction = float(rng.uniform(0.0, 1.0))
    total = capacity if fraction == 0.0 or rng.random() < 0.1 else fraction * capacity
    return random_areas(rng, n, total)


def parse_packing(container: dict, placements=(), subcontainers=()):
    """A packing record built by hand, as the document it would be parsed from."""
    doc = {"container": container, "placements": list(placements),
           "subcontainers": list(subcontainers)}
    return PackingDocument.from_dict(doc).to_tree()


def placement(x: float, y: float, radius: float, input_index: int) -> dict:
    return {"x": x, "y": y, "radius": radius, "input_index": input_index}


def subcontainer(triangle: Triangle, rounding: float, depth: int) -> dict:
    return {"vertices": [list(p) for p in triangle.vertices], "rounding_radius": rounding,
            "depth": depth}


def report_outcome(report) -> tuple:
    """What two reports on the same tree agree on: verdict, count, worst slack, failures."""
    return report.passed, report.check_count, report.worst_slack, report.failures


def child_hats(packing, parent: int) -> list[int]:
    """Record indices of the hats whose parent is ``parent`` (-1: the container):
    in preorder, the hats one level below it up to the next hat at or above its level."""
    depths = packing.hat_depth
    level = depths[parent] if parent >= 0 else 0
    kids = []
    for h in range(parent + 1, len(depths)):
        if depths[h] <= level:
            break
        if depths[h] == level + 1:
            kids.append(h)
    return kids
