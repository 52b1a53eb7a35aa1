"""Output checks that share no code with splitpack.

``circle_problem`` certifies containment in a convex polygon and pairwise
disjointness with an O(n log n) neighbour search (scipy's cKDTree), so it can
check packings far too large for the package's all-pairs verifier.
``tamper`` builds the negative control: one circle moved onto its nearest
neighbour, which every checker must reject.
"""

import json
import math
import os

import numpy as np
from scipy.spatial import cKDTree

# Allowed overlap or protrusion, as a share of the container's diameter. The
# packer's observed worst slack is about 6e-16 of the diameter.
REL_TOLERANCE = 1e-12

# The negative control keeps at most this many circles, so that the
# package's all-pairs verifier stays cheap on every workload.
CONTROL_CIRCLES = 1000


def container_polygon(container: dict) -> np.ndarray:
    """Counterclockwise vertices of a packing document's container."""
    if container["type"] == "square":
        s = float(container["side"])
        poly = np.array([[0.0, 0.0], [s, 0.0], [s, s], [0.0, s]])
    else:
        poly = np.array(container["vertices"], dtype=float)
    x, y = poly[:, 0], poly[:, 1]
    if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0.0:
        poly = poly[::-1].copy()
    return poly


def circle_problem(poly: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """None if every circle lies in the polygon and no two overlap, else why not."""
    edges = np.roll(poly, -1, axis=0) - poly
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    tol = REL_TOLERANCE * float(np.max(np.hypot(*(poly[:, None, :] - poly[None, :, :]).T)))
    if len(radii) == 0:
        return None
    if not (np.all(np.isfinite(centers)) and np.all(radii > 0.0)):
        return "non-finite centre or non-positive radius"
    # inward distance of each centre to each edge line (positive inside)
    rel = centers[:, None, :] - poly[None, :, :]
    inward = (edges[None, :, 0] * rel[..., 1] - edges[None, :, 1] * rel[..., 0]) / lengths
    protrusion = radii - inward.min(axis=1)
    worst = int(np.argmax(protrusion))
    if protrusion[worst] > tol:
        return f"circle {worst} sticks out of the container by {protrusion[worst]:.3e}"
    pairs = cKDTree(centers).query_pairs(2.0 * float(radii.max()), output_type="ndarray")
    if len(pairs):
        i, j = pairs[:, 0], pairs[:, 1]
        gap = np.hypot(*(centers[i] - centers[j]).T) - (radii[i] + radii[j])
        k = int(np.argmin(gap))
        if gap[k] < -tol:
            return f"circles {i[k]} and {j[k]} overlap by {-gap[k]:.3e}"
    return None


def document_problem(doc: dict):
    """``circle_problem`` applied to a packing document's placements."""
    placements = doc["placements"]
    centers = np.array([[p["x"], p["y"]] for p in placements], dtype=float).reshape(-1, 2)
    radii = np.array([p["radius"] for p in placements], dtype=float)
    return circle_problem(container_polygon(doc["container"]), centers, radii)


def tamper(doc: dict) -> tuple[dict, dict]:
    """(kept, tampered): the first CONTROL_CIRCLES placements as a packing
    document without subcontainers, and a copy with its largest circle moved
    onto the centre of its nearest neighbour."""
    placements = [dict(p) for p in doc["placements"][:CONTROL_CIRCLES]]
    if len(placements) < 2:
        raise ValueError("the negative control needs a packing with two circles")
    kept = {"container": doc["container"], "placements": placements, "subcontainers": []}
    centers = np.array([[p["x"], p["y"]] for p in placements])
    big = max(range(len(placements)), key=lambda k: placements[k]["radius"])
    dist = np.hypot(*(centers - centers[big]).T)
    dist[big] = math.inf
    near = int(np.argmin(dist))
    moved = [dict(p) for p in placements]
    moved[big]["x"], moved[big]["y"] = placements[near]["x"], placements[near]["y"]
    return kept, {**kept, "placements": moved}


def negative_control(sp, doc: dict, workdir: str) -> list[str]:
    """Problems found while checking that every checker accepts a valid
    packing and rejects the tampered copy; empty when all behave.

    ``splitpack verify`` must exit 0 on the valid packing and 1 on the
    tampered one."""
    kept, moved = tamper(doc)
    problems = []
    for label, candidate, should_pass in (("valid", kept, True), ("tampered", moved, False)):
        path = os.path.join(workdir, f"control-{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(candidate, fh)
        root = sp.documents.PackingDocument.from_dict(candidate).to_tree()
        if sp.verifier.verify(root).passed != should_pass:
            problems.append(f"splitpack.verify misjudged the {label} control packing")
        if (document_problem(candidate) is None) != should_pass:
            problems.append(f"the neighbour check misjudged the {label} control packing")
        code = sp.cli.main(["verify", path, "--out", os.path.join(workdir, "control.txt")])
        if code != (0 if should_pass else 1):
            problems.append(f"splitpack verify exited {code} on the {label} control packing")
    return problems
