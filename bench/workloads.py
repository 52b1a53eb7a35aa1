"""The benchmark's workloads: seeded inputs, the timed call, and its output check.

Each workload is built from a fresh splitpack import (``sp``, see run.py) and
a seed; building it is the set-up that ``setup_s`` times. ``instances`` is the
fixed list one pass runs. ``run`` is the timed call. ``check`` runs outside
the timed region, returns None or a problem, and feeds the placements of the
first pass into the digest. ``control_document`` is the packing that the
negative control tampers with.
"""

import json
import math
import os
import random
import struct
from typing import NamedTuple

import numpy as np

import checks

_RECORD = struct.Struct("<qddd")


def _digest_placements(digest, placements) -> None:
    """Feed (input_index, x, y, radius) records, ordered by input index."""
    for p in sorted(placements, key=lambda p: p[0]):
        digest.update(_RECORD.pack(*p))


def _document_records(doc: dict) -> list:
    return [(p["input_index"], p["x"], p["y"], p["radius"]) for p in doc["placements"]]


def _uniform_areas(rng: random.Random, n: int, total: float) -> list[float]:
    weights = [rng.random() + 1e-9 for _ in range(n)]
    scale = total / sum(weights)
    return [w * scale for w in weights]


def _triangle_from_angles(sp, alpha: float, apex: float, scale: float):
    """Triangle with base (0,0)-(scale,0), left base angle alpha, apex angle apex."""
    beta = math.pi - apex - alpha
    x = math.tan(beta) / (math.tan(alpha) + math.tan(beta))
    tri = sp.geometry.Triangle(((0.0, 0.0), (1.0, 0.0), (x, x * math.tan(alpha))))
    return tri.scaled_about((0.0, 0.0), scale)


def _random_non_acute_triangle(sp, rng: random.Random, right: bool):
    apex = math.pi / 2 if right else rng.uniform(math.pi / 2 + 1e-6, math.pi * 0.95)
    alpha = rng.uniform(0.05, math.pi - apex - 0.05)
    return _triangle_from_angles(sp, alpha, apex, rng.uniform(0.4, 3.0))


def _polygon(sp, container) -> np.ndarray:
    if isinstance(container, sp.geometry.Square):
        return checks.container_polygon({"type": "square", "side": container.side})
    return checks.container_polygon(
        {"type": "triangle", "vertices": [[p.x, p.y] for p in container.vertices]}
    )


class SmallInstance(NamedTuple):
    container_index: int
    areas: list
    circles: int


class CertifySmall:
    """Library pack + verify on many small instances, as in acceptance criterion 3."""

    name = "certify-small"
    count = 250  # instances per pass
    max_circles = 200
    triangles = 20

    def __init__(self, sp, seed: int, workdir: str):
        self.sp = sp
        rng = random.Random(seed)
        self.containers = [sp.geometry.Square(1.0)] + [
            _random_non_acute_triangle(sp, rng, right=(k % 2 == 0)) for k in range(self.triangles)
        ]
        self.polygons = [_polygon(sp, c) for c in self.containers]
        capacities = [sp.packer.packable_area(c) for c in self.containers]
        # Stratified draws: n, the fill fraction and the container each cover
        # their range evenly in every pass, so the mix, and with it the cost
        # of a pass, varies little from seed to seed.
        sizes = [1 + int((k + rng.random()) * self.max_circles / self.count) for k in range(self.count)]
        fractions = [1.0 - (k + rng.random()) / self.count for k in range(self.count)]  # in (0, 1]
        rng.shuffle(sizes)
        rng.shuffle(fractions)
        self.instances = []
        for i in range(self.count):
            c = i % len(self.containers)
            fraction = 1.0 if i % 10 == 0 else fractions[i]
            areas = _uniform_areas(rng, sizes[i], fraction * capacities[c])
            self.instances.append(SmallInstance(c, areas, sizes[i]))
        rng.shuffle(self.instances)

    def run(self, inst: SmallInstance):
        sp = self.sp
        circles = sp.splitting.CircleSet.from_areas(inst.areas)
        root = sp.packer.pack(sp.packer.PackRequest(self.containers[inst.container_index], circles))
        return root, sp.verifier.verify(root, expected_areas=inst.areas)

    def check(self, inst: SmallInstance, result, digest):
        root, report = result
        if not report.passed:
            return "verify rejected the packing: " + report.summary().splitlines()[0]
        leaves = [
            (leaf.input_index, leaf.shape.center.x, leaf.shape.center.y, leaf.shape.radius)
            for leaf in root.circle_leaves()
        ]
        if digest is not None:
            _digest_placements(digest, leaves)
        centers = np.array([leaf[1:3] for leaf in leaves], dtype=float).reshape(-1, 2)
        radii = np.array([leaf[3] for leaf in leaves], dtype=float)
        return checks.circle_problem(self.polygons[inst.container_index], centers, radii)

    def control_document(self) -> dict:
        sp = self.sp
        inst = next(i for i in self.instances if i.circles >= 2)
        container = self.containers[inst.container_index]
        circles = sp.splitting.CircleSet.from_areas(inst.areas)
        root = sp.packer.pack(sp.packer.PackRequest(container, circles))
        return sp.documents.PackingDocument.from_tree(root, container).to_dict()


class LargeInstance(NamedTuple):
    path: str
    out: str
    fmt: str
    container: tuple  # (instance-document dict, expected side lengths or None)
    areas: list
    circles: int


# Containers as instance-document dicts, with the side lengths the output's
# vertices must reproduce.
_SQUARE = ({"type": "square", "side": 1.0}, None)
_TRIANGLE_345 = ({"type": "triangle", "sides": [3.0, 4.0, 5.0]}, (3.0, 4.0, 5.0))
_TRIANGLE_OBTUSE = ({"type": "triangle", "sides": [2.0, 3.5, 4.5]}, (2.0, 3.5, 4.5))


def _container_mismatch(got: dict, want: dict, sides) -> bool:
    if sides is None:
        return got != want
    if got.get("type") != "triangle":
        return True
    v = np.array(got["vertices"], dtype=float)
    lengths = sorted(np.hypot(*(np.roll(v, -1, axis=0) - v).T))
    return not np.allclose(lengths, sorted(sides), rtol=1e-12, atol=0.0)


def _write_instance(sp, rng, path: str, container: dict, n: int) -> list:
    capacity = sp.packer.packable_area(sp.documents.container_from_dict(container))
    areas = _uniform_areas(rng, n, capacity)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"container": container, "circles": [{"area": a} for a in areas]}, fh)
    return areas


class PackLarge:
    """``splitpack pack`` in-process on large instances at full capacity."""

    name = "pack-large"
    circles = 20_000
    # (container, format) per instance of a pass: the container alternates,
    # and every other instance writes SVG
    plan = ((_SQUARE, "json"), (_TRIANGLE_345, "svg"))

    def __init__(self, sp, seed: int, workdir: str):
        self.sp = sp
        rng = random.Random(seed)
        self.instances = []
        for k, ((container, sides), fmt) in enumerate(self.plan):
            path = os.path.join(workdir, f"instance-{k}.json")
            areas = _write_instance(sp, rng, path, container, self.circles)
            out = os.path.join(workdir, f"packing-{k}.{fmt}")
            self.instances.append(LargeInstance(path, out, fmt, (container, sides), areas, self.circles))

    def run(self, inst: LargeInstance) -> int:
        return self.sp.cli.main(
            ["pack", "--circles", inst.path, "--out", inst.out, "--format", inst.fmt]
        )

    def check(self, inst: LargeInstance, code: int, digest):
        if code != 0:
            return f"splitpack pack exited {code}"
        with open(inst.out, encoding="utf-8") as fh:
            text = fh.read()
        if inst.fmt == "svg":
            found = text.count("<circle ")
            return None if found == inst.circles else f"SVG has {found} circles, not {inst.circles}"
        doc = json.loads(text)
        container, sides = inst.container
        if _container_mismatch(doc["container"], container, sides):
            return f"output container {doc['container']} is not the input's"
        placements = doc["placements"]
        if sorted(p["input_index"] for p in placements) != list(range(inst.circles)):
            return "placements are not one per input circle"
        for p in placements:
            if p["radius"] != math.sqrt(inst.areas[p["input_index"]] / math.pi):
                return f"circle {p['input_index']} has radius {p['radius']!r}, not sqrt(area/pi)"
        if digest is not None:
            _digest_placements(digest, _document_records(doc))
        return checks.document_problem(doc)

    def control_document(self) -> dict:
        first_json = next(i for i in self.instances if i.fmt == "json")
        with open(first_json.out, encoding="utf-8") as fh:
            return json.load(fh)


class VerifyInstance(NamedTuple):
    path: str
    out: str
    document: dict
    circles: int


class VerifyLarge:
    """``splitpack verify`` in-process on packing documents packed in set-up."""

    name = "verify-large"
    circles = 3000
    plan = (_SQUARE, _TRIANGLE_OBTUSE)

    def __init__(self, sp, seed: int, workdir: str):
        self.sp = sp
        rng = random.Random(seed)
        self.instances = []
        for k, (container_dict, _sides) in enumerate(self.plan):
            container = sp.documents.container_from_dict(container_dict)
            areas = _uniform_areas(rng, self.circles, sp.packer.packable_area(container))
            circles = sp.splitting.CircleSet.from_areas(areas)
            root = sp.packer.pack(sp.packer.PackRequest(container, circles))
            doc = sp.documents.PackingDocument.from_tree(root, container)
            path = os.path.join(workdir, f"packing-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc.to_json())
            out = os.path.join(workdir, f"report-{k}.txt")
            self.instances.append(VerifyInstance(path, out, doc.to_dict(), self.circles))

    def run(self, inst: VerifyInstance) -> int:
        return self.sp.cli.main(["verify", inst.path, "--out", inst.out])

    def check(self, inst: VerifyInstance, code: int, digest):
        if code != 0:
            return f"splitpack verify exited {code}"
        with open(inst.out, encoding="utf-8") as fh:
            if not fh.read().startswith("PASS"):
                return "the verify report does not start with PASS"
        if digest is None:
            return None
        # the packings come from set-up: certify them independently once
        _digest_placements(digest, _document_records(inst.document))
        return checks.document_problem(inst.document)

    def control_document(self) -> dict:
        return self.instances[0].document


WORKLOADS = {w.name: w for w in (CertifySmall, PackLarge, VerifyLarge)}
