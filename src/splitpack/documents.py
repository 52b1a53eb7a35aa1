"""JSON documents for instances and packings, plus tree reconstruction.

Numbers are serialized through Python's shortest-round-trip float repr, so
parse(serialize(doc)) reproduces every double bit-exactly and verification
tolerances are never consumed by serialization. Circles are identified by
their input index throughout, keeping equal-area circles distinguishable.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Union

from .errors import DocumentError, InvalidParameterError, OverCapacityError
from .geometry import Circle, Hat, Point, Square, Triangle, critical_density
from .packer import PackingNode, PackRequest, _check_feasible, packable_area
from .splitting import CircleSet


def container_to_dict(container: Union[Square, Triangle]) -> dict:
    if isinstance(container, Square):
        return {"type": "square", "side": container.side}
    if isinstance(container, Triangle):
        return {"type": "triangle", "vertices": [[p.x, p.y] for p in container.vertices]}
    raise DocumentError(f"unsupported container type: {type(container).__name__}")


def container_from_dict(data) -> Union[Square, Triangle]:
    if not isinstance(data, dict) or "type" not in data:
        raise DocumentError("container must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "square":
            return Square(float(data["side"]))
        if kind == "triangle":
            if "vertices" in data:
                verts = data["vertices"]
                if len(verts) != 3:
                    raise DocumentError("triangle containers need exactly three vertices")
                return Triangle(tuple(Point(float(v[0]), float(v[1])) for v in verts))
            if "sides" in data:
                x, y, z = (float(s) for s in data["sides"])
                return Triangle.from_sides(x, y, z)
            raise DocumentError("triangle containers need 'vertices' or 'sides'")
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed container: {exc}") from exc
    raise DocumentError(f"unknown container type {kind!r}")


def parse_container_spec(spec: str) -> Union[Square, Triangle]:
    """Parse a CLI container spec: 'square[:SIDE]' or 'triangle:X,Y,Z'."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "square":
            return Square(float(rest) if rest else 1.0)
        if kind == "triangle":
            x, y, z = (float(v) for v in rest.split(","))
            return Triangle.from_sides(x, y, z)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"malformed container spec {spec!r}: {exc}") from exc
    raise DocumentError(f"unknown container spec {spec!r}")


@dataclass
class InstanceDocument:
    """A container plus the circle areas (in input order) to pack into it."""

    container: Union[Square, Triangle]
    areas: list[float]
    min_size: float = 0.0

    @classmethod
    def from_dict(cls, data: dict, container=None) -> "InstanceDocument":
        if not isinstance(data, dict):
            raise DocumentError("instance document must be a JSON object")
        if container is None:
            if "container" not in data:
                raise DocumentError("instance document lacks a container")
            container = container_from_dict(data["container"])
        circles = data.get("circles", [])
        areas = [circle_entry_area(entry) for entry in circles]
        min_size = float(data.get("min_size", 0.0))
        return cls(container=container, areas=areas, min_size=min_size)

    def to_dict(self) -> dict:
        return {
            "container": container_to_dict(self.container),
            "circles": [{"area": a} for a in self.areas],
            "min_size": self.min_size,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_request(self) -> PackRequest:
        return PackRequest(
            container=self.container,
            circles=CircleSet.from_areas(self.areas),
            min_size=self.min_size,
        )


def circle_entry_area(entry) -> float:
    """Area of a circle entry: exactly one of {'area': a} or {'radius': r}."""
    if not isinstance(entry, dict) or len(entry.keys() & {"area", "radius"}) != 1:
        raise DocumentError(f"circle entries need exactly one of 'area' or 'radius', got {entry!r}")
    if "area" in entry:
        value = float(entry["area"])
    else:
        r = float(entry["radius"])
        value = math.pi * r * r
    if not (math.isfinite(value) and value > 0.0):
        raise DocumentError(f"circle entries must be positive, got {entry!r}")
    return value


@dataclass
class PackingDocument:
    """Flat, serializable view of a packing tree.

    ``placements`` lists the circles sorted by input index; ``subcontainers``
    lists every non-root hat in depth-first preorder, so the parent of an
    entry at depth d is the nearest preceding entry at depth d-1 (or the
    container for d = 1).
    """

    container: dict
    placements: list[dict] = field(default_factory=list)
    subcontainers: list[dict] = field(default_factory=list)
    density_used: float = 0.0
    critical_density: float = 0.0

    @classmethod
    def from_tree(cls, root: PackingNode, container: Union[Square, Triangle]) -> "PackingDocument":
        placements = []
        subcontainers = []
        for node, depth in root.walk():
            shape = node.shape
            if isinstance(shape, Circle):
                placements.append(
                    {
                        "x": shape.center.x,
                        "y": shape.center.y,
                        "radius": shape.radius,
                        "input_index": node.input_index,
                    }
                )
            elif isinstance(shape, Hat) and depth > 0:
                subcontainers.append(
                    {
                        "vertices": [[p.x, p.y] for p in shape.triangle.vertices],
                        "rounding_radius": shape.rounding_radius,
                        "depth": depth,
                    }
                )
        placements.sort(key=lambda p: (p["input_index"] is None, p["input_index"]))
        total = math.fsum(math.pi * p["radius"] ** 2 for p in placements)
        return cls(
            container=container_to_dict(container),
            placements=placements,
            subcontainers=subcontainers,
            density_used=total / container.area,
            critical_density=critical_density(container),
        )

    def to_dict(self) -> dict:
        return {
            "container": self.container,
            "placements": self.placements,
            "subcontainers": self.subcontainers,
            "density_used": self.density_used,
            "critical_density": self.critical_density,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PackingDocument":
        if not isinstance(data, dict) or "container" not in data:
            raise DocumentError("packing document must be an object with a container")
        container_from_dict(data["container"])  # validate eagerly
        placements = data.get("placements", [])
        subcontainers = data.get("subcontainers", [])
        for p in placements:
            if not isinstance(p, dict) or "x" not in p or "y" not in p or "radius" not in p:
                raise DocumentError(f"malformed placement entry: {p!r}")
        for s in subcontainers:
            if not isinstance(s, dict) or "vertices" not in s or "depth" not in s:
                raise DocumentError(f"malformed subcontainer entry: {s!r}")
        return cls(
            container=data["container"],
            placements=list(placements),
            subcontainers=list(subcontainers),
            density_used=float(data.get("density_used", 0.0)),
            critical_density=float(data.get("critical_density", 0.0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def container_shape(self) -> Union[Square, Triangle]:
        return container_from_dict(self.container)

    def to_tree(self) -> PackingNode:
        """Rebuild a verifiable tree: the hat hierarchy from the depth chain,
        with all placed circles attached under the root container."""
        container = self.container_shape()
        if isinstance(container, Square):
            root = PackingNode(container)
        else:
            root = PackingNode(Hat(container, 0.0))
        chain: list[tuple[int, PackingNode]] = [(0, root)]
        for entry in self.subcontainers:
            try:
                depth = int(entry["depth"])
                tri = Triangle(tuple(Point(float(v[0]), float(v[1])) for v in entry["vertices"]))
                hat = Hat(tri, float(entry.get("rounding_radius", 0.0)))
            except (DocumentError, KeyError, TypeError, ValueError) as exc:
                raise DocumentError(f"malformed subcontainer entry: {entry!r}") from exc
            while chain and chain[-1][0] >= depth:
                chain.pop()
            if not chain or chain[-1][0] != depth - 1:
                raise DocumentError(f"subcontainer at depth {depth} has no parent")
            node = PackingNode(hat)
            chain[-1][1].children.append(node)
            chain.append((depth, node))
        for pos, entry in enumerate(self.placements):
            try:
                circle = Circle(Point(float(entry["x"]), float(entry["y"])), float(entry["radius"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise DocumentError(f"malformed placement entry: {entry!r}") from exc
            root.children.append(PackingNode(circle, input_index=entry.get("input_index", pos)))
        return root


def decide(instance: InstanceDocument) -> dict:
    """Sufficient-condition decision: 'yes' when the area bound guarantees a
    packing, otherwise 'unknown' (never 'no' — the bound is not necessary).

    The answer is 'unknown' exactly when :func:`splitpack.pack` refuses the
    instance as over capacity or below its minimum size."""
    capacity = packable_area(instance.container)
    circles = CircleSet.from_areas(instance.areas)
    try:
        _check_feasible(circles, instance.min_size, capacity)
        packable = "yes"
    except (InvalidParameterError, OverCapacityError):
        packable = "unknown"
    return {"packable": packable, "ratio": math.fsum(instance.areas) / capacity}
