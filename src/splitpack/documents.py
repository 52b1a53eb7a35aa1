"""JSON documents for instances and packings.

Numbers are serialized through Python's shortest-round-trip float repr, so
parse(serialize(doc)) reproduces every double bit-exactly and verification
tolerances are never consumed by serialization. Circles are identified by
their input index throughout, keeping equal-area circles distinguishable.
"""

import json
import math
from array import array
from dataclasses import dataclass
from typing import Union

from .errors import DocumentError, InvalidParameterError, OverCapacityError
from .geometry import Point, Square, Triangle, critical_density
from .packer import Packing, PackRequest, _check_feasible, packable_area
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
    except (IndexError, KeyError, TypeError, ValueError) as exc:
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
        if not isinstance(circles, list):
            raise DocumentError(f"'circles' must be a list, got {circles!r}")
        areas = [circle_entry_area(entry) for entry in circles]
        try:
            min_size = _number(data.get("min_size", 0.0))
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"'min_size' must be a number, got {data['min_size']!r}") from exc
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
    if not isinstance(entry, dict) or ("area" in entry) == ("radius" in entry):
        raise DocumentError(f"circle entries need exactly one of 'area' or 'radius', got {entry!r}")
    try:
        if "area" in entry:
            value = _number(entry["area"])
        else:
            r = _number(entry["radius"])
            value = math.pi * r * r
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"circle entries must be numbers, got {entry!r}") from exc
    if not (math.isfinite(value) and value > 0.0):
        raise DocumentError(f"circle entries must be positive, got {entry!r}")
    return value


def _number(value) -> float:
    """``value`` as a float; a JSON boolean or string is not a number."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    """``value`` as an int; a boolean, a string or a number with a fractional
    part is refused, not converted."""
    if type(value) is int:  # a JSON integer: the one test on the parse path
        return value
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not an integer")
    k = int(value)
    if k != value:
        raise ValueError(f"{value!r} is not an integer")
    return k


_FLOAT_TYPES, _INT_TYPES = frozenset((float, int)), frozenset((int,))  # JSON numbers
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _floats(values: list) -> array:
    """The values as doubles; a JSON boolean or string is refused (TypeError)."""
    if not _FLOAT_TYPES.issuperset(map(type, values)):
        values = [_number(value) for value in values]
    return array("d", values)


def _integers(values: list) -> array:
    """The values as 64-bit integers, each refused or kept as :func:`_integer` does."""
    if not _INT_TYPES.issuperset(map(type, values)):
        values = [_integer(value) for value in values]
    return array("q", values)


def _placement_columns(entries: list) -> tuple:
    x, y, radius = ([entry[key] for entry in entries] for key in ("x", "y", "radius"))
    index = [entry.get("input_index", pos) for pos, entry in enumerate(entries)]
    return _floats(x), _floats(y), _floats(radius), _integers(index)


def _subcontainer_columns(entries: list) -> tuple:
    vertices = [entry["vertices"] for entry in entries]
    coords = [c for (x0, y0), (x1, y1), (x2, y2) in vertices for c in (x0, y0, x1, y1, x2, y2)]
    rounding = [entry.get("rounding_radius", 0.0) for entry in entries]
    return _floats(coords), _floats(rounding), _integers([entry["depth"] for entry in entries])


def _parse_entries(kind: str, entries: list, columns):
    """``columns(entries)``, each column parsed in bulk; where that fails, a
    :class:`DocumentError` naming the first entry it refuses on its own."""
    try:
        return columns(entries)
    except _MALFORMED as exc:
        error = exc
    for entry in entries:
        try:
            columns([entry])
        except _MALFORMED as exc:
            raise DocumentError(f"malformed {kind} entry: {entry!r}") from exc
    raise DocumentError(f"malformed {kind} entries") from error


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


_PLACEMENT = '{"x":%r,"y":%r,"radius":%r,"input_index":%d}'
_SUBCONTAINER = '{"vertices":[[%r,%r],[%r,%r],[%r,%r]],"rounding_radius":%r,"depth":%d}'
_DOCUMENT = ('{"container":%s,"placements":[%s],"subcontainers":[%s],'
             '"density_used":%s,"critical_density":%s}')


@dataclass
class PackingDocument:
    """Serializable form of a :class:`~splitpack.packer.Packing` record.

    In its dict and JSON form, ``placements`` lists the circles in the
    record's order (by input index for a packed record) and
    ``subcontainers`` lists every hat in depth-first preorder, so the parent
    of an entry at depth d is the nearest preceding entry at depth d-1 (or
    the container for d = 1). The record is the document's only state: the
    container and both densities are written from it, and a parsed document
    keeps only what its record holds. :meth:`to_dict` builds this layout as
    dicts and lists; :meth:`to_json` writes the same layout as text straight
    from the columns.
    """

    packing: Packing

    @classmethod
    def from_tree(cls, packing: Packing, container: Union[Square, Triangle]) -> "PackingDocument":
        """The document of a packed record; ``container`` repeats the record's own."""
        return cls(packing)

    def to_dict(self) -> dict:
        p = self.packing
        coords = iter(p.hat_vertices)
        return {
            "container": container_to_dict(p.container),
            "placements": [
                {"x": x, "y": y, "radius": r, "input_index": k}
                for x, y, r, k in zip(p.x, p.y, p.radius, p.input_index)
            ],
            "subcontainers": [
                {"vertices": [[x0, y0], [x1, y1], [x2, y2]], "rounding_radius": rounding,
                 "depth": depth}
                for x0, y0, x1, y1, x2, y2, rounding, depth in zip(
                    coords, coords, coords, coords, coords, coords, p.hat_rounding, p.hat_depth
                )
            ],
            "density_used": self._density_used(),
            "critical_density": critical_density(p.container),
        }

    def _density_used(self) -> float:
        p = self.packing
        return math.fsum(math.pi * r**2 for r in p.radius) / p.container.area

    @classmethod
    def from_dict(cls, data: dict) -> "PackingDocument":
        if not isinstance(data, dict) or "container" not in data:
            raise DocumentError("packing document must be an object with a container")
        placements = data.get("placements", [])
        subcontainers = data.get("subcontainers", [])
        if not (isinstance(placements, list) and isinstance(subcontainers, list)):
            raise DocumentError("'placements' and 'subcontainers' must be lists")
        packing = Packing(container_from_dict(data["container"]))
        packing.x, packing.y, packing.radius, packing.input_index = _parse_entries(
            "placement", placements, _placement_columns)
        packing.hat_vertices, packing.hat_rounding, packing.hat_depth = _parse_entries(
            "subcontainer", subcontainers, _subcontainer_columns)
        previous = 0
        for depth in packing.hat_depth:
            if not 1 <= depth <= previous + 1:
                raise DocumentError(f"subcontainer at depth {depth} has no parent")
            previous = depth
        return cls(packing)

    def to_json(self) -> str:
        """The compact JSON text of :meth:`to_dict`, written from the record's columns.

        One template per placement and per subcontainer, so no dict or list
        is built per entry; ``%r`` is the ``float.__repr__`` that
        ``json.dumps`` uses, so the text equals
        ``json.dumps(self.to_dict(), separators=(",", ":"))`` byte for byte.
        """
        p = self.packing
        # a sum is finite only if every term is; json spells nan and inf as
        # NaN and Infinity, which float.__repr__ does not
        if not all(math.isfinite(sum(column))
                   for column in (p.x, p.y, p.radius, p.hat_vertices, p.hat_rounding)):
            return _dumps(self.to_dict())
        coords = iter(p.hat_vertices)
        placements = ",".join(map(_PLACEMENT.__mod__, zip(p.x, p.y, p.radius, p.input_index)))
        subcontainers = ",".join(map(_SUBCONTAINER.__mod__, zip(
            coords, coords, coords, coords, coords, coords, p.hat_rounding, p.hat_depth)))
        return _DOCUMENT % (
            _dumps(container_to_dict(p.container)), placements, subcontainers,
            _dumps(self._density_used()), _dumps(critical_density(p.container)))

    def to_tree(self) -> Packing:
        """The document's packing record, ready for :func:`splitpack.verify`."""
        return self.packing


def decide(instance: InstanceDocument) -> dict:
    """Sufficient-condition decision: 'yes' when the area bound guarantees a
    packing, otherwise 'unknown' (never 'no' — the bound is not necessary).

    The answer is 'unknown' exactly when :func:`splitpack.pack` refuses the
    instance as over capacity, below its minimum size or outside the float
    range. ``ratio`` is the combined area over the packable area, or None
    where that capacity or the ratio leaves the float range."""
    request = instance.to_request()  # refuses a bad min_size, as pack does
    capacity = packable_area(request.container)
    try:
        _check_feasible(request.circles, request.min_size, capacity)
        packable = "yes"
    except (InvalidParameterError, OverCapacityError):
        packable = "unknown"
    ratio = math.fsum(instance.areas) / capacity if 0.0 < capacity < math.inf else math.inf
    return {"packable": packable, "ratio": ratio if math.isfinite(ratio) else None}
