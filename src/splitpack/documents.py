"""The two JSON formats: the instance document (a container and the circle
areas to pack into it) and the packing document (a :class:`Packing` record).

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

import numpy as np

from .errors import DocumentError
from .geometry import Point, Square, Triangle, critical_density
from .packer import Packing


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
            return Square(_number(data["side"]))
        if kind == "triangle":
            if "vertices" in data:
                verts = data["vertices"]
                if len(verts) != 3:
                    raise DocumentError("triangle containers need exactly three vertices")
                return Triangle(tuple(Point(_number(v[0]), _number(v[1])) for v in verts))
            if "sides" in data:
                x, y, z = (_number(s) for s in data["sides"])
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
    except ValueError as exc:
        raise DocumentError(f"malformed container spec {spec!r}: {exc}") from exc
    raise DocumentError(f"unknown container spec {spec!r}")


@dataclass
class InstanceDocument:
    """A container plus the circle areas (in input order) to pack into it.

    :meth:`from_dict` reads ``container`` and ``circles`` and ignores every
    other key, such as the minimum circle size that older documents carry.
    """

    container: Union[Square, Triangle]
    areas: list[float]

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
        return cls(container=container, areas=_circle_areas(circles))

    def to_dict(self) -> dict:
        return {
            "container": container_to_dict(self.container),
            "circles": [{"area": a} for a in self.areas],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def circle_entry_area(entry) -> float:
    """Area of a circle entry: exactly one of {'area': a} or {'radius': r},
    with a and r positive."""
    if not isinstance(entry, dict) or ("area" in entry) == ("radius" in entry):
        raise DocumentError(f"circle entries need exactly one of 'area' or 'radius', got {entry!r}")
    try:
        if "area" in entry:
            size = value = _number(entry["area"])
        else:
            size = _number(entry["radius"])
            value = math.pi * size * size
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"circle entries must be numbers, got {entry!r}") from exc
    if not (size > 0.0 and math.isfinite(value) and value > 0.0):
        raise DocumentError(f"circle entries must be positive, got {entry!r}")
    return value


def _circle_areas(entries: list) -> list:
    """The areas of the circle entries, as :func:`circle_entry_area` reads each.

    A list of entries that are all ``{"area": number}`` is read in one pass;
    any other list, and one that holds an area that is not positive, is read
    one entry at a time, which names the entry a :class:`DocumentError`
    refuses."""
    try:
        values = [entry["area"] for entry in entries]
        # each entry holds "area", so a total of one key per entry means no "radius"
        if sum(map(len, entries)) == len(entries):
            areas = np.asarray(_floats(values))
            if ((areas > 0.0) & (areas < math.inf)).all():
                return areas.tolist()
    except _MALFORMED:
        pass
    return [circle_entry_area(entry) for entry in entries]


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


def _float_texts(columns) -> list:
    """Each column of doubles as a list of their JSON texts, as ``json`` writes them.

    Each distinct double is formatted once: a hat shares a vertex with its
    parent, and the record's columns repeat many values. Doubles are told
    apart by their bits, so 0.0 and -0.0 keep their own texts. A finite one
    is written by ``float.__repr__``; the few distinct non-finite ones are
    patched to json's ``NaN``, ``Infinity`` and ``-Infinity``.
    """
    values = np.concatenate([np.asarray(column, dtype=np.float64) for column in columns])
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    texts = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    for i in np.flatnonzero(~np.isfinite(distinct)):
        texts[i] = _dumps(distinct[i].item())
    bounds = np.cumsum([len(column) for column in columns])[:-1]
    return [part.tolist() for part in np.split(texts[inverse], bounds)]


_PLACEMENT = '{"x":%s,"y":%s,"radius":%s,"input_index":%d}'
_SUBCONTAINER = '{"vertices":[[%s,%s],[%s,%s],[%s,%s]],"rounding_radius":%s,"depth":%d}'
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
    from the columns. A parsed document needs ``placements`` (``[]`` is an
    empty packing); ``subcontainers`` may be left out. :meth:`from_dict`
    checks only that each field is a JSON number of the right type;
    :func:`splitpack.verify` judges the record's structure, its hat depths
    included.
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
        if not isinstance(data, dict) or "container" not in data or "placements" not in data:
            raise DocumentError("a packing document is an object with container and placements")
        placements = data["placements"]
        subcontainers = data.get("subcontainers", [])
        if not (isinstance(placements, list) and isinstance(subcontainers, list)):
            raise DocumentError("'placements' and 'subcontainers' must be lists")
        packing = Packing(container_from_dict(data["container"]))
        packing.x, packing.y, packing.radius, packing.input_index = _parse_entries(
            "placement", placements, _placement_columns)
        packing.hat_vertices, packing.hat_rounding, packing.hat_depth = _parse_entries(
            "subcontainer", subcontainers, _subcontainer_columns)
        return cls(packing)

    def to_json(self) -> str:
        """The compact JSON text of :meth:`to_dict`, written from the record's columns.

        Each distinct double is formatted once, as ``json.dumps`` writes it
        (:func:`_float_texts`), and one template per placement and per
        subcontainer is filled with those texts, so no dict or list is built
        per entry and the text equals
        ``json.dumps(self.to_dict(), separators=(",", ":"))`` byte for byte.
        """
        p = self.packing
        x, y, radius, hat_vertices, hat_rounding = _float_texts(
            (p.x, p.y, p.radius, p.hat_vertices, p.hat_rounding))
        coords = iter(hat_vertices)
        placements = ",".join(map(_PLACEMENT.__mod__, zip(x, y, radius, p.input_index)))
        subcontainers = ",".join(map(_SUBCONTAINER.__mod__, zip(
            coords, coords, coords, coords, coords, coords, hat_rounding, p.hat_depth)))
        return _DOCUMENT % (
            _dumps(container_to_dict(p.container)), placements, subcontainers,
            _dumps(self._density_used()), _dumps(critical_density(p.container)))

    def to_tree(self) -> Packing:
        """The document's packing record, ready for :func:`splitpack.verify`."""
        return self.packing
