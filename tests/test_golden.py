"""Golden corpus: packings stay bit-identical, and documents round-trip exactly.

Each corpus entry is packed and turned into a ``PackingDocument``; its
placements and subcontainers are hashed through every float's ``repr``, so a
change in the last bit of any coordinate, radius or rounding changes the
digest. The compact JSON text that ``to_json`` writes is pinned by its
sha256, byte for byte. ``golden_packings.json`` holds both, under
``"records"`` and ``"to_json"``. A request that the packer refuses is
recorded by the name of the error it raises.

Regenerate the digests (only for a deliberate change of the geometry) with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_packings.json
"""

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import pytest

from splitpack import (
    CircleSet,
    PackingDocument,
    PackRequest,
    SplitPackError,
    Square,
    Triangle,
    pack,
    packable_area,
    verify,
)
from conftest import report_outcome

GOLDEN = Path(__file__).with_name("golden_packings.json")

CONTAINERS = {
    "square": lambda: Square(1.0),
    "tri345": lambda: Triangle.from_sides(3.0, 4.0, 5.0),
    "tri2-3.5-4.5": lambda: Triangle.from_sides(2.0, 3.5, 4.5),
    # apex angle about 129 degrees, off the canonical frame
    "obtuse": lambda: Triangle(((0.25, -0.5), (2.75, 1.0), (1.0, 0.75))),
}
SIZES = (1, 2, 3, 17, 500)


def corpus_areas(kind: str, n: int, capacity: float) -> list[float]:
    if kind == "uniform":
        rng = random.Random(n)
        weights = [rng.random() + 1e-9 for _ in range(n)]
        scale = capacity / sum(weights)
        return [w * scale for w in weights]
    # capacity * 0.5**(k + 1): every ratio is a power of two, total below capacity
    return [capacity * 0.5 ** (k + 1) for k in range(n)]


def corpus():
    for name, make in CONTAINERS.items():
        for n in SIZES:
            for kind in ("uniform", "halving"):
                yield f"{name}/{kind}/{n}", make, kind, n


def document_digest(data: dict) -> str:
    """sha256 over the placements and subcontainers of a packing document dict."""
    h = hashlib.sha256()
    for p in data["placements"]:
        h.update(f"P {p['input_index']!r} {p['x']!r} {p['y']!r} {p['radius']!r}\n".encode())
    for s in data["subcontainers"]:
        coords = " ".join(repr(c) for v in s["vertices"] for c in v)
        h.update(f"S {coords} {s['rounding_radius']!r} {s['depth']!r}\n".encode())
    return h.hexdigest()


def pack_entry(make, kind: str, n: int) -> PackingDocument:
    container = make()
    areas = corpus_areas(kind, n, packable_area(container))
    packing = pack(PackRequest(container, CircleSet.from_areas(areas)))
    return PackingDocument.from_tree(packing, container)


def outcome(make, kind: str, n: int) -> tuple[str, str]:
    """(record digest, sha256 of the JSON text), or the refusal twice."""
    try:
        doc = pack_entry(make, kind, n)
    except SplitPackError as exc:
        refused = f"raises {type(exc).__name__}"
        return refused, refused
    return document_digest(doc.to_dict()), hashlib.sha256(doc.to_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_the_corpus(golden):
    keys = sorted(key for key, *_ in corpus())
    assert sorted(golden) == ["records", "to_json"]
    assert sorted(golden["records"]) == keys
    assert sorted(golden["to_json"]) == keys


@pytest.mark.parametrize("key,make,kind,n", list(corpus()), ids=[c[0] for c in corpus()])
def test_packing_is_bit_identical(golden, key, make, kind, n):
    assert outcome(make, kind, n) == (golden["records"][key], golden["to_json"][key])


@pytest.mark.parametrize("name", sorted(CONTAINERS))
@pytest.mark.parametrize("n", SIZES)
def test_to_dict_is_the_parsed_json(name, n):
    doc = pack_entry(CONTAINERS[name], "uniform", n)
    text = doc.to_json()
    assert doc.to_dict() == json.loads(text)
    assert text == json.dumps(json.loads(text), separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_json_round_trip_is_bit_exact(name):
    doc = pack_entry(CONTAINERS[name], "uniform", 500)
    text = doc.to_json()
    again = PackingDocument.from_dict(json.loads(text))
    assert document_digest(again.to_dict()) == document_digest(doc.to_dict())
    for a, b in zip(doc.to_dict()["placements"], again.to_dict()["placements"]):
        for field in ("x", "y", "radius"):
            assert math.copysign(1.0, a[field]) == math.copysign(1.0, b[field])
    assert again.to_json() == text


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_parsed_document_verifies_as_its_record(name):
    doc = pack_entry(CONTAINERS[name], "uniform", 500)
    parsed = PackingDocument.from_dict(json.loads(doc.to_json())).to_tree()
    assert report_outcome(verify(parsed)) == report_outcome(verify(doc.packing))


if __name__ == "__main__":
    results = {key: outcome(make, kind, n) for key, make, kind, n in corpus()}
    json.dump(
        {"records": {key: r[0] for key, r in results.items()},
         "to_json": {key: r[1] for key, r in results.items()}},
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")
