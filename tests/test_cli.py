"""Tests for documents, SVG output, and the command-line front end."""

import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import splitpack as sp
from splitpack import (
    PHI_SQUARE,
    CircleSet,
    InstanceDocument,
    PackRequest,
    PackingDocument,
    Square,
    Triangle,
    decide,
    min_container,
    pack,
    render_packing_svg,
    verify,
)
from splitpack import cli
from splitpack.cli import main
from splitpack.documents import container_from_dict, container_to_dict
from reference_geometry import Hat, triangle_incircle

SQRT2 = math.sqrt(2.0)


def uniform_packing(container, n: int):
    """A packing of n circles of uniform random areas at the container's capacity."""
    w = np.random.default_rng(n).random(n) + 1e-9
    return pack(PackRequest(container, CircleSet.from_areas(list(w * (sp.packable_area(container) / w.sum())))))


def run_cli(argv, capsys, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, name, doc: InstanceDocument) -> str:
    path = tmp_path / name
    path.write_text(doc.to_json())
    return str(path)


class TestDocuments:
    def test_instance_roundtrip(self):
        doc = InstanceDocument(Square(1.5), [0.1, 0.2, 0.30000000000000004])
        again = InstanceDocument.from_dict(json.loads(doc.to_json()))
        assert again == doc  # bit-exact float round trip

    @pytest.mark.parametrize("min_size", [0.0, 0.5, "abc"])
    def test_a_min_size_key_is_ignored(self, capsys, monkeypatch, min_size):
        # gen wrote "min_size": 0.0 into every instance while pack took a
        # minimum circle size; such documents pack as before, and a value
        # that was refused then (0.5 above the smallest area, or a string)
        # is ignored like any other key the parser does not read
        code, text, _ = run_cli(["gen", "-n", "40", "--distribution", "uniform", "--seed", "2"],
                                capsys)
        assert code == 0 and "min_size" not in text
        data = json.loads(text)
        assert min(entry["area"] for entry in data["circles"]) < 0.5
        older = json.dumps({**data, "min_size": min_size}, indent=2)
        outputs = []
        for doc in (text, older):
            for command in ("pack", "decide"):
                code, out, err = run_cli([command], capsys, stdin=doc, monkeypatch=monkeypatch)
                assert code == 0, err
                outputs.append(out)
        assert outputs[:2] == outputs[2:]
        assert json.loads(outputs[1])["packable"] == "yes"

    def test_radius_entries(self):
        data = {
            "container": {"type": "square", "side": 1.0},
            "circles": [{"radius": 0.25}, {"area": 0.1}],
        }
        doc = InstanceDocument.from_dict(data)
        assert doc.areas[0] == pytest.approx(math.pi * 0.0625, rel=1e-15)
        assert doc.areas[1] == 0.1

    def test_bad_circle_entries(self):
        base = {"container": {"type": "square", "side": 1.0}}
        for circles in ([{"area": 1.0, "radius": 1.0}], [{}], [{"area": -1.0}],
                        [{"radius": -1.0}], [{"radius": 0.0}], [{"area": 0.1}, {"radius": -0.1}]):
            with pytest.raises(sp.DocumentError, match="^circle entries"):
                InstanceDocument.from_dict({**base, "circles": circles})

    @pytest.mark.parametrize("entry", [{"area": True}, {"area": "0.01"}, {"radius": False},
                                       {"radius": "0.1"}])
    def test_booleans_and_strings_are_not_areas(self, entry):
        base = {"container": {"type": "square", "side": 1.0}}
        with pytest.raises(sp.DocumentError):
            InstanceDocument.from_dict({**base, "circles": [entry]})

    @pytest.mark.parametrize("field,value", [("input_index", True), ("input_index", "0"),
                                             ("depth", True), ("depth", "1")])
    def test_booleans_and_strings_are_not_integers(self, field, value):
        placement = {"x": 0.5, "y": 0.5, "radius": 0.1, "input_index": 0}
        hat = {"vertices": [[0, 0], [1, 0], [0, 1]], "rounding_radius": 0.0, "depth": 1}
        entry = placement if field == "input_index" else hat
        data = {"container": {"type": "square", "side": 1.0}, "placements": [placement],
                "subcontainers": [hat]}
        entry[field] = value
        with pytest.raises(sp.DocumentError):
            PackingDocument.from_dict(data)

    def test_integral_floats_are_integers(self):
        placements = [{"x": 0.25, "y": 0.5, "radius": 0.1, "input_index": 0},
                      {"x": 0.75, "y": 0.5, "radius": 0.1, "input_index": 1}]
        hat = {"vertices": [[0, 0], [1, 0], [0, 1]], "rounding_radius": 0.0, "depth": 1}
        data = {"container": {"type": "square", "side": 1.0}, "placements": placements,
                "subcontainers": [hat]}
        ints = PackingDocument.from_dict(data).to_json()
        placements[1]["input_index"] = 1.0
        hat["depth"] = 1.0
        floats = PackingDocument.from_dict(data)
        assert floats.to_json() == ints
        assert list(floats.packing.input_index) == [0, 1] and list(floats.packing.hat_depth) == [1]

    @pytest.mark.parametrize("value", [True, "0.5"], ids=["true", "string"])
    @pytest.mark.parametrize("field", ["x", "y", "radius", "vertex x", "vertex y",
                                       "rounding_radius"])
    def test_booleans_and_strings_are_not_coordinates(self, field, value):
        placement = {"x": 0.5, "y": 0.5, "radius": 0.1, "input_index": 0}
        hat = {"vertices": [[0, 0], [1, 0], [0, 1]], "rounding_radius": 0.0, "depth": 1}
        if field == "vertex x":
            hat["vertices"][1][0] = value
        elif field == "vertex y":
            hat["vertices"][2][1] = value
        elif field == "rounding_radius":
            hat[field] = value
        else:
            placement[field] = value
        data = {"container": {"type": "square", "side": 1.0}, "placements": [placement],
                "subcontainers": [hat]}
        with pytest.raises(sp.DocumentError):
            PackingDocument.from_dict(data)

    def test_non_finite_numbers_are_written_as_json_writes_them(self):
        data = {
            "container": {"type": "square", "side": 1.0},
            "placements": [{"x": math.nan, "y": math.inf, "radius": -math.inf, "input_index": 0},
                           {"x": 0.25, "y": -0.0, "radius": 1e-300, "input_index": 1}],
            "subcontainers": [{"vertices": [[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]],
                               "rounding_radius": math.inf, "depth": 1}],
        }
        document = PackingDocument.from_dict(data)
        text = document.to_json()
        assert "NaN" in text and "-Infinity" in text
        assert text == json.dumps(json.loads(text), separators=(",", ":"))
        assert text == json.dumps(document.to_dict(), separators=(",", ":"))

    def test_container_variants(self):
        sq = container_from_dict({"type": "square", "side": 2.0})
        assert isinstance(sq, Square) and sq.side == 2.0
        t1 = container_from_dict({"type": "triangle", "sides": [3, 4, 5]})
        assert isinstance(t1, Triangle)
        t2 = container_from_dict(container_to_dict(t1))
        assert t1.vertices == t2.vertices
        with pytest.raises(sp.DocumentError):
            container_from_dict({"type": "pentagon"})

    def test_packing_document_roundtrip(self):
        areas = [PHI_SQUARE / 2.0, PHI_SQUARE / 2.0]
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        doc = PackingDocument.from_tree(root, Square(1.0))
        again = PackingDocument.from_dict(json.loads(doc.to_json()))
        assert again.to_dict() == doc.to_dict()
        data = doc.to_dict()
        assert len(data["placements"]) == 2
        assert [p["input_index"] for p in data["placements"]] == [0, 1]
        assert data["density_used"] == pytest.approx(PHI_SQUARE, rel=1e-12)
        assert data["critical_density"] == pytest.approx(PHI_SQUARE, rel=1e-12)

    def test_parsed_document_is_rewritten_from_its_record(self):
        # the container is written from the record's triangle, not copied as
        # "sides", and stored densities are recomputed, not kept
        data = {
            "container": {"type": "triangle", "sides": [3.0, 4.0, 5.0]},
            "placements": [{"x": 1.0, "y": 1.0, "radius": 0.5, "input_index": 0}],
            "density_used": 7.0,
            "critical_density": -1.0,
        }
        out = PackingDocument.from_dict(data).to_dict()
        triangle = Triangle.from_sides(3.0, 4.0, 5.0)
        assert out["container"] == container_to_dict(triangle)
        assert out["density_used"] == math.pi * 0.25 / triangle.area
        assert out["critical_density"] == pytest.approx(math.pi / 6.0, rel=1e-12)
        assert out["placements"] == data["placements"] and out["subcontainers"] == []

    def test_reconstructed_tree_verifies(self):
        rng = np.random.default_rng(11)
        w = rng.random(40)
        areas = list(w * (PHI_SQUARE * 0.9 / w.sum()))
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        doc = PackingDocument.from_dict(
            json.loads(PackingDocument.from_tree(root, Square(1.0)).to_json())
        )
        rebuilt = doc.to_tree()
        report = verify(rebuilt)
        assert report.passed, report.summary()


class TestSvg:
    def test_element_counts(self):
        rng = np.random.default_rng(13)
        w = rng.random(17)
        areas = list(w * (PHI_SQUARE * 0.8 / w.sum()))
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        doc = PackingDocument.from_tree(root, Square(1.0))
        svg = render_packing_svg(root)
        assert svg.count("<circle ") == len(areas)
        assert svg.count("<path ") == len(doc.to_dict()["subcontainers"])
        assert svg.count("<rect ") == 1

    def test_triangle_container_and_rounded_hats(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        areas = [0.9 * math.pi, 0.05 * math.pi]
        root = pack(PackRequest(t, CircleSet.from_areas(areas)))
        doc = PackingDocument.from_tree(root, t)
        svg = render_packing_svg(root)
        assert svg.count("<circle ") == 2
        assert svg.count("<path ") == len(doc.to_dict()["subcontainers"])
        assert svg.count("<polygon ") == 1
        assert "A " in svg  # rounded corners render as arcs

    def test_fully_rounded_hat_renders_as_circle_path(self):
        # a hat rounded by its inradius is its incircle: three arcs of the
        # inradius whose endpoints lie on the incircle
        from splitpack.svg import _hat_paths

        t = Triangle.from_sides(3.0, 4.0, 5.0)
        circle = triangle_incircle(t)
        (path,) = _hat_paths(np.array([t.vertices]), np.array([1.0]), 0.0)  # rounding = inradius
        arcs = re.findall(r"(\S+) (\S+) A (\S+) (\S+) 0 0 1 (\S+) (\S+)", path)
        assert len(arcs) == 3
        for x0, y0, rx, ry, x1, y1 in arcs:
            assert float(rx) == float(ry) == pytest.approx(circle.radius, rel=1e-9)
            for point in ((float(x0), float(y0)), (float(x1), float(y1))):
                assert math.dist(point, circle.center) == pytest.approx(circle.radius, rel=1e-9)

    def test_zero_area_hat_renders_as_its_triangle(self):
        # a collinear hat has inradius 0, so the verifier reads it unrounded
        # (a segment), and it draws sharp, not as the point of its rounding
        from splitpack.svg import _hat_paths

        (path,) = _hat_paths(np.array([((0.1, 0.0), (0.3, 0.0), (0.5, 0.0))]), np.array([0.01]), 0.0)
        assert path == "M 0.1 0 L 0.3 0 L 0.5 0 Z"

    def test_hat_paths_match_the_hat_shape(self):
        # every drawn arc starts and ends on the hat's corner disks, and
        # clockwise vertices are drawn like counterclockwise ones
        from splitpack.svg import _hat_paths

        t = Triangle.from_sides(3.0, 4.0, 5.0)
        for s in (0.0, 0.25, 0.999):
            hat = Hat(t, s)
            a, b, c = t.vertices
            ccw, cw = _hat_paths(np.array([(a, b, c), (a, c, b)]), np.array([s, s]), 0.0)
            assert ccw == cw
            numbers = [float(w) for w in ccw.replace("M", "").replace("L", "").replace("Z", "")
                       .replace("A", "").split()]
            if s == 0.0:
                assert ccw.startswith("M ") and ccw.count("L ") == 2
                assert np.allclose(np.reshape(numbers, (3, 2)), t.vertices, atol=1e-9)
                continue
            arcs = np.reshape(numbers, (3, 9))
            for (x0, y0, rx, ry, _, _, _, x1, y1), corner in zip(arcs, hat.eroded_corners()):
                assert rx == ry == pytest.approx(s, rel=1e-9)
                assert math.dist((x0, y0), corner) == pytest.approx(s, rel=1e-9)
                assert math.dist((x1, y1), corner) == pytest.approx(s, rel=1e-9)

    def test_rounding_noise_prints_as_zero(self):
        # the square worst case and a self-similar square packing: numbers
        # that are zero up to rounding print as 0, not as -1.7e-18
        for n in (2, 16, 40):
            areas = [PHI_SQUARE / n] * n if n < 40 else [PHI_SQUARE * 0.5 ** (k + 1) for k in range(n)]
            root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
            svg = render_packing_svg(root)
            numbers = [float(w) for w in re.findall(r"-?[0-9.]+(?:e[-+][0-9]+)?", svg.split("<g ", 1)[1])]
            assert numbers and all(x == 0.0 or abs(x) >= 1e-12 for x in numbers)
            assert "-0 " not in svg and '"-0"' not in svg


    def test_text_does_not_depend_on_the_block_size(self, monkeypatch):
        from splitpack import svg

        packing = uniform_packing(Triangle.from_sides(2.0, 3.5, 4.5), 200)
        expected = render_packing_svg(packing)
        paths = re.findall(r'<path d="([^"]*)"', expected)
        assert len(paths) == len(packing.hat_rounding) > 7
        assert any(" A " in path for path in paths) and any(" A " not in path for path in paths)
        for block in (1, 7, len(paths) + 1):
            monkeypatch.setattr(svg, "_BLOCK", block)
            assert render_packing_svg(packing) == expected

    def test_render_holds_about_twice_its_text(self):
        # hats and circles become text a block at a time, so at its peak the
        # render holds its pieces and their join (a whole-figure list of
        # lines and of numbers took about 4x)
        import tracemalloc

        packing = uniform_packing(Square(1.0), 5000)
        tracemalloc.start()
        try:
            text = render_packing_svg(packing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * len(text)


class TestDecide:
    def test_yes(self, tmp_path, capsys):
        inst = InstanceDocument(Square(1.0), [0.539])
        path = write_instance(tmp_path, "inst.json", inst)
        code, out, _ = run_cli(["decide", "--circles", path], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["packable"] == "yes"
        assert result["ratio"] == pytest.approx(0.539 / PHI_SQUARE, rel=1e-12)

    def test_unknown(self, tmp_path, capsys):
        inst = InstanceDocument(Square(1.0), [0.28, 0.28])
        path = write_instance(tmp_path, "inst.json", inst)
        code, out, _ = run_cli(["decide", "--circles", path], capsys)
        assert code == 0
        assert json.loads(out)["packable"] == "unknown"

    def test_empty_set_is_yes(self, capsys):
        code, out, _ = run_cli(["decide", "--container", "square:1"], capsys)
        assert code == 0
        assert json.loads(out)["packable"] == "yes"

    def test_acute_container_unsupported(self, tmp_path, capsys):
        inst = InstanceDocument(Triangle.from_sides(1.0, 1.0, 1.0), [0.1])
        path = write_instance(tmp_path, "inst.json", inst)
        code, _, err = run_cli(["decide", "--circles", path], capsys)
        assert code == 3
        assert "unsupported container" in err

    def test_boundary_reproducer_packs(self, tmp_path, capsys, monkeypatch):
        # over capacity by the sorted running sum, within it by the exact sum:
        # decide said "yes" while pack refused it as over capacity
        areas = [0.13557021862406807, 0.013955264675364202, 0.38948660115375405]
        path = write_instance(tmp_path, "inst.json", InstanceDocument(Square(1.0), areas))
        code, out, _ = run_cli(["decide", "--circles", path], capsys)
        assert code == 0
        assert json.loads(out)["packable"] == "yes"
        code, packed, err = run_cli(["pack", "--circles", path], capsys)
        assert code == 0, err
        code, report, _ = run_cli(["verify", "-"], capsys, stdin=packed, monkeypatch=monkeypatch)
        assert code == 0, report

    def test_yes_iff_pack_succeeds_near_the_boundary(self):
        rng = np.random.default_rng(59)
        answers = set()
        for _ in range(300):
            container = Square(1.0) if rng.random() < 0.5 else Triangle.from_sides(3.0, 4.0, 5.0)
            capacity = sp.packable_area(container)
            weights = rng.random(int(rng.integers(2, 9))) + 0.01
            target = capacity * (1.0 + 1e-12) * (1.0 + float(rng.uniform(-4e-16, 4e-16)))
            areas = [float(w) for w in weights * (target / weights.sum())]
            inst = InstanceDocument(container, areas)
            yes = decide(inst)["packable"] == "yes"
            try:
                pack(inst.to_request())
                packed = True
            except sp.OverCapacityError:
                packed = False
            assert yes == packed, (container, areas)
            answers.add(yes)
        assert answers == {True, False}


    @pytest.mark.parametrize("container,circles", [
        ("square:1e-200", []), ("square:1e-160", [{"area": 1.0}]), ("square:1e200", [{"area": 1.0}]),
    ], ids=["capacity-underflows", "ratio-overflows", "capacity-overflows"])
    def test_container_outside_the_float_range_is_unknown(self, capsys, monkeypatch, container,
                                                          circles):
        # the float-range rule answers "unknown"; the ratio of an area to a
        # capacity of 0 or inf has no value, and JSON has no Infinity
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, err = run_cli(["decide", "--container", container, "--circles", "-"], capsys,
                                 stdin=json.dumps(circles), monkeypatch=monkeypatch)
        assert code == 0, err
        assert json.loads(out, parse_constant=refuse) == {"packable": "unknown", "ratio": None}

    def test_areas_whose_exact_sum_overflows_are_unknown(self, capsys, monkeypatch):
        code, out, err = run_cli(["decide", "--container", "square:1", "--circles", "-"], capsys,
                                 stdin='[{"area": 1e308}, {"area": 1e308}]', monkeypatch=monkeypatch)
        assert code == 0, err
        assert json.loads(out) == {"packable": "unknown", "ratio": None}


class TestPack:
    def test_pack_verify_roundtrip(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["gen", "-n", "20", "--ratio", "0.95", "--distribution", "uniform", "--seed", "3"],
            capsys,
        )
        assert code == 0
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(out)
        code, packed, _ = run_cli(["pack", "--circles", str(inst_path)], capsys)
        assert code == 0
        code, report, _ = run_cli(["verify", "-"], capsys, stdin=packed, monkeypatch=monkeypatch)
        assert code == 0, report
        assert report.startswith("PASS")

    def test_over_capacity_diagnostic(self, tmp_path, capsys):
        inst = InstanceDocument(Square(1.0), [0.3, 0.3])
        path = write_instance(tmp_path, "inst.json", inst)
        code, _, err = run_cli(["pack", "--circles", path], capsys)
        assert code == 2
        assert "over-capacity" in err and "ratio" in err

    def test_areas_whose_exact_sum_overflows_are_over_capacity(self, capsys, monkeypatch):
        # in every frame: Square(0.5)'s scales each 1e307 to a finite 4e307,
        # and the ten of them past the float range
        for side, areas, total in ((1.0, [1e308] * 2, "inf"), (0.5, [1e307] * 10, "1e+308")):
            inst = InstanceDocument(Square(side), areas)
            with pytest.raises(sp.OverCapacityError) as refused:
                pack(inst.to_request())
            assert refused.value.ratio == math.inf
            assert decide(inst) == {"packable": "unknown", "ratio": None}
            code, out, err = run_cli(["pack", "--container", f"square:{side}", "--circles", "-"],
                                     capsys, stdin=json.dumps([{"area": a} for a in areas]),
                                     monkeypatch=monkeypatch)
            assert code == 2 and out == ""
            assert err.startswith(f"error: over-capacity: combined area {total} ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("areas", [[1e10]], ids=["area"])
    def test_request_that_overflows_in_the_frame_is_refused(self, capsys, monkeypatch, areas):
        # Square(1e-150)'s frame scales areas by 2**998, where 1e10 overflows
        inst = InstanceDocument(Square(1e-150), areas)
        with pytest.raises(sp.InvalidParameterError, match="overflow in the container's frame"):
            pack(inst.to_request())
        assert decide(inst) == {"packable": "unknown", "ratio": None}
        code, out, err = run_cli(["pack"], capsys, stdin=inst.to_json(), monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow in the container's frame" in err

    def test_svg_output(self, tmp_path, capsys):
        inst = InstanceDocument(Square(1.0), [PHI_SQUARE / 2.0, PHI_SQUARE / 2.0])
        path = write_instance(tmp_path, "inst.json", inst)
        out_path = tmp_path / "fig.svg"
        code, _, _ = run_cli(
            ["pack", "--circles", path, "--format", "svg", "--out", str(out_path)], capsys
        )
        assert code == 0
        svg = out_path.read_text()
        assert svg.count("<circle ") == 2

    def test_instance_from_stdin(self, capsys, monkeypatch):
        # without --circles and --container, pack, decide and approx read the
        # instance from standard input, as in `splitpack gen | splitpack pack`
        code, inst, _ = run_cli(["gen", "-n", "30", "--distribution", "uniform"], capsys)
        assert code == 0
        code, packed, err = run_cli(["pack"], capsys, stdin=inst, monkeypatch=monkeypatch)
        assert code == 0, err
        assert len(json.loads(packed)["placements"]) == 30
        code, report, _ = run_cli(["verify"], capsys, stdin=packed, monkeypatch=monkeypatch)
        assert code == 0 and report.startswith("PASS")
        code, out, _ = run_cli(["decide"], capsys, stdin=inst, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["packable"] == "yes"
        code, out, _ = run_cli(["approx"], capsys, stdin=inst, monkeypatch=monkeypatch)
        assert code == 0 and len(json.loads(out)["packing"]["placements"]) == 30
        # --container alone is still the empty instance, whatever stdin holds
        code, out, _ = run_cli(["pack", "--container", "square:1"], capsys, stdin=inst,
                               monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["placements"] == []
        code, _, err = run_cli(["pack"], capsys, stdin="[]", monkeypatch=monkeypatch)
        assert code == 2 and "needs --container" in err

    def test_container_flag_with_bare_list(self, tmp_path, capsys):
        path = tmp_path / "circles.json"
        path.write_text(json.dumps([{"area": 0.1}, {"area": 0.2}]))
        code, out, _ = run_cli(
            ["pack", "--container", "square:1", "--circles", str(path)], capsys
        )
        assert code == 0
        doc = PackingDocument.from_dict(json.loads(out))
        assert len(doc.to_dict()["placements"]) == 2


class TestApprox:
    def test_single_circle_square(self, tmp_path, capsys):
        inst = InstanceDocument(Square(1.0), [math.pi])
        path = write_instance(tmp_path, "inst.json", inst)
        code, out, _ = run_cli(["approx", "--circles", path], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["container"]["side"] == pytest.approx(1.0 + SQRT2, rel=1e-12)
        assert result["ratio"] == pytest.approx((3.0 + 2.0 * SQRT2) / math.pi, rel=1e-12)

    def test_triangle_family_ratio(self, tmp_path, capsys):
        inst = InstanceDocument(Triangle.from_sides(3.0, 4.0, 5.0), [0.5])
        path = write_instance(tmp_path, "inst.json", inst)
        code, out, _ = run_cli(["approx", "--circles", path], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["ratio"] == pytest.approx(6.0 / math.pi, rel=1e-12)

    def test_header_uses_the_total_the_container_is_sized_by(self, tmp_path, capsys):
        # after the unit circle, a left-to-right sum drops every 2**-53; the
        # exactly rounded total, which min_container sizes by, keeps them
        areas = [1.0] + [2.0**-53] * 10_000
        path = write_instance(tmp_path, "inst.json", InstanceDocument(Square(1.0), areas))
        code, out, _ = run_cli(["approx", "--circles", path], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["lower_bound_area"] == math.fsum(areas) > 1.0
        assert result["ratio"] == pytest.approx(1.0 / PHI_SQUARE, rel=1e-12)

    def test_packing_included_and_valid(self, tmp_path, capsys, monkeypatch):
        inst = InstanceDocument(Square(1.0), [0.4, 0.3, 0.2, 0.1])
        path = write_instance(tmp_path, "inst.json", inst)
        code, out, _ = run_cli(["approx", "--circles", path], capsys)
        assert code == 0
        packing = json.dumps(json.loads(out)["packing"])
        code, report, _ = run_cli(["verify"], capsys, stdin=packing, monkeypatch=monkeypatch)
        assert code == 0, report

    def test_packing_written_as_its_document_text(self, tmp_path, capsys):
        areas = [0.4, 0.3, 0.2, 0.1, 0.05]
        for family in (Square(1.0), Triangle.from_sides(3.0, 4.0, 5.0)):
            path = write_instance(tmp_path, "inst.json", InstanceDocument(family, areas))
            code, out, _ = run_cli(["approx", "--circles", path], capsys)
            assert code == 0
            circles = CircleSet.from_areas(areas)
            container = min_container(circles, family)
            packing = pack(PackRequest(container, circles))
            document = PackingDocument.from_tree(packing, container).to_json()
            assert f'"packing":{document}}}' in out
            result = json.loads(out)
            assert list(result) == ["container", "container_area", "lower_bound_area",
                                    "ratio", "packing"]
            assert result["container"] == container_to_dict(container)

    def test_svg_format(self, tmp_path, capsys):
        areas = [0.4, 0.3, 0.2, 0.1, 0.05]
        for family, outline in ((Square(1.0), "<rect "),
                                (Triangle.from_sides(3.0, 4.0, 5.0), "<polygon ")):
            path = write_instance(tmp_path, "inst.json", InstanceDocument(family, areas))
            code, out, _ = run_cli(["approx", "--circles", path, "--format", "svg"], capsys)
            assert code == 0
            assert out.startswith("<?xml ") and out.rstrip().endswith("</svg>")
            assert out.count("<circle ") == len(areas)
            assert out.count("<rect ") + out.count("<polygon ") == 1
            assert out.count(outline) == 1


class TestModuleEntryPoint:
    @staticmethod
    def env():
        package_root = os.path.dirname(os.path.dirname(sp.__file__))
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        )}

    def test_python_dash_m_runs_the_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "splitpack", "decide", "--container", "square:1",
             "--circles", "-"],
            input=json.dumps([{"area": 0.1}, {"area": 0.2}]),
            capture_output=True, text=True, env=self.env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["packable"] == "yes"

    def test_reader_closed_early(self):
        # as in `splitpack gen ... | splitpack pack` when pack exits at once
        proc = subprocess.Popen(
            [sys.executable, "-m", "splitpack", "gen", "-n", "3000", "--distribution", "uniform"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self.env(),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert code == cli.EXIT_BROKEN_PIPE

    def test_out_file_broken_pipe_is_not_reported_as_stdout(self, capsys, monkeypatch, tmp_path):
        # as with --out naming a FIFO whose reader exited
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError("reader gone")

        monkeypatch.setattr(cli, "open", lambda *a, **k: ClosedPipe(), raising=False)
        with pytest.raises(BrokenPipeError):
            cli.main(["gen", "-n", "3", "--out", str(tmp_path / "fifo")])
        assert "standard output" not in capsys.readouterr().err

    def test_output_is_written_in_slices(self, monkeypatch, tmp_path):
        text = render_packing_svg(uniform_packing(Square(1.0), 3000))
        assert len(text) > 2 * cli._SLICE
        sizes = []

        class Recorder:
            def __init__(self, stream):
                self.stream = stream

            def write(self, piece):
                sizes.append(len(piece))
                return self.stream.write(piece)

            def __getattr__(self, name):
                return getattr(self.stream, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.stream.close()

        path = tmp_path / "out.svg"
        monkeypatch.setattr(cli, "open", lambda *a, **k: Recorder(open(*a, **k)), raising=False)
        cli._write_output(text, str(path))
        assert path.read_text(encoding="utf-8") == text
        assert len(sizes) > 2 and max(sizes) <= cli._SLICE

        sizes.clear()
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", Recorder(stdout))
        cli._write_output(text, None)
        assert stdout.getvalue() == text + "\n"
        assert len(sizes) > 2 and max(sizes) <= cli._SLICE


_SQUARE_DICT = {"type": "square", "side": 1.0}
_CIRCLE = [{"area": 0.01}]


@pytest.mark.parametrize("command,doc", [
    ("pack", {"container": _SQUARE_DICT, "circles": 5}),
    ("pack", {"container": _SQUARE_DICT, "circles": [{"area": "abc"}]}),
    ("pack", {"container": _SQUARE_DICT, "circles": [{"area": [1]}]}),
    # read as a circle of radius 1 when the radius was squared unchecked
    ("pack", {"container": {"type": "square", "side": 10.0}, "circles": [{"radius": -1.0}]}),
    ("verify", {"container": _SQUARE_DICT, "placements": 5}),
    ("verify", {"container": _SQUARE_DICT, "placements": [
        {"x": 0.5, "y": 0.5, "radius": 0.1, "input_index": 1.7}]}),
    ("verify", {"container": _SQUARE_DICT, "placements": [], "subcontainers": [
        {"vertices": [[0, 0], [1, 0], [0, 1]], "rounding_radius": 0.0, "depth": 1.7}]}),
    # a first hat at depth 2 has no parent: verify refuses the tree
    ("verify", {"container": _SQUARE_DICT, "placements": [], "subcontainers": [
        {"vertices": [[0, 0], [1, 0], [0, 1]], "rounding_radius": 0.0, "depth": 2}]}),
    ("verify", {"container": {"type": "triangle", "vertices": [[0, 0], [1, 0], [0]]},
                "placements": []}),
    # side 10 holds a circle of area 1, which is what true used to be read as
    ("pack", {"container": {"type": "square", "side": 10.0}, "circles": [{"area": True}]}),
    ("verify", {"container": _SQUARE_DICT, "placements": [
        {"x": 0.5, "y": 0.5, "radius": 0.1, "input_index": True}]}),
    # judged as a circle at (0.5, 1.0) when strings and booleans were numbers
    ("verify", {"container": _SQUARE_DICT, "placements": [
        {"x": "0.5", "y": True, "radius": 0.1, "input_index": 0}]}),
    # container numbers: each was read as a container that holds the circle
    ("pack", {"container": {"type": "square", "side": True}, "circles": _CIRCLE}),
    ("pack", {"container": {"type": "square", "side": "2"}, "circles": _CIRCLE}),
    ("pack", {"container": {"type": "triangle", "sides": ["3", 4, 5]}, "circles": _CIRCLE}),
    ("pack", {"container": {"type": "triangle", "vertices": [[0, 0], [True, 0], [0, "1"]]},
              "circles": _CIRCLE}),
    ("verify", {"container": {"type": "square", "side": True}, "placements": [
        {"x": 0.5, "y": 0.5, "radius": 0.1, "input_index": 0}]}),
    ("pack", {"container": {"side": 1.0}, "circles": _CIRCLE}),
    ("pack", {"container": {"type": "circle", "radius": 1.0}, "circles": _CIRCLE}),
    ("pack", {"container": {"type": "triangle", "vertices": [[0, 0], [1, 0]]},
              "circles": _CIRCLE}),
    ("pack", {"container": {"type": "triangle"}, "circles": _CIRCLE}),
    ("pack --container square:abc", {"circles": _CIRCLE}),
    ("pack --container circle:1", {"circles": _CIRCLE}),
    ("pack", "abc"),
    ("pack", {"circles": _CIRCLE}),
    # documents that hold no packing: they verified as empty packings
    ("verify", {"container": _SQUARE_DICT, "circles": _CIRCLE}),
    ("verify", {"container": _SQUARE_DICT, "container_area": 1.0, "lower_bound_area": 0.01,
                "ratio": 100.0, "packing": {"container": _SQUARE_DICT, "placements": []}}),
], ids=["circles-int", "area-str", "area-list", "radius-negative", "placements-int",
        "input-index-fraction", "depth-fraction", "depth-without-parent",
        "vertex-short", "area-true", "input-index-true",
        "coordinates-str-true", "side-true", "side-str", "sides-str", "vertices-true-str",
        "verify-side-true", "no-type", "unknown-type", "two-vertices", "no-vertices-no-sides",
        "spec-side-str", "spec-unknown-type", "instance-str", "no-container",
        "instance-document", "approx-output"])
def test_malformed_document_exits_2_with_one_error_line(tmp_path, command, doc):
    # exit 1 from verify means FAIL; a malformed document is invalid input
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    name, *options = command.split()
    argv = ["pack", "--circles", str(path), *options] if name == "pack" else ["verify", str(path)]
    proc = subprocess.run([sys.executable, "-m", "splitpack", *argv], capture_output=True,
                          text=True, env=TestModuleEntryPoint.env(), timeout=60)
    assert proc.returncode == cli.EXIT_INVALID, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


class TestVerifyCommand:
    def test_overlap_detected(self, capsys, monkeypatch):
        doc = {
            "container": {"type": "square", "side": 1.0},
            "placements": [
                {"x": 0.4, "y": 0.5, "radius": 0.2, "input_index": 0},
                {"x": 0.6, "y": 0.5, "radius": 0.2, "input_index": 1},
            ],
            "subcontainers": [],
        }
        code, out, _ = run_cli(
            ["verify", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 1
        assert "circle-circle" in out

    def test_empty_placements_pass(self, capsys, monkeypatch):
        doc = {"container": {"type": "square", "side": 1.0}, "placements": [], "subcontainers": []}
        code, out, _ = run_cli(
            ["verify", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 0

    def test_malformed_document(self, capsys, monkeypatch):
        code, _, err = run_cli(["verify", "-"], capsys, stdin="{}", monkeypatch=monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("indices", [[0, 0], [5]], ids=["duplicated", "out-of-range"])
    def test_lost_or_duplicated_circle_is_refused(self, capsys, monkeypatch, indices):
        # disjoint circles inside the square, but not one per input index 0..n-1
        doc = {
            "container": {"type": "square", "side": 1.0},
            "placements": [{"x": 0.25 + 0.5 * k, "y": 0.5, "radius": 0.1, "input_index": i}
                           for k, i in enumerate(indices)],
            "subcontainers": [],
        }
        code, out, err = run_cli(
            ["verify", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert err == "error: the circles' input indices must be 0..n-1, each once\n"

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, capsys, tolerance):
        # three circles packed in the unit square, circles 0 and 1 moved on
        # top of each other: a nan or inf tolerance passed this, and a
        # negative one fails even a tangent packing
        packing = pack(PackRequest(Square(1.0), CircleSet.from_areas([0.2, 0.15, 0.1])))
        packing.x[1], packing.y[1] = packing.x[0], packing.y[0]
        path = tmp_path / "bad.json"
        path.write_text(PackingDocument(packing).to_json())
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 1 and out.startswith("FAIL")
        code, out, err = run_cli(["verify", str(path), "--tolerance", tolerance], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "tolerance" in err

    def test_hat_with_coincident_vertices_prints_no_warning(self, tmp_path):
        # a hat shrunk to a segment, with a child off it: the side lines of its
        # zero-length edge divided by zero and numpy printed a RuntimeWarning
        doc = {"container": _SQUARE_DICT, "placements": [], "subcontainers": [
            {"vertices": [[0.1, 0.0], [0.5, 0.0], [0.5, 0.0]], "rounding_radius": 0.0, "depth": 1},
            {"vertices": [[0.2, 0.1], [0.3, 0.1], [0.2, 0.2]], "rounding_radius": 0.0, "depth": 2},
        ]}
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "splitpack", "verify", str(path)],
                              capture_output=True, text=True, env=TestModuleEntryPoint.env(),
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout.startswith("FAIL") and "hat-in-parent hat:0.0.0 hat:0.0" in proc.stdout

    @pytest.mark.parametrize("container,placements,subcontainers,refusal", [
        # a hat whose edge lengths overflow, so its slack was NaN and the record passed
        (_SQUARE_DICT, [{"x": 0.5, "y": 0.5, "radius": 0.1, "input_index": 0}],
         [{"vertices": [[0, 0], [1e200, 0], [0, 1e200]], "rounding_radius": 0, "depth": 1}],
         "must be at most 1e+150 in magnitude"),
        # coincident circles, once judged at the tolerance inf of an overflowing
        # diameter; in the container's frame (side 1.67) they overlap and FAIL
        ({"type": "square", "side": 1.5e308}, None, [], None),
        # a hypotenuse that overflows leaves the triangle no size to scale by
        ({"type": "triangle", "vertices": [[0, 0], [1.5e308, 0], [0, 1.5e308]]}, None, [],
         "triangle side lengths must be finite"),
    ], ids=["hat", "square", "triangle"])
    def test_records_beyond_the_float_range_are_refused(self, tmp_path, container, placements,
                                                        subcontainers, refusal):
        coincident = [{"x": 1e307, "y": 1e307, "radius": 1e306, "input_index": k} for k in range(2)]
        doc = {"container": container, "placements": placements or coincident,
               "subcontainers": subcontainers}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "splitpack", "verify", str(path)],
                              capture_output=True, text=True, env=TestModuleEntryPoint.env(),
                              timeout=60)
        if refusal is None:
            assert (proc.returncode, proc.stderr) == (1, "")
            assert proc.stdout.startswith("FAIL") and "circle-circle circle:0 circle:1" in proc.stdout
            return
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert refusal in proc.stderr

    def test_a_tiny_record_is_judged_as_at_unit_scale(self, tmp_path):
        # side 1e-170: the hat lies wholly outside its parent, but squared
        # distances underflowed to 0 and the record passed
        doc = {"container": {"type": "square", "side": 1e-170},
               "placements": [{"x": 3e-171, "y": 3e-171, "radius": 1e-171, "input_index": 0}],
               "subcontainers": [
                   {"vertices": [[0, 0], [2e-171, 0], [0, 2e-171]], "rounding_radius": 0, "depth": 1},
                   {"vertices": [[5e-171, 5e-171], [9e-171, 5e-171], [5e-171, 9e-171]],
                    "rounding_radius": 0, "depth": 2}]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "splitpack", "verify", str(path)],
                              capture_output=True, text=True, env=TestModuleEntryPoint.env(),
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout.startswith("FAIL")
        assert "hat-in-parent hat:0.0.0 hat:0.0: slack -8.602e-171" in proc.stdout

    def test_invalid_json(self, capsys, monkeypatch):
        code, _, err = run_cli(["verify", "-"], capsys, stdin="{not json", monkeypatch=monkeypatch)
        assert code == 2


class TestGen:
    def test_twincircle_worst_case(self, capsys):
        code, out, _ = run_cli(["gen", "-n", "2", "--ratio", "1.0"], capsys)
        assert code == 0
        doc = InstanceDocument.from_dict(json.loads(out))
        assert doc.areas == [PHI_SQUARE / 2.0, PHI_SQUARE / 2.0]

    def test_equal_power_of_two(self, capsys):
        code, out, _ = run_cli(["gen", "-n", "16", "--ratio", "1.0"], capsys)
        doc = InstanceDocument.from_dict(json.loads(out))
        assert len(doc.areas) == 16
        assert all(a == doc.areas[0] for a in doc.areas)

    def test_seed_determinism(self, capsys):
        args = ["gen", "-n", "50", "--ratio", "0.8", "--distribution", "uniform", "--seed", "5"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        _, out3, _ = run_cli(args[:-1] + ["6"], capsys)
        assert out1 != out3

    def test_generated_instances_are_feasible(self, capsys):
        for dist in ("equal", "geometric", "uniform"):
            for container in ("square:2", "triangle:3,4,5"):
                code, out, _ = run_cli(
                    ["gen", "-n", "40", "--ratio", "1.0", "--distribution", dist,
                     "--container", container], capsys,
                )
                assert code == 0
                doc = InstanceDocument.from_dict(json.loads(out))
                capacity = sp.packable_area(doc.container)
                assert math.fsum(doc.areas) <= capacity * (1.0 + 1e-12)
                assert min(doc.areas) > 0.0

    def test_bad_parameters(self, capsys):
        assert run_cli(["gen", "-n", "0"], capsys)[0] == 2
        assert run_cli(["gen", "-n", "5", "--ratio", "1.5"], capsys)[0] == 2
