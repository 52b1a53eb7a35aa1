"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import ast
import contextlib
import inspect
import json
import math
import time

import numpy as np
import pytest

import splitpack as sp
import splitpack.verifier as verifier_module
from splitpack import (
    PHI_SQUARE,
    CircleSet,
    InstanceDocument,
    PackRequest,
    PackStats,
    Square,
    Triangle,
    critical_density,
    pack,
    packable_area,
    verify,
    weighted_split,
)
from splitpack.cli import main as cli_main
from conftest import random_areas, random_non_acute_triangle, triangle_from_angles
from reference_geometry import (
    ConjugatedPair,
    check_conjugated,
    hat_dimensions,
    left_to_right_sum,
    min_guarantee,
    split_key,
    triangle_incircle,
)

SQRT2 = math.sqrt(2.0)


@contextlib.contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} PASS: {description} ({elapsed:.1f}s)")


def test_criterion_1_square_worst_case():
    with criterion(1, "square worst case packs tangent at the critical density"):
        for side in (1.0, 2.7):
            half = PHI_SQUARE * side * side / 2.0
            areas = [half, half]
            root = pack(PackRequest(Square(side), CircleSet.from_areas(areas)))
            report = verify(root, tolerance=1e-9 * side, expected_areas=areas)
            assert report.passed, report.summary()
            assert report.worst_slack <= 1e-9 * side  # genuinely tight, not loose
            r = side / (2.0 + SQRT2)
            leaves = sorted(root.circle_leaves(), key=lambda n: n.input_index)
            for got, expected in zip(
                leaves, ((r, r), (side - r, side - r))
            ):
                assert abs(got.shape.center.x - expected[0]) <= 1e-9 * side
                assert abs(got.shape.center.y - expected[1]) <= 1e-9 * side


def test_criterion_2_triangle_critical_density():
    with criterion(2, "triangles pack their incircle area; density formula cross-checks"):
        assert critical_density(Triangle.from_sides(3, 4, 5)) == pytest.approx(
            math.pi / 6.0, rel=1e-12
        )
        rng = np.random.default_rng(202)
        for i in range(100):
            tri = random_non_acute_triangle(rng, right=(i % 2 == 0))
            incircle_area = triangle_incircle(tri).area
            # formula versus independent area ratio
            assert critical_density(tri) == pytest.approx(
                incircle_area / tri.area, rel=1e-12
            )
            # a single circle the size of the incircle
            root = pack(PackRequest(tri, CircleSet.from_areas([incircle_area])))
            scale = max(tri.side_lengths)
            assert verify(root, tolerance=1e-9 * scale).passed
            # a random set filling the incircle area exactly
            n = int(rng.integers(2, 40))
            areas = random_areas(rng, n, incircle_area)
            root = pack(PackRequest(tri, CircleSet.from_areas(areas)))
            report = verify(root, tolerance=1e-9 * scale, expected_areas=areas)
            assert report.passed, report.summary()


def test_criterion_3_randomized_soundness():
    with criterion(3, "10^4 random instances all pass the verifier"):
        rng = np.random.default_rng(303)
        containers = [Square(1.0)]
        while len(containers) < 21:
            containers.append(
                random_non_acute_triangle(rng, right=(len(containers) % 2 == 0))
            )
        capacities = [packable_area(c) for c in containers]
        failures = 0
        start = time.perf_counter()
        for i in range(10_000):
            pick = int(rng.integers(0, len(containers)))
            container, capacity = containers[pick], capacities[pick]
            n = int(rng.integers(1, 201))
            fraction = float(rng.uniform(0.0, 1.0))
            total = capacity if (fraction == 0.0 or i % 10 == 0) else fraction * capacity
            areas = random_areas(rng, n, total)
            root = pack(PackRequest(container, CircleSet.from_areas(areas)))
            report = verify(root, expected_areas=areas)
            if not report.passed:
                failures += 1
        elapsed = time.perf_counter() - start
        print(f"  [criterion 3] 10000 instances in {elapsed:.1f}s")
        assert failures == 0


def test_criterion_4_splitting_guarantees():
    with criterion(4, "10^4 random (set, key) pairs keep the split guarantees"):
        rng = np.random.default_rng(404)
        for _ in range(10_000):
            n = int(rng.integers(1, 50))
            areas = list(rng.random(n) * float(rng.uniform(0.1, 10.0)) + 1e-6)
            f1, f2 = key = (float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.05, 20.0)))
            cs = CircleSet.from_areas(areas)
            areas1, _, sum1, areas2, _, sum2 = weighted_split(cs.areas, cs.indices, f1, f2)
            slack = 1e-12 * left_to_right_sum(cs.areas)
            for mine, mine_sum, other_sum, f_mine, f_other in (
                (areas1, sum1, sum2, f1, f2),
                (areas2, sum2, sum1, f2, f1),
            ):
                if mine:
                    bound = mine_sum - f_mine * other_sum / f_other
                    assert mine[-1] >= bound - slack
            g1 = min_guarantee(sum1, sum2, f1, f2)
            g2 = min_guarantee(sum2, sum1, f2, f1)
            pair = ConjugatedPair((sum1, g1), (sum2, g2))
            assert check_conjugated(pair, left_to_right_sum(cs.areas), 0.0, key)


def test_criterion_5_proof_inequality_replay():
    with criterion(5, "numeric sweeps of the placement inequalities hold"):
        for a in (0.37, 1.0, math.pi, 9.21):
            dims_full = hat_dimensions(a, 0.0)
            side = math.sqrt(a / PHI_SQUARE)
            for a1 in np.linspace(0.0, a / 2.0, 1200):
                a1 = float(a1)
                a2 = a - a1
                d1 = hat_dimensions(a1, 0.0).d_corner if a1 > 0 else 0.0
                d2 = hat_dimensions(a2, 0.0).d_corner
                # corner-anchored hats stay apart along the container base
                assert (dims_full.w - d1 - d2) / dims_full.w >= -1e-12
                # the rounded larger hat still fits along the diagonal
                w_corner = hat_dimensions(a2, a2 - a1).w_corner
                assert (dims_full.d - w_corner) / dims_full.d >= -1e-12
                # square case: heights against the diagonal, diagonal against the side
                h_sum = (hat_dimensions(a1, 0.0).h if a1 > 0 else 0.0) + hat_dimensions(a2, 0.0).h
                assert (side * SQRT2 - h_sum) / (side * SQRT2) >= -1e-12
                d_rounded = hat_dimensions(a2, a2 - a1).d
                assert (side - d_rounded) / side >= -1e-12
        # rounding bound keeps an overshooting hat inside its container leg
        rng = np.random.default_rng(505)
        for _ in range(2000):
            a = float(rng.uniform(0.1, 10.0))
            f = float(rng.uniform(0.01, 0.99)) * a
            a_i = float(rng.uniform(f, a))
            b_i = a * (a_i - f) / (a - f)
            lhs = math.sqrt(a_i) - (1.0 - math.sqrt(f / a)) * math.sqrt(b_i)
            assert (math.sqrt(f) - lhs) / math.sqrt(a) >= -1e-12
        # the split key components always cover the incircle
        for _ in range(1000):
            tri = random_non_acute_triangle(rng, right=bool(rng.random() < 0.5))
            f1, f2 = split_key(tri)
            a = triangle_incircle(tri).area
            assert (f1 + f2 - a) / a >= -1e-12


def test_criterion_6_approximation_factor(tmp_path, capsys):
    with criterion(6, "smallest-container mode hits the guaranteed area ratio"):
        rng = np.random.default_rng(606)
        families = ["square:1", "triangle:3,4,5", "triangle:2,3.5,4.5"]
        for i in range(100):
            family = families[i % len(families)]
            n = int(rng.integers(1, 30))
            areas = list(rng.random(n) + 0.01)
            container = sp.documents.parse_container_spec(family)
            inst = InstanceDocument(container, areas)
            path = tmp_path / f"inst_{i}.json"
            path.write_text(inst.to_json())
            code = cli_main(["approx", "--circles", str(path)])
            out = capsys.readouterr().out
            assert code == 0
            result = json.loads(out)
            expected = 1.0 / critical_density(container)
            assert result["ratio"] == pytest.approx(expected, rel=1e-12)
        # sanity on the constants: ~1.8552 for squares, 6/pi for (3,4,5)
        assert (3.0 + 2.0 * SQRT2) / math.pi == pytest.approx(1.8552, abs=1e-4)
        # the single-unit-circle square instance realizes ~1.457 against the
        # true optimum, the side-2 square
        container = sp.min_container(CircleSet.from_areas([math.pi]), "square")
        realized = container.area / 4.0
        assert realized == pytest.approx(1.457, abs=1e-3)
        assert realized <= (3.0 + 2.0 * SQRT2) / math.pi


def test_criterion_7_complexity():
    with criterion(7, "packing 10000 circles is fast with bounded work"):
        n = 10_000
        rng = np.random.default_rng(707)
        weights = rng.random(n)
        areas = list(weights * (PHI_SQUARE / weights.sum()))
        circles = CircleSet.from_areas(areas)
        stats = PackStats()
        start = time.perf_counter()
        root = pack(PackRequest(Square(1.0), circles), stats)
        elapsed = time.perf_counter() - start
        print(f"  [criterion 7] pack n={n}: {elapsed:.2f}s, "
              f"moves={stats.element_moves}, hats={stats.hat_count}")
        assert elapsed < 5.0
        assert stats.element_moves <= n * (n + 1) // 2
        assert stats.hat_count <= 2 * n - 2
        assert len(root.circle_leaves()) == n


def test_criterion_8_acute_counterexample_rejected(tmp_path, capsys):
    with criterion(8, "the open acute case is rejected as unsupported"):
        # acute container with an angle of pi/10 and unit incircle area,
        # paired with the circle set {0.55, 0.15, 0.15, 0.15}
        tri = triangle_from_angles(math.pi / 10.0, 0.45 * math.pi)
        assert not tri.is_non_acute
        scale = math.sqrt(1.0 / triangle_incircle(tri).area)
        tri = tri.scaled_about((0.0, 0.0), scale)
        assert triangle_incircle(tri).area == pytest.approx(1.0, rel=1e-12)
        inst = InstanceDocument(tri, [0.55, 0.15, 0.15, 0.15])
        path = tmp_path / "acute.json"
        path.write_text(inst.to_json())
        code = cli_main(["decide", "--circles", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "unsupported container" in captured.err


def test_criterion_9_verifier_independence():
    with criterion(9, "the verifier has no dependency on packer placement code"):
        source = inspect.getsource(verifier_module)
        tree = ast.parse(source)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
        assert not any("packer" in name for name in imported)
        forbidden = {
            "pack",
            "place_hats_in_square",
            "place_subhats_in_hat",
            "place_circle_in_hat",
            "hat_dimensions",
            "min_container",
            "Packing",
        }
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        } | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not (used & forbidden)
