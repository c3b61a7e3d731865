import json
import logging
import math
import random
import re

import pytest

import gjk2d.datasets
from gjk2d.baseline import cso_contains_origin, oracle_distance, sat_intersects
from gjk2d.datasets import (
    DatasetError,
    DatasetSpec,
    PairCase,
    Regime,
    derive_case_seed,
    generate_dataset,
    group_by_regime,
    make_pair,
    random_convex_polygon,
    read_dataset,
    verify_regime,
    write_dataset,
)

from oracle_utils import cross, signed_area, sub, vertices


class TestRandomConvexPolygon:
    def test_minimal_triangle(self):
        poly = random_convex_polygon(3, random.Random(0))
        assert len(poly) == 3
        assert signed_area(poly) > 0

    def test_exact_vertex_count_and_disc_bound(self):
        rng = random.Random(1)
        for n in (3, 4, 8, 12, 16, 20, 24):
            poly = random_convex_polygon(n, rng)
            assert len(poly) == n
            radii = [math.hypot(x, y) for x, y in zip(poly.xs, poly.ys)]
            assert max(radii) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = random_convex_polygon(24, random.Random(42))
        b = random_convex_polygon(24, random.Random(42))
        assert a == b

    def test_strict_convexity_margin(self):
        rng = random.Random(3)
        for _ in range(100):
            poly = random_convex_polygon(24, rng)
            verts = vertices(poly)
            n = len(verts)
            for i in range(n):
                a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
                assert cross(sub(b, a), sub(c, b)) > 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_convex_polygon(2, random.Random(0))


class TestMakePair:
    SPEC = DatasetSpec(vertex_count=8, cases_per_regime=10, seed=7)

    def test_distant_regime_invariant(self):
        case = make_pair(self.SPEC, Regime.DISTANT, 1001)
        assert oracle_distance(case.p, case.q).distance > 1e-6
        assert verify_regime(case)

    def test_touching_regime_invariant(self):
        case = make_pair(self.SPEC, Regime.TOUCHING, 1002)
        assert oracle_distance(case.p, case.q).distance <= 1e-7
        assert verify_regime(case)

    def test_overlap_regime_invariant(self):
        case = make_pair(self.SPEC, Regime.OVERLAP, 1003)
        assert sat_intersects(case.p, case.q)
        assert verify_regime(case)

    def test_deterministic(self):
        a = make_pair(self.SPEC, Regime.TOUCHING, 555)
        b = make_pair(self.SPEC, Regime.TOUCHING, 555)
        assert a == b

    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_verify_regime_judges_every_attempt(self, monkeypatch, caplog, regime):
        # A refused first attempt is logged once and retried on the same
        # stream: the accepted pair is the stream's second placement.
        judged = []

        def refuse_first(case, *answers):
            judged.append(case)
            return len(judged) > 1 and verify_regime(case, *answers)

        monkeypatch.setattr(gjk2d.datasets, "verify_regime", refuse_first)
        with caplog.at_level(logging.WARNING, logger="gjk2d.datasets"):
            case = make_pair(self.SPEC, regime, 2024)
        assert len(judged) == 2 and judged[-1] is case
        assert [r.getMessage() for r in caplog.records] == [
            f"regenerating {regime.value} case (seed 2024, attempt 1 failed verification)"
        ]
        monkeypatch.undo()
        assert judged[0] == make_pair(self.SPEC, regime, 2024)
        rng = random.Random(2024)
        place = gjk2d.datasets._PLACEMENTS[regime]
        place(self.SPEC.vertex_count, rng)
        assert (case.p, case.q) == place(self.SPEC.vertex_count, rng)
        assert case.regime is regime and case.seed == 2024

    def test_case_seed_derivation_is_stable(self):
        s1 = derive_case_seed(7, 8, Regime.DISTANT, 0)
        s2 = derive_case_seed(7, 8, Regime.DISTANT, 0)
        assert s1 == s2
        assert s1 != derive_case_seed(7, 8, Regime.DISTANT, 1)
        assert s1 != derive_case_seed(7, 8, Regime.TOUCHING, 0)


class TestDatasetFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=6, seed=11)
        cases = generate_dataset(spec)
        path = tmp_path / "pairs.jsonl"
        write_dataset(path, spec, cases)
        header, back = read_dataset(path)
        assert back == cases
        assert header == spec

    def test_empty_dataset_round_trips(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=1, seed=0)
        path = tmp_path / "empty.jsonl"
        write_dataset(path, spec, [])
        header, back = read_dataset(path)
        assert back == []
        assert header == spec

    def test_regime_blocks_in_order(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=3, seed=1)
        cases = generate_dataset(spec)
        assert [c.regime for c in cases] == (
            [Regime.DISTANT] * 3 + [Regime.TOUCHING] * 3 + [Regime.OVERLAP] * 3
        )
        groups = group_by_regime(cases)
        assert all(len(groups[r]) == 3 for r in Regime)

    def test_corrupted_line_names_line_number(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=2, seed=3)
        cases = generate_dataset(spec)
        path = tmp_path / "bad.jsonl"
        write_dataset(path, spec, cases)
        lines = path.read_text().splitlines()
        original = lines[3]
        record = json.loads(original)
        record["p"]["vertices"][1] = record["p"]["vertices"][0]  # duplicate vertex
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 4"):
            read_dataset(path)
        record["p"]["vertices"][1] = ["a", 0]
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 4: vertex 1 has a non-numeric coordinate"):
            read_dataset(path)
        # json reads 1e999 as infinity, which int() rejects with OverflowError
        lines[3], count = re.subn(r'"seed": ?[0-9]+', '"seed":1e999', original)
        assert count == 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 4: malformed field"):
            read_dataset(path)
        lines[0], count = re.subn(r'"vertex_count": ?4', '"vertex_count":1e999', lines[0])
        assert count == 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 1: malformed header field"):
            read_dataset(path)

    def test_coordinate_beyond_bound_names_line_and_vertex(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=1, seed=3)
        path = tmp_path / "huge.jsonl"
        write_dataset(path, spec, generate_dataset(spec))
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["q"]["vertices"] = [[-2, -2], [1e308, -2], [1e308, 1e308], [-2, 1e308]]
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 3: vertex 1 has a coordinate"):
            read_dataset(path)

    def test_invalid_json_line_names_line_number(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=1, seed=3)
        path = tmp_path / "garbled.jsonl"
        write_dataset(path, spec, generate_dataset(spec))
        text = path.read_text().splitlines()
        text[2] = "{not json"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DatasetError, match="line 3"):
            read_dataset(path)

    @pytest.mark.parametrize("seed", ["not-a-number", "77", 77.0, True, None])
    def test_malformed_seed_field_names_line(self, tmp_path, seed):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=1, seed=3)
        path = tmp_path / "badseed.jsonl"
        write_dataset(path, spec, generate_dataset(spec))
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["seed"] = seed
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 2: malformed field \\('seed' must be"):
            read_dataset(path)

    def test_polygon_vertex_count_must_match_header(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=1, seed=3)
        case = generate_dataset(spec)[0]
        triangle = random_convex_polygon(3, random.Random(4))
        path = tmp_path / "triangle.jsonl"
        write_dataset(path, spec, [case, PairCase(case.p, triangle, case.regime, case.seed)])
        with pytest.raises(DatasetError, match="line 3: 'q' has 3 vertices, not the header's vertex_count 4"):
            read_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="line 1"):
            read_dataset(path)

    def test_persisted_cases_verify_after_read(self, tmp_path):
        spec = DatasetSpec(vertex_count=8, cases_per_regime=5, seed=21)
        path = tmp_path / "verify.jsonl"
        write_dataset(path, spec, generate_dataset(spec))
        _, cases = read_dataset(path)
        assert all(verify_regime(c) for c in cases)


class TestVerifyRegime:
    SPEC = DatasetSpec(vertex_count=8, cases_per_regime=10, seed=13)

    @pytest.fixture(scope="class")
    def cases(self):
        return generate_dataset(self.SPEC)

    def test_passed_answers_change_nothing(self, cases):
        for case in cases:
            assert verify_regime(case) is True
            assert verify_regime(case, oracle_distance(case.p, case.q)) is True

    @pytest.mark.parametrize(
        "regime,label",
        [
            (Regime.DISTANT, Regime.OVERLAP),
            (Regime.OVERLAP, Regime.DISTANT),
            (Regime.TOUCHING, Regime.DISTANT),
            (Regime.OVERLAP, Regime.TOUCHING),
        ],
        ids=["distant-as-overlap", "overlap-as-distant", "touching-as-distant", "overlap-as-touching"],
    )
    def test_mislabelled_pairs_fail_either_way(self, cases, regime, label):
        for case in group_by_regime(cases)[regime]:
            relabelled = PairCase(case.p, case.q, label, case.seed)
            assert verify_regime(relabelled) is False
            assert verify_regime(relabelled, oracle_distance(case.p, case.q)) is False


    @pytest.mark.parametrize("vertices", [3, 4, 8, 24, 64])
    def test_strict_containment_implies_sat_on_overlap_candidates(self, monkeypatch, vertices):
        # Overlap pairs are accepted on strict containment alone. On every
        # placed candidate, accepted or not, that verdict implies the
        # closed SAT's, so requiring the SAT too would reject no pair.
        candidates = []
        place = gjk2d.datasets._place_overlap

        def recording(n, rng):
            pair = place(n, rng)
            if pair is not None:
                candidates.append(pair)
            return pair

        monkeypatch.setitem(gjk2d.datasets._PLACEMENTS, Regime.OVERLAP, recording)
        spec = DatasetSpec(vertex_count=vertices, cases_per_regime=60, seed=3)
        for index in range(spec.cases_per_regime):
            make_pair(spec, Regime.OVERLAP, derive_case_seed(3, vertices, Regime.OVERLAP, index))
        assert len(candidates) >= spec.cases_per_regime
        for p, q in candidates:
            assert not cso_contains_origin(p, q) or sat_intersects(p, q)


class TestSpecValidation:
    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            DatasetSpec(vertex_count=2, cases_per_regime=1, seed=0)

    def test_rejects_bad_case_count(self):
        with pytest.raises(ValueError):
            DatasetSpec(vertex_count=4, cases_per_regime=0, seed=0)
