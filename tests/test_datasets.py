import json
import logging
import math
import random
import re

import pytest

import gjk2d.datasets
from gjk2d.baseline import cso_contains_origin, oracle_distance, sat_intersects
from gjk2d.datasets import (
    MAX_ATTEMPTS,
    DatasetError,
    DatasetSpec,
    PairCase,
    Regime,
    RegimeConstructionFailed,
    derive_case_seed,
    generate_dataset,
    group_by_regime,
    make_pair,
    random_convex_polygon,
    read_dataset,
    verify_regime,
    write_dataset,
)
from gjk2d.geometry import ConvexPolygon, NotStrictlyConvex, PolygonError

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

    def test_refused_attempts_end_in_construction_failure(self, monkeypatch, caplog):
        monkeypatch.setattr(gjk2d.datasets, "verify_regime", lambda case, *answers: False)
        with caplog.at_level(logging.WARNING, logger="gjk2d.datasets"):
            with pytest.raises(RegimeConstructionFailed, match=f"after {MAX_ATTEMPTS} attempts"):
                make_pair(self.SPEC, Regime.TOUCHING, 2024)
        assert len(caplog.records) == MAX_ATTEMPTS

    # A centered hexagon of radius 1, which generation leaves exactly as
    # given, and the same ring with vertex 1 moved onto the chord from
    # vertex 0 to vertex 2, which ConvexPolygon rejects as not strictly
    # convex.
    HEXAGON = ([1.0, 0.5, -0.5, -1.0, -0.5, 0.5], [0.0, 0.75, 0.75, 0.0, -0.75, -0.75])
    COLLINEAR = ([1.0, 0.25, -0.5, -1.0, -0.5, 0.5], [0.0, 0.375, 0.75, 0.0, -0.75, -0.75])

    @classmethod
    def reject_first_candidate(cls, monkeypatch):
        """Generation yields the collinear ring, then the hexagon; each draw
        takes one number from the stream, as a Valtr draw takes many."""
        candidates = iter([cls.COLLINEAR])

        def valtr(rng, n):
            rng.random()
            return next(candidates, cls.HEXAGON)

        monkeypatch.setattr(gjk2d.datasets, "_valtr_points", valtr)

    @staticmethod
    def reject_first_transform(monkeypatch):
        """The first rigid motion raises, as ConvexPolygon would on its
        rebuilt polygon; the rest move as usual."""
        real = gjk2d.datasets.apply_transform
        calls = []

        def transform(poly, *motion):
            calls.append(motion)
            if len(calls) == 1:
                raise NotStrictlyConvex(0)
            return real(poly, *motion)

        monkeypatch.setattr(gjk2d.datasets, "apply_transform", transform)

    @pytest.mark.parametrize("rejected", ["candidate", "transform"])
    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_invalid_polygon_is_a_failed_attempt(self, monkeypatch, caplog, regime, rejected):
        # A PolygonError from the placement is logged once and retried on
        # the same stream: the accepted pair is the stream's second placement.
        reject_first = getattr(self, f"reject_first_{rejected}")
        reject_first(monkeypatch)
        spec = DatasetSpec(vertex_count=6, cases_per_regime=1, seed=7)
        with caplog.at_level(logging.WARNING, logger="gjk2d.datasets"):
            case = make_pair(spec, regime, 2024)
        assert [r.getMessage() for r in caplog.records] == [
            f"regenerating {regime.value} case (seed 2024, attempt 1 placed an invalid polygon)"
        ]
        assert verify_regime(case)
        reject_first(monkeypatch)
        rng = random.Random(2024)
        place = gjk2d.datasets._PLACEMENTS[regime]
        with pytest.raises(PolygonError):
            place(6, rng)
        assert (case.p, case.q) == place(6, rng)

    def test_always_invalid_candidates_end_in_construction_failure(self, monkeypatch, caplog):
        with pytest.raises(PolygonError):
            ConvexPolygon(zip(*self.COLLINEAR))
        monkeypatch.setattr(gjk2d.datasets, "_valtr_points", lambda rng, n: self.COLLINEAR)
        with caplog.at_level(logging.WARNING, logger="gjk2d.datasets"):
            with pytest.raises(RegimeConstructionFailed, match=f"after {MAX_ATTEMPTS} attempts"):
                make_pair(self.SPEC, Regime.DISTANT, 2024)
        assert [r.getMessage() for r in caplog.records] == [
            f"regenerating distant case (seed 2024, attempt {k} placed an invalid polygon)"
            for k in range(1, MAX_ATTEMPTS + 1)
        ]

    def test_refused_placement_is_retried_without_patching(self, caplog):
        # Case 10 of the overlap block of DatasetSpec(3, 20, 2): its first
        # placement finds no target inside the thin triangle P, so make_pair
        # logs one retry and accepts the stream's second placement.
        spec = DatasetSpec(vertex_count=3, cases_per_regime=20, seed=2)
        seed = derive_case_seed(2, 3, Regime.OVERLAP, 10)
        assert seed == 605652142714752971
        assert gjk2d.datasets._place_overlap(3, random.Random(seed)) is None
        with caplog.at_level(logging.WARNING, logger="gjk2d.datasets"):
            case = make_pair(spec, Regime.OVERLAP, seed)
        assert [r.getMessage() for r in caplog.records] == [
            f"regenerating overlap case (seed {seed}, attempt 1 placed no pair)"
        ]
        assert case.regime is Regime.OVERLAP and case.seed == seed
        assert verify_regime(case)

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

    def test_empty_dataset_is_rejected(self, tmp_path):
        # cases_per_regime is at least 1, so a header alone is never a dataset
        spec = DatasetSpec(vertex_count=4, cases_per_regime=1, seed=0)
        path = tmp_path / "empty.jsonl"
        write_dataset(path, spec, [])
        with pytest.raises(
            DatasetError, match="line 2: 0 distant cases, not the header's cases_per_regime 1"
        ):
            read_dataset(path)

    def test_regime_case_count_must_match_header(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=3, seed=2)
        path = tmp_path / "count.jsonl"
        write_dataset(path, spec, generate_dataset(spec))
        lines = path.read_text().splitlines()
        # a missing case is named past the end of the file
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(
            DatasetError, match="line 10: 2 overlap cases, not the header's cases_per_regime 3"
        ):
            read_dataset(path)
        # an extra case is named at its own line, whatever its seed
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(
            DatasetError, match="line 11: more than the header's cases_per_regime 3 distant cases"
        ):
            read_dataset(path)

    def test_case_seed_must_match_its_regime_and_index(self, tmp_path):
        spec = DatasetSpec(vertex_count=4, cases_per_regime=2, seed=4)
        cases = generate_dataset(spec)
        path = tmp_path / "seeds.jsonl"
        write_dataset(path, spec, cases)
        lines = path.read_text().splitlines()
        # two cases of one regime swapped: each is read at the other's index
        swapped = [lines[0], lines[2], lines[1]] + lines[3:]
        path.write_text("\n".join(swapped) + "\n")
        with pytest.raises(
            DatasetError, match=f"line 2: seed {cases[1].seed} is not the seed of distant case 0"
        ):
            read_dataset(path)
        # a relabelled case keeps the seed of its old regime: in place of a
        # dropped distant case it is read as distant case 1
        relabelled = lines[3].replace('"regime":"touching"', '"regime":"distant"')
        path.write_text("\n".join(lines[:2] + [relabelled] + lines[4:]) + "\n")
        with pytest.raises(
            DatasetError, match=f"line 3: seed {cases[2].seed} is not the seed of distant case 1"
        ):
            read_dataset(path)

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
        cases = generate_dataset(spec)
        triangle = random_convex_polygon(3, random.Random(4))
        cases[1] = PairCase(cases[1].p, triangle, cases[1].regime, cases[1].seed)
        path = tmp_path / "triangle.jsonl"
        write_dataset(path, spec, cases)
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
