import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gjk2d.baseline
import gjk2d.bench
import gjk2d.cli
import gjk2d.datasets
import gjk2d.gjk
from gjk2d.baseline import oracle_distance
from gjk2d.bench import CSV_COLUMNS, Algorithm, run_benchmark
from gjk2d.cli import main
from gjk2d.datasets import DatasetSpec, PairCase, Regime, read_dataset, write_dataset
from gjk2d.geometry import ConvexPolygon
from gjk2d.gjk import CollisionExit, Termination, distance, intersects

SRC = Path(__file__).resolve().parent.parent / "src"
SQUARE = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
FAR_SQUARE = {"vertices": [[3, 0], [4, 0], [4, 1], [3, 1]]}


@pytest.fixture
def small_dataset(tmp_path):
    path = tmp_path / "pairs.jsonl"
    code = main(["gen", "--vertices", "4", "--cases", "4", "--seed", "42", str(path)])
    assert code == 0
    return path


def write_polygon(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestGen:
    def test_writes_counts_and_file(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        code = main(["gen", "--vertices", "4", "--cases", "3", "--seed", "1", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "distant: 3 cases" in out
        assert "touching: 3 cases" in out
        assert "overlap: 3 cases" in out
        assert len(path.read_text().splitlines()) == 10  # header + 9 cases

    def test_makes_no_sat_call(self, tmp_path, monkeypatch):
        # Overlap acceptance is strict containment in P - Q alone, so
        # generation never pays for the O((n+m)^2) SAT.
        calls = []
        sat = gjk2d.datasets.sat_intersects

        def counting(p, q):
            calls.append((p, q))
            return sat(p, q)

        for module in (gjk2d.cli, gjk2d.datasets):
            monkeypatch.setattr(module, "sat_intersects", counting)
        path = tmp_path / "out.jsonl"
        assert main(["gen", "--vertices", "8", "--cases", "3", str(path)]) == 0
        assert calls == []

    @pytest.mark.parametrize(
        "vertices,cases,digest",
        [
            (3, 20, "76d8bb62fe6271f6ea7acf93d0d27b050254b5d0ce377d765d0adf790cd7b230"),
            (4, 20, "2f2a3ef4ae8437140bfa74a6b44688f88151a977b2d105ee403e4946f4c76c44"),
            (8, 20, "30ee80c6350dc2eecf2104badde3e9d42b199d0c6f612a0398016712408e2c88"),
            (24, 20, "32321a5c3f2bded51d04df932f54e1bf86ba87e27f5341c17f2b047017ea3e85"),
            (64, 5, "bf2cab528bedc5ded650a584c5cdd68fe0a61f659c6309429895d08964343158"),
        ],
    )
    def test_output_bytes_are_pinned(self, tmp_path, vertices, cases, digest):
        # Any oracle change that flips an accept/retry decision changes these.
        path = tmp_path / "pinned.jsonl"
        argv = ["gen", "--vertices", str(vertices), "--cases", str(cases), "--seed", "5"]
        assert main(argv + [str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_huge_polygons_generate_and_check(self, tmp_path, capsys):
        # The generator takes what ConvexPolygon accepts, whose smallest
        # turn shrinks with n (a median of about 2e-12 at 2,048 vertices).
        path = tmp_path / "huge.jsonl"
        assert main(["gen", "--vertices", "2048", "--cases", "1", "--seed", "1", str(path)]) == 0
        assert main(["check", str(path)]) == 0
        assert "wrote 3 cases" in capsys.readouterr().out

    def test_three_vertices_is_legal(self, tmp_path):
        path = tmp_path / "tri.jsonl"
        assert main(["gen", "--vertices", "3", "--cases", "2", "--seed", "5", str(path)]) == 0

    def test_two_vertices_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--vertices", "2", "--cases", "1", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2


class TestCheck:
    def test_fresh_dataset_passes(self, small_dataset, capsys):
        assert main(["check", str(small_dataset)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "distant: 4/4 pass" in out
        assert "MaxIterations" not in out

    def test_runs_each_oracle_once_per_case(self, small_dataset, capsys, monkeypatch):
        _, cases = read_dataset(small_dataset)
        # a touching pair with the origin inside P - Q still takes one build
        assert any(
            c.regime is Regime.TOUCHING
            and oracle_distance(c.p, c.q).intersecting
            for c in cases
        )
        calls = dict.fromkeys(
            ("sat_intersects", "oracle_distance", "cso_contains_origin", "_difference_polygon"), 0
        )

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (gjk2d.cli, gjk2d.datasets):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        build = gjk2d.baseline._difference_polygon
        monkeypatch.setattr(
            gjk2d.baseline, "_difference_polygon", counting("_difference_polygon", build)
        )
        assert main(["check", str(small_dataset)]) == 0
        assert "all checks passed" in capsys.readouterr().out
        overlaps = sum(c.regime is Regime.OVERLAP for c in cases)
        assert calls == {
            "sat_intersects": 0,
            "oracle_distance": len(cases),
            "cso_contains_origin": overlaps,
            # P - Q builds: oracle_distance's, plus cso_contains_origin's on overlap
            "_difference_polygon": len(cases) + overlaps,
        }

    def test_output_is_pinned(self, tmp_path, capsys):
        # this dataset has two touching pairs on the binary/oracle knife edge
        path = tmp_path / "knife.jsonl"
        assert main(["gen", "--vertices", "4", "--cases", "3", "--seed", "12", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == (
            "distant: 3/3 pass, worst abs distance error 0.000e+00\n"
            "distant exits: distance Converged=3; intersects SeparatingHyperplane=3; "
            "mean support calls distance 2.333 intersects 1.000\n"
            "touching: 3/3 pass, worst abs distance error 2.082e-16\n"
            "touching exits: distance ContainsOrigin=3; "
            "intersects VerticalAngleEnclosure=1 SubdistanceEnclosure=2; "
            "mean support calls distance 3.333 intersects 3.333\n"
            "overlap: 3/3 pass, worst abs distance error 0.000e+00\n"
            "overlap exits: distance ContainsOrigin=3; intersects VerticalAngleEnclosure=3; "
            "mean support calls distance 2.000 intersects 2.000\n"
            "note: 2 knife-edge touching case(s) with binary/oracle disagreement "
            "(reported, not asserted)\n"
            "all checks passed\n"
        )

    def test_corrupted_vertex_fails_naming_line(self, small_dataset, capsys):
        lines = small_dataset.read_text().splitlines()
        record = json.loads(lines[2])
        record["q"]["vertices"][0] = record["q"]["vertices"][2]
        lines[2] = json.dumps(record)
        small_dataset.write_text("\n".join(lines) + "\n")
        assert main(["check", str(small_dataset)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err

    @pytest.mark.parametrize(
        "line,pattern,replacement,message",
        [
            (0, r'"vertex_count": ?4', '"vertex_count":1e999', "malformed header field"),
            (2, r'"seed": ?[0-9]+', '"seed":1e999', "malformed field"),
            (0, r'"schema": ?1', '"schema":true', "malformed header field ('schema'"),
            (0, r'"schema": ?1', '"schema":1.0', "malformed header field ('schema'"),
            (0, r'"vertex_count": ?4', '"vertex_count":"4"', "malformed header field ('vertex_count'"),
            (0, r'"cases_per_regime": ?4', '"cases_per_regime":2.9', "malformed header field ('cases_per_regime'"),
            (0, r'"seed": ?42', '"seed":"42"', "malformed header field ('seed'"),
            (0, r'"seed": ?42', '"seed":false', "malformed header field ('seed'"),
            (2, r'"seed": ?([0-9]+)', r'"seed":"\1"', "malformed field ('seed'"),
        ],
        ids=[
            "header-vertex-count-infinite",
            "case-seed-infinite",
            "header-schema-bool",
            "header-schema-float",
            "header-vertex-count-string",
            "header-cases-float",
            "header-seed-string",
            "header-seed-bool",
            "case-seed-string",
        ],
    )
    def test_non_integer_field_fails_naming_line(
        self, small_dataset, capsys, line, pattern, replacement, message
    ):
        # integer fields must be JSON integers: json reads 1e999 as infinity,
        # and int() would take a float, a bool or a numeric string
        lines = small_dataset.read_text().splitlines()
        lines[line], count = re.subn(pattern, replacement, lines[line])
        assert count == 1
        small_dataset.write_text("\n".join(lines) + "\n")
        assert main(["check", str(small_dataset)]) == 1
        assert f"error: line {line + 1}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pattern,replacement,message",
        [
            (
                r'"rng":"[^"]*"',
                '"rng":null',
                'line 1: header field \'rng\' must be "mt19937/sha256-case-seeds", not null',
            ),
            (
                r'"margins":\{[^}]*\}',
                '"margins":{"touching_max_gap":"wide"}',
                "line 1: header field 'margins' must be {",
            ),
            (r',"margins":\{[^}]*\}', "", "line 1: header field 'margins' must be {"),
            (r'\}$', ',"comment":"x"}', "line 1: unknown header field 'comment'"),
            (
                r'"vertex_count":4',
                '"vertex_count":3',
                "line 2: 'p' has 4 vertices, not the header's vertex_count 3",
            ),
            (
                r'"vertex_count":4',
                '"vertex_count":2',
                "line 1: malformed header field (vertex_count must be at least 3)",
            ),
            (
                r'"cases_per_regime":4',
                '"cases_per_regime":0',
                "line 1: malformed header field (cases_per_regime must be at least 1)",
            ),
        ],
        ids=[
            "rng-null",
            "margins-changed",
            "margins-missing",
            "unknown-field",
            "vertex-count-below-polygons",
            "vertex-count-below-3",
            "cases-below-1",
        ],
    )
    def test_header_must_match_what_gen_writes(
        self, small_dataset, capsys, pattern, replacement, message
    ):
        lines = small_dataset.read_text().splitlines()
        lines[0], count = re.subn(pattern, replacement, lines[0])
        assert count == 1
        small_dataset.write_text("\n".join(lines) + "\n")
        assert main(["check", str(small_dataset)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_overlap_pairs_labelled_touching_fail(self, tmp_path, capsys):
        # P - Q holds the origin deep inside, so no gap makes them touching;
        # each touching case keeps its seed and takes the pair of the overlap
        # case with its index
        path = tmp_path / "relabelled.jsonl"
        assert main(["gen", "--vertices", "8", "--cases", "10", "--seed", "1", str(path)]) == 0
        spec, cases = read_dataset(path)
        touching = [i for i, c in enumerate(cases) if c.regime is Regime.TOUCHING]
        overlap = [c for c in cases if c.regime is Regime.OVERLAP]
        assert len(touching) == len(overlap) == 10
        for i, pair in zip(touching, overlap):
            cases[i] = PairCase(pair.p, pair.q, Regime.TOUCHING, cases[i].seed)
        write_dataset(path, spec, cases)
        capsys.readouterr()
        assert main(["check", str(path)]) == 1
        assert "touching: 0/10 pass" in capsys.readouterr().out

    @pytest.mark.parametrize("e", [1e-20, 6.8e-14], ids=["rounds-to-zero", "rounds-to-noise"])
    def test_deep_overlap_with_a_tiny_edge_labelled_touching_fails(self, tmp_path, capsys, e):
        # the P - Q edge from P's tiny edge rounds to zero length or to a
        # line through the origin; the origin is 212 deep inside P - Q
        p = ConvexPolygon([(0, 0), (2 * e, e), (1000, 700), (0, 1000)])
        q = ConvexPolygon([(2000, 0), (1000, 1000), (0, 0), (1000, -1000)])
        path = tmp_path / "tiny-edge.jsonl"
        assert main(["gen", "--vertices", "4", "--cases", "1", "--seed", "1", str(path)]) == 0
        spec, cases = read_dataset(path)
        assert cases[1].regime is Regime.TOUCHING
        cases[1] = PairCase(p, q, Regime.TOUCHING, cases[1].seed)
        write_dataset(path, spec, cases)
        capsys.readouterr()
        assert main(["check", str(path)]) == 1
        assert "touching: 0/1 pass" in capsys.readouterr().out

    def test_max_iterations_exits_count_capped_queries(
        self, small_dataset, capsys, monkeypatch
    ):
        monkeypatch.setattr(gjk2d.gjk, "_MAX_ITERATIONS", 1)
        _, cases = read_dataset(small_dataset)
        capped = Termination.MAX_ITERATIONS
        n_distance = sum(distance(c.p, c.q).termination is capped for c in cases)
        n_intersects = sum(
            intersects(c.p, c.q).exit is CollisionExit.MAX_ITERATIONS for c in cases
        )
        assert n_distance > 0 and n_intersects > 0
        main(["check", str(small_dataset)])
        out = capsys.readouterr().out
        # Only the exits: lines count; "distance" also appears in the
        # "worst abs distance error" lines.
        totals = Counter()
        for line in out.splitlines():
            if " exits: " not in line:
                continue
            for part in line.split(" exits: ", 1)[1].split("; "):
                label, *counts = part.split()
                for item in counts:
                    name, _, value = item.partition("=")
                    if name == "MaxIterations":
                        totals[label] += int(value)
        assert totals == {"distance": n_distance, "intersects": n_intersects}
        assert "note: MaxIterations" not in out

    def test_exit_counts_per_regime(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        assert main(["gen", "--vertices", "6", "--cases", "20", "--seed", "3", str(path)]) == 0
        capsys.readouterr()
        _, cases = read_dataset(path)
        counts = {r: (Counter(), Counter(), Counter()) for r in Regime}
        for c in cases:
            dist, hit = distance(c.p, c.q), intersects(c.p, c.q)
            counts[c.regime][0][dist.termination] += 1
            counts[c.regime][1][hit.exit] += 1
            counts[c.regime][2].update(distance=dist.support_calls, intersects=hit.support_calls)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        for regime, (terminations, exits, calls) in counts.items():
            # nonzero counts only, in declaration order, then the mean
            # support calls per query over the regime's 20 cases
            d = " ".join(f"{m.value}={terminations[m]}" for m in Termination if terminations[m])
            i = " ".join(f"{m.value}={exits[m]}" for m in CollisionExit if exits[m])
            means = " ".join(f"{label} {calls[label] / 20:.3f}" for label in ("distance", "intersects"))
            assert (
                f"{regime.value} exits: distance {d}; intersects {i}; mean support calls {means}\n"
            ) in out
        assert len(set().union(*(e for _, e, _ in counts.values()))) >= 3

    def test_binary_mean_support_calls_never_exceed_distance(self, tmp_path, capsys):
        # intersects runs the distance loop with extra exits, so in every
        # regime its mean support calls are at most those of distance
        for vertices, seed in ((4, 3), (24, 5), (128, 7)):
            path = tmp_path / f"n{vertices}.jsonl"
            argv = ["gen", "--vertices", str(vertices), "--cases", "10", "--seed", str(seed)]
            assert main(argv + [str(path)]) == 0
            capsys.readouterr()
            assert main(["check", str(path)]) == 0
            lines = [line for line in capsys.readouterr().out.splitlines() if " exits: " in line]
            assert len(lines) == len(Regime)
            for line in lines:
                label, d, label_i, i = line.rsplit("; ", 1)[1].split()[-4:]
                assert (label, label_i) == ("distance", "intersects"), line
                assert float(i) <= float(d), line

    @pytest.mark.parametrize("command", ["check", "bench"])
    @pytest.mark.parametrize(
        "line,message",
        [
            ("[1, 2]", "case must be a JSON object"),
            ('"str"', "case must be a JSON object"),
            ("3", "case must be a JSON object"),
            (
                '{"regime": "distant", "seed": 0, '
                '"p": {"vertices": [[false, 0], [1, 0], [1, 1]]}, '
                '"q": {"vertices": [[3, 0], [4, 0], [4, 1]]}}',
                "vertex 0 has a non-numeric coordinate",
            ),
        ],
        ids=["array", "string", "number", "bool-coordinate"],
    )
    def test_bad_case_line_fails_naming_line(
        self, small_dataset, capsys, command, line, message
    ):
        lines = small_dataset.read_text().splitlines()
        lines[2] = line
        small_dataset.write_text("\n".join(lines) + "\n")
        assert main([command, str(small_dataset)]) == 1
        assert capsys.readouterr().err.startswith(f"error: line 3: {message}")

    @pytest.mark.parametrize("command", ["check", "bench"])
    def test_empty_dataset_fails_naming_the_line(self, tmp_path, capsys, command):
        # every regime must hold cases_per_regime (at least 1) cases, so
        # neither command ever sees an empty regime
        path = tmp_path / "empty.jsonl"
        write_dataset(path, DatasetSpec(4, 1, 0), [])
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 2: 0 distant cases, not the header's cases_per_regime 1"
        )

    def test_missing_file_is_operational_error(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.jsonl")]) == 1


@pytest.mark.parametrize("command", ["check", "bench", "query"])
@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_input_is_error_without_traceback(tmp_path, capsys, command, kind):
    if kind == "directory":
        path = tmp_path / "inputs"
        path.mkdir()
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"vertices": "\xe9"}\n')
    argv = [command, str(path)] + ([str(path)] if command == "query" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


class TestBench:
    def test_csv_schema_and_rows(self, small_dataset, capsys):
        code = main(
            [
                "bench",
                str(small_dataset),
                "--algorithms",
                "BinaryGjk",
                "Sat",
                "--repetitions",
                "2",
                "--warmup",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 3  # two algorithms, three regimes
        first = lines[1].split(",")
        assert first[0] == "BinaryGjk"
        assert first[1] == "distant"
        assert first[2] == "4"
        assert float(first[4]) <= float(first[5])  # p50 <= p99

    def test_repeated_algorithm_is_timed_once(self, small_dataset, capsys, monkeypatch):
        timed = []
        runner = gjk2d.bench._runner

        def recording(algorithm):
            timed.append(algorithm)
            return runner(algorithm)

        monkeypatch.setattr(gjk2d.bench, "_runner", recording)
        argv = ["bench", str(small_dataset), "--algorithms", "Sat", "BinaryGjk", "Sat"]
        assert main(argv + ["--repetitions", "1", "--warmup", "0"]) == 0
        assert timed == [Algorithm.SAT, Algorithm.BINARY_GJK]
        rows = [line.split(",")[:2] for line in capsys.readouterr().out.strip().splitlines()[1:]]
        regimes = [regime.value for regime in sorted(Regime, key=lambda r: r.value)]
        assert rows == [[a, r] for a in ("BinaryGjk", "Sat") for r in regimes]

    def test_unknown_algorithm_is_usage_error(self, small_dataset):
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(small_dataset), "--algorithms", "Quantum"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("--repetitions", "0"), ("--repetitions", "-3"), ("--warmup", "-1")],
    )
    def test_out_of_range_pass_count_is_usage_error(self, small_dataset, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(small_dataset), "--algorithms", "Sat", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("repetitions,warmup", [(0, 0), (-1, 0), (1, -1)])
    def test_run_benchmark_rejects_out_of_range_pass_counts(
        self, small_dataset, repetitions, warmup
    ):
        _, cases = read_dataset(small_dataset)
        with pytest.raises(ValueError):
            run_benchmark(cases, [Algorithm.SAT], repetitions=repetitions, warmup=warmup)

    @pytest.mark.parametrize("script", ["plot.csv", "out/plot.csv", "plot.CSV", "plot.Csv"])
    def test_gnuplot_script_over_its_own_csv_is_usage_error(
        self, small_dataset, tmp_path, capsys, monkeypatch, script
    ):
        # `bench --gnuplot plot.csv > plot.csv` would overwrite the CSV
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(small_dataset), "--algorithms", "Sat", "--gnuplot", script])
        assert exc.value.code == 2
        assert "--gnuplot" in capsys.readouterr().err
        assert not (tmp_path / script).exists()

    def test_gnuplot_flag_writes_script(self, small_dataset, tmp_path, capsys):
        script = tmp_path / "plot.gp"
        code = main(
            [
                "bench",
                str(small_dataset),
                "--algorithms",
                "Sat",
                "--repetitions",
                "1",
                "--warmup",
                "0",
                "--gnuplot",
                str(script),
            ]
        )
        assert code == 0
        assert "gnuplot" in script.read_text()


class TestQuery:
    def test_distance_mode(self, tmp_path, capsys):
        p = write_polygon(tmp_path, "p.json", SQUARE)
        q = write_polygon(tmp_path, "q.json", FAR_SQUARE)
        assert main(["query", str(p), str(q), "--mode", "distance"]) == 0
        out = capsys.readouterr().out
        assert "distance: 2.0" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["distance"] == pytest.approx(2.0)
        assert payload["termination"] == "Converged"

    def test_binary_mode_distant(self, tmp_path, capsys):
        p = write_polygon(tmp_path, "p.json", SQUARE)
        q = write_polygon(tmp_path, "q.json", FAR_SQUARE)
        assert main(["query", str(p), str(q), "--mode", "binary"]) == 0
        out = capsys.readouterr().out
        assert "no collision (SeparatingHyperplane)" in out

    def test_binary_mode_overlap(self, tmp_path, capsys):
        p = write_polygon(tmp_path, "p.json", SQUARE)
        q = write_polygon(tmp_path, "q.json", SQUARE)
        assert main(["query", str(p), str(q), "--mode", "binary"]) == 0
        out = capsys.readouterr().out
        assert "collision" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["colliding"] is True

    # Hand-written partners of the unit square and the lines ``query``
    # prints for them in each mode: two squares that share the corner (1, 1)
    # exactly, whose first support point is the origin; a square moved by
    # (0.5, 0.25), enclosed by the first portal triangle; a triangle over
    # the corner (1, 1) that the portal triangle misses, answered by the
    # triangle solve's certified enclosure (region code 7) in `distance`;
    # and a thin triangle across the corner (1, 0), whose first portal
    # point lands short of the contact, enclosed by the second portal
    # step's triangle. New hand-written pairs go into this table.
    HAND_WRITTEN = {
        "corner-contact": (
            [[1, 1], [2, 1], [2, 2], [1, 2]],
            ["iterations: 0, support calls: 1", "termination: ContainsOrigin"],
            ["iterations: 0, support calls: 1", "collision (SubdistanceEnclosure)"],
        ),
        "overlap": (
            [[0.5, 0.25], [1.5, 0.25], [1.5, 1.25], [0.5, 1.25]],
            ["iterations: 1, support calls: 2", "termination: ContainsOrigin"],
            ["iterations: 1, support calls: 2", "collision (VerticalAngleEnclosure)"],
        ),
        "code-7-enclosure": (
            [[0.8, 1.1], [0.9, 0.9], [2.5, 0.3]],
            ["iterations: 3, support calls: 4", "termination: ContainsOrigin"],
            ["iterations: 3, support calls: 4", "collision (VerticalAngleEnclosure)"],
        ),
        "second-step-contact": (
            [[-0.5, -0.75], [0.75, -0.25], [1.25, 0.25]],
            ["iterations: 2, support calls: 3", "termination: ContainsOrigin"],
            ["iterations: 2, support calls: 3", "collision (VerticalAngleEnclosure)"],
        ),
    }

    @pytest.mark.parametrize("mode", ["distance", "binary"])
    @pytest.mark.parametrize("pair", list(HAND_WRITTEN))
    def test_hand_written_pairs(self, tmp_path, capsys, pair, mode):
        vertices, distance_lines, binary_lines = self.HAND_WRITTEN[pair]
        p = write_polygon(tmp_path, "p.json", SQUARE)
        q = write_polygon(tmp_path, "q.json", {"vertices": vertices})
        assert main(["query", str(p), str(q), "--mode", mode]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in distance_lines if mode == "distance" else binary_lines:
            assert line in lines, (pair, mode, lines)

    def test_invalid_polygon_file_fails(self, tmp_path, capsys):
        p = write_polygon(tmp_path, "p.json", {"vertices": [[0, 0], [0, 1], [1, 0]]})
        q = write_polygon(tmp_path, "q.json", SQUARE)
        assert main(["query", str(p), str(q)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["a", None, "0", " 1 ", True, False])
    def test_non_numeric_coordinate_fails(self, tmp_path, capsys, bad):
        p = write_polygon(tmp_path, "p.json", {"vertices": [[bad, 0], [1, 0], [1, 1]]})
        q = write_polygon(tmp_path, "q.json", SQUARE)
        assert main(["query", str(p), str(q)]) == 1
        assert "error: invalid polygon: vertex 0" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path):
        q = write_polygon(tmp_path, "q.json", SQUARE)
        assert main(["query", str(tmp_path / "missing.json"), str(q)]) == 1


def run_module(*args):
    """``python -m gjk2d`` in a child process, with the package's source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gjk2d", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestModuleEntryPoint:
    def test_binary_query(self, tmp_path):
        p = write_polygon(tmp_path, "p.json", SQUARE)
        q = write_polygon(tmp_path, "q.json", FAR_SQUARE)
        proc = run_module("query", str(p), str(q), "--mode", "binary")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout.splitlines()[-1])
        assert payload["colliding"] is False
        assert payload["exit"] == "SeparatingHyperplane"

    def test_usage_error_exits_2(self):
        proc = run_module("query", "--mode", "binary")
        assert proc.returncode == 2
        assert "usage: gjk2d" in proc.stderr
