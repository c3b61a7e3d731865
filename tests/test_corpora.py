"""Every pair family of ``corpora.py`` answered soundly, and each of its
names defined there alone."""

import ast
from pathlib import Path

import pytest

import corpora

TESTS = Path(__file__).resolve().parent

# Every pair family the sweep runs, and whether its binary verdicts are
# judged: the touching pairs sit on the knife edge of contact, and some
# parallel-edge pairs touch exactly, where the oracle reads 2e-16 apart.
PAIR_FAMILIES = {
    "tie_rectangles": (corpora.tie_rectangles, True),
    "tie_regular_polygons": (corpora.tie_regular_polygons, True),
    "thin_pairs": (lambda: corpora.thin_pairs(300, 5), True),
    "touching_pairs": (lambda: corpora.touching_pairs(40, (24, 64, 128, 512)), False),
    "cold_start": (corpora.cold_start_corpus, True),
    "random_pairs": (lambda: list(corpora.random_pairs(75, 500)), True),
    "parallel_edge_pairs": (corpora.parallel_edge_pairs, False),
}


@pytest.mark.parametrize("family", list(PAIR_FAMILIES))
def test_every_pair_family_answers_soundly(family):
    build, judge_binary = PAIR_FAMILIES[family]
    for p, q in build():
        for hcs in (True, False):
            _, dist, hit = corpora.assert_sound(p, q, judge_binary, hcs)
            assert hit.support_calls <= dist.support_calls


def top_level_names(path):
    """The names a module binds at top level by ``def``, ``class`` or assignment."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_corpora_names_are_defined_nowhere_else():
    shared = top_level_names(TESTS / "corpora.py")
    assert {"UNIT_SQUARE", "regime_cases", "assert_sound"} <= shared
    for path in sorted(TESTS.glob("*.py")):
        if path.name != "corpora.py":
            assert top_level_names(path) & shared == set(), path.name
