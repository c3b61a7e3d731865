"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_the_commented_values():
    code = quick_start_block()
    # one output line per print call; a trailing comment states the expected line
    expected = [
        line.split("#", 1)[1].strip().strip('"') if "#" in line else None
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    checked = [(got, want) for got, want in zip(printed, expected) if want is not None]
    assert [want for _, want in checked] == [
        "2.0",
        "Converged",
        "2.0",
        "False SeparatingHyperplane",
    ]
    for got, want in checked:
        assert got == want
