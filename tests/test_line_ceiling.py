"""The program stays at or under its line ceiling (ROADMAP item 8).

Lines are counted as ``wc -l src/**/*.py`` counts them: newline characters,
summed over every Python file under ``src/``.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LINE_CEILING = 3815


def test_src_stays_under_the_line_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert lines <= LINE_CEILING, f"src/ has {lines} lines, over the ceiling of {LINE_CEILING}"
