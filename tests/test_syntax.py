"""The oldest Python that pyproject.toml and the CI matrix name is 3.10.
These tests parse every source file with the 3.10 grammar, so syntax added
in a later version fails here even under a newer interpreter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = ("src/stable4", "tests", "perfbench")
SOURCES = sorted(path for folder in FOLDERS for path in (ROOT / folder).rglob("*.py"))


def test_the_sources_are_found():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
