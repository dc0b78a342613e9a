"""Every Python file parses under the oldest grammar `requires-python` allows (3.10).

This catches 3.11+ syntax such as ``except*`` or PEP 695 generics on a
newer interpreter; it cannot catch a call to a 3.11-only library API.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
], ids=["except-star", "pep-695"])
def test_newer_syntax_is_rejected(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST)
