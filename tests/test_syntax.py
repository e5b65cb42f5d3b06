"""Every source and test file parses as Python 3.10, the oldest version
pyproject.toml admits, so syntax from later versions cannot slip in."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/ldlab", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",   # 3.11
    "type X = int\n",                                      # 3.12
])
def test_later_syntax_is_rejected(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
