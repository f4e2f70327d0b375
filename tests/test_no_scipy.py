"""CI installs numpy but not scipy, so no module may import scipy.

A stray import passes wherever scipy happens to be installed and fails
only in CI; this test fails everywhere instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py"))


def scipy_imports(path):
    """``file:line`` of each import of scipy, or of a scipy submodule, in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            yield f"{path.relative_to(ROOT)}:{node.lineno}"


def test_no_module_imports_scipy():
    assert any(p.parent.name == "deragg" for p in SOURCES)
    found = [hit for path in SOURCES for hit in scipy_imports(path)]
    assert not found, f"scipy imported at {found}"
