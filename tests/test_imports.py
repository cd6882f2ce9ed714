"""Import hygiene: every imported name in the package, the tests and the
benchmark scripts is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names read anywhere, plus the strings listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_unused_imports_are_caught():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\n__all__ = ['d']\nnp.x\n"
    tree = ast.parse(src)
    used = _used(tree)
    assert [n for n, _ in _imported(tree) if n not in used] == ["os", "c"]


def test_no_unused_imports():
    files = [p for p in sorted((ROOT / "src" / "admgfit").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    assert len(files) > 10
    bad = [f"{p.relative_to(ROOT)}:{line}: {name}"
           for p in files for name, line in unused_imports(p)]
    assert bad == []
