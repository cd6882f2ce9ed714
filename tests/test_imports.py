"""Import hygiene: every imported name in the package, the tests and the
benchmark scripts is used, and the package runs on numpy alone."""

import ast
import os
import subprocess
import sys
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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """(name, node) for every private module-level function, class or
    assigned name, and every private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _is_private(item.name)):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and _is_private(sub.id):
                        yield sub.id, node


def _references(node):
    """Names read under ``node``: loaded names, attributes and the
    names that ``from`` imports bring in."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.extend(alias.name for alias in sub.names)
    return out


def unreferenced_private_names(paths):
    """``file:line: name`` for every private definition in ``paths``
    that nothing outside its own definition refers to."""
    from collections import Counter

    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    total = Counter(name for tree in trees.values() for name in _references(tree))
    return [f"{p.name}:{node.lineno}: {name}"
            for p, tree in trees.items()
            for name, node in _private_definitions(tree)
            if total[name] <= _references(node).count(name)]


def test_unreferenced_private_names_are_caught(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("_USED = 1\n_IDLE = 2\n\n\ndef _rec(n):\n    return _rec(n - 1)\n\n\n"
                 "class C:\n    def _m(self):\n        return self._m2()\n\n"
                 "    def _m2(self):\n        return _USED\n")
    b = tmp_path / "b.py"
    b.write_text("from a import C\n")
    assert unreferenced_private_names([a, b]) == [
        "a.py:2: _IDLE", "a.py:5: _rec", "a.py:10: _m"]


def test_private_names_are_referenced():
    """Every private helper, constant and method of the package is used
    somewhere in the package: plumbing that a refactor strands fails
    here instead of lingering."""
    paths = sorted((ROOT / "src" / "admgfit").glob("*.py"))
    assert sum(1 for p in paths for _ in _private_definitions(ast.parse(p.read_text()))) > 50
    assert unreferenced_private_names(paths) == []


def _python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports the package and
    the test helpers from this checkout."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_package_loads_no_scipy(tmp_path):
    out = _python("import sys, admgfit\n"
                  "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])", tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


BLOCKED_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None

import contextlib, io
from admgfit import (Admg, counts_for, fit, format_graph, load_data, report,
                     save_data, simulate, stepwise)
from admgfit.cli import main
from util import graph_one, strong_params_graph_one

g = graph_one()
save_data(simulate(g, strong_params_graph_one(), 2000, seed=1), "data.csv")
with open("graph.txt", "w") as fh:
    fh.write(format_graph(g))
counts = counts_for(g, load_data("data.csv"))
rep = report(fit(g, counts), counts, with_se=True)
assert rep.df > 0 and 0 < rep.p_value < 1 and rep.std_errors is not None
search = stepwise(counts, Admg(list(g.vertices)))
assert search.evaluated > 1
for argv in (["fit", "graph.txt", "data.csv"], ["select", "data.csv"], ["info", "graph.txt"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    assert main(["info", "graph.txt", "--matrices"]) == 2
print(err.getvalue(), end="")
"""


def test_fits_searches_reports_and_the_cli_run_with_scipy_blocked(tmp_path):
    """Only ``info --matrices`` needs scipy; without it, it exits 2 and
    names the extra that installs it."""
    out = _python(BLOCKED_SCIPY_RUN, tmp_path)
    assert out.returncode == 0, out.stderr
    assert "pip install 'admgfit[matrices]'" in out.stdout
