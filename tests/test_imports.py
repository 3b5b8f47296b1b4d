"""No module of the package imports a name that it never uses.

No linter ships with the test dependencies, so this is pyflakes' F401 for
module-level imports, read with ``ast``: an import is unused when the module
never names the binding and does not list it in ``__all__``. An import whose
first line carries ``# noqa: F401`` is exempt; the exemptions are pinned
below, so a new one shows as a diff.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# (module, binding) pairs bound only so that the benchmark tracer can patch them.
EXEMPT = {
    ("ncpgd/analysis.py", "proximal_normal_witness"),
    ("ncpgd/solver.py", "proximal_normal_witness"),
}


def _bindings(node: ast.Import | ast.ImportFrom):
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            # `import a.b` binds a.
            yield alias.name.partition(".")[0]
        else:
            yield alias.name


def _listed_in_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> tuple[list[str], list[str]]:
    """The module-level imports of source that it never names: (flagged, exempted)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= _listed_in_all(tree)
    flagged, exempted = [], []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = "# noqa: F401" in lines[node.lineno - 1]
        for name in _bindings(node):
            if name not in named:
                (exempted if noqa else flagged).append(name)
    return flagged, exempted


def test_no_module_imports_a_name_it_never_uses():
    flagged, exempted = [], set()
    for path in sorted((SRC / "ncpgd").rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        unused, noqa = unused_imports(path.read_text(encoding="utf-8"))
        flagged += [f"{module}: {name}" for name in unused]
        exempted |= {(module, name) for name in noqa}
    assert flagged == []
    assert exempted == EXEMPT


def test_the_scan_catches_an_orphaned_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from .core import Point, norm\n"
              "from .base import helper as _helper\n"
              "from .base import traced  # noqa: F401\n"
              "__all__ = ['Point']\n"
              "def f(x):\n"
              "    return os.path.join(norm(x))\n")
    assert unused_imports(source) == (["math", "_helper"], ["traced"])


def test_the_cli_loads_no_argparse_or_gettext():
    # The CLI reads its command line with its own field table; a second reader
    # would cost every ncpgd process the import of both.
    code = "import sys, ncpgd.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.stdout, proc.stderr) == ("[]\n", "")
