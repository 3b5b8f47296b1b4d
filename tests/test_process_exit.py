"""Only the process entry point ``cli.run`` ends the process with ``os._exit``.

``os._exit`` skips the interpreter's teardown: unflushed output, ``atexit``
callbacks and ``finally`` blocks of the caller. ``cli.run`` calls it once its
output is flushed; anywhere else in the package it would end the process of a
test or a library user. Read with ``ast``: every call of an attribute or a name
``_exit`` counts, with the function that makes it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"


def exit_calls(source: str) -> list[str]:
    """The qualified name of the function around each `_exit` call in source, in order;
    '<module>' for a call outside every function."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "_exit":
                found.append(".".join(scope) or "<module>")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_cli_run_calls_os_exit():
    calls = []
    for path in sorted((SRC / "ncpgd").rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        calls += [f"{module}:{name}" for name in exit_calls(path.read_text(encoding="utf-8"))]
    assert calls == ["ncpgd/cli.py:run"]


def test_the_scan_names_each_caller():
    source = ("import os\n"
              "from os import _exit\n"
              "os._exit(0)\n"
              "def run():\n"
              "    os._exit(1)\n"
              "class Job:\n"
              "    def stop(self):\n"
              "        def now():\n"
              "            _exit(2)\n"
              "        return now\n"
              "def main():\n"
              "    return os.exit_code\n")
    assert exit_calls(source) == ["<module>", "run", "Job.stop.now"]
