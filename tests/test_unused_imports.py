"""No dead ``from ... import`` names in ``src/repro``.

A name bound by ``from module import name`` must be read somewhere in
its module — as code, inside a string annotation, or as an entry of
``__all__`` or of a ``lazy_exports`` table (a package's re-exports).
There is no linter in the toolchain, so the check is one ``ast`` walk
per module.
"""

import ast
import os

import pytest

# Dead imports in src/repro/testbed, whose modules change only with
# the ring, worker and pipeline work planned for them: each listed name
# must still be dead, so an edit that drops one drops it here too.
FROZEN = {
    "src/repro/testbed/config.py": ["field", "Optional"],
    "src/repro/testbed/experiment.py": ["field"],
    "src/repro/testbed/spark_model.py": [
        "dataclass", "field", "List", "Optional",
    ],
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")


def _modules():
    for directory, subdirs, names in os.walk(SRC):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                yield os.path.relpath(path, ROOT).replace(os.sep, "/")


def _strings(node):
    return {
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    }


def _annotation_names(node):
    """Names read by an annotation, string annotations parsed."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source):
    """The names of ``source``'s ``from ... import`` statements that
    the module never reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.AnnAssign, ast.arg)):
            if node.annotation is not None:
                read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                read |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= _strings(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            read |= _strings(node)
    return sorted(
        (line, name) for name, line in imported.items() if name not in read
    )


@pytest.mark.parametrize("module", list(_modules()))
def test_every_imported_name_is_read(module):
    with open(os.path.join(ROOT, module), encoding="utf-8") as handle:
        unused = [name for _, name in unused_imports(handle.read())]
    assert unused == FROZEN.get(module, []), (
        "%s imports names it never reads: %s" % (module, ", ".join(unused))
    )


def test_the_scan_sees_each_kind_of_read():
    source = (
        "from __future__ import annotations\n"
        "from a import code, hint, quoted, listed, table, dead\n"
        "from b import lazy_exports\n"
        "__all__ = ['listed']\n"
        "x: hint = code()\n"
        "def f(y: 'quoted') -> None: pass\n"
        "lazy_exports('pkg', {'mod': ('table',)})\n"
    )
    assert unused_imports(source) == [(2, "dead")]
