"""A stdlib dead-code check of ``src/brwlab``.

Every module-level import of a module is read in that module (the package's
``__init__`` imports are its public namespace, so they are exempt), and
every module-level private function, class or constant is referenced
somewhere in ``src/`` besides its definition.  A deletion that leaves a
helper or an import behind fails here.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "brwlab"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree):
    """Names read anywhere in tree: plain names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree):
    """(bound name, line) of each module-level import, __future__ excepted."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _private_definitions(tree):
    """(name, line) of each module-level private def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_read(module):
    tree = MODULES[module]
    read = _loaded_names(tree)
    unused = [(name, line) for name, line in _imported_names(tree) if name not in read]
    assert unused == [], f"{module}: imported but never read"


def test_every_private_definition_is_referenced():
    references = set()
    for tree in MODULES.values():
        references |= _loaded_names(tree)
        references |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = [(module, name, line) for module, tree in MODULES.items()
            for name, line in _private_definitions(tree) if name not in references]
    assert dead == [], "private definitions that nothing in src/ references"


def test_the_check_sees_dead_code():
    tree = ast.parse("import os\nimport numpy as np\n_DEAD = 1\n\ndef _used():\n    return np\n"
                     "\ndef f():\n    return _used()\n")
    assert [n for n, _ in _imported_names(tree) if n not in _loaded_names(tree)] == ["os"]
    assert [n for n, _ in _private_definitions(tree)
            if n not in _loaded_names(tree)] == ["_DEAD"]
