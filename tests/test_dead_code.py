"""A stdlib dead-code check of ``src/brwlab``.

Every module-level import of a module is read in that module (the package's
``__init__`` imports are its public namespace, so they are exempt), every
module-level private function, class or constant is referenced somewhere in
``src/`` besides its definition, and every public method or property of a
module-level class is read as an attribute somewhere in ``src/``,
``tests/``, ``bench/`` or ``demos/``.  A deletion that leaves a helper, an
import or a method behind fails here.
"""

import ast
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "brwlab"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _attribute_names(tree):
    """Attribute names anywhere in tree."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _loaded_names(tree):
    """Names read anywhere in tree: plain names and attribute names."""
    return _attribute_names(tree) | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                                     and not isinstance(node.ctx, ast.Store)}


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


def _public_methods(tree):
    """(class, method, line) of each public method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name, item.lineno


def test_every_public_method_is_read():
    read = set()
    for path in (REPO / "src", REPO / "tests", REPO / "bench", REPO / "demos"):
        for file in path.rglob("*.py"):
            read |= _attribute_names(ast.parse(file.read_text(), str(file)))
    dead = [(module, *method) for module, tree in MODULES.items()
            for method in _public_methods(tree) if method[1] not in read]
    assert dead == [], "public methods that nothing reads as an attribute"


def test_the_check_sees_dead_code():
    tree = ast.parse("import os\nimport numpy as np\n_DEAD = 1\n\ndef _used():\n    return np\n"
                     "\ndef f():\n    return _used()\n")
    assert [n for n, _ in _imported_names(tree) if n not in _loaded_names(tree)] == ["os"]
    assert [n for n, _ in _private_definitions(tree)
            if n not in _loaded_names(tree)] == ["_DEAD"]
    tree = ast.parse("class C:\n    def used(self):\n        return self.size\n\n"
                     "    @property\n    def size(self):\n        return 1\n\n"
                     "    def dead(self, law):\n        return law\n\n\nC().used()\n")
    assert [m for _, m, _ in _public_methods(tree) if m not in _attribute_names(tree)] == ["dead"]
