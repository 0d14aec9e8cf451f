"""A stdlib dead-code check of ``src/brwlab``.

Every module-level import of a module is read in that module (the package's
``__init__`` imports are its public namespace, so they are exempt), every
module-level private function, class or constant is referenced somewhere in
``src/`` besides its definition, every module-level public function or class
is read somewhere in ``src/``, ``bench/`` or ``demos/`` (the package's
re-export in ``__init__`` is not a read), and every public method or property
of a module-level class is read there as an attribute.  A read from
``tests/`` does not count: code that only the tests run is dead code with a
test.  The only exceptions are the names in ``TO_BE_WIRED``.  A deletion that
leaves a helper, an import, a function or a method behind fails here.  So
does a scipy import outside a function body, which would load scipy with
``import brwlab``.

The checks match names, not objects: a method whose name is also read
elsewhere, for instance a ``count`` or an ``allclose`` that shares its name
with a list or numpy function, escapes them.
"""

import ast
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "brwlab"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}

# public names that only tests read yet, each with the ROADMAP item that gives
# it a caller in the program
TO_BE_WIRED = {"survival_probability": "item 1: exact small-window laws",
               "check_assumption_nonsingular": "item 12: the exact class-graph verdict"}


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


def _public_definitions(tree):
    """(name, line) of each module-level public def or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno


def _program_trees(root=REPO):
    """The parsed .py files of src/, bench/ and demos/: every reader but the tests."""
    for path in (root / "src", root / "bench", root / "demos"):
        for file in path.rglob("*.py"):
            yield ast.parse(file.read_text(), str(file))


def test_every_public_definition_is_read():
    read = set().union(*map(_loaded_names, _program_trees()))
    dead = [(module, name, line) for module, tree in MODULES.items()
            for name, line in _public_definitions(tree)
            if name not in read and name not in TO_BE_WIRED]
    assert dead == [], "public functions and classes that only tests read, or nothing"
    # a name that the program reads now leaves TO_BE_WIRED
    assert sorted(read & set(TO_BE_WIRED)) == []


def _public_methods(tree):
    """(class, method, line) of each public method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name, item.lineno


def test_every_public_method_is_read():
    read = set().union(*map(_attribute_names, _program_trees()))
    dead = [(module, *method) for module, tree in MODULES.items()
            for method in _public_methods(tree) if method[1] not in read]
    assert dead == [], "public methods that only tests read as an attribute, or nothing"


def _scipy_imports(tree):
    """Each import statement in tree that imports from scipy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node


def _scipy_imports_outside_functions(tree):
    """Line numbers of the scipy imports in tree that no function body holds."""
    inside = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              for node in _scipy_imports(f)}
    return [node.lineno for node in _scipy_imports(tree) if id(node) not in inside]


def test_scipy_is_imported_inside_functions_only():
    # ``import brwlab`` and every path up to the dense cut-off load no scipy
    # module, so scipy may be imported only where a function needs it
    stray = [(module, line) for module, tree in MODULES.items()
             for line in _scipy_imports_outside_functions(tree)]
    assert stray == [], "scipy imported outside a function body"


def test_the_check_sees_dead_code(tmp_path):
    tree = ast.parse("import os\nimport numpy as np\n_DEAD = 1\n\ndef _used():\n    return np\n"
                     "\ndef f():\n    return _used()\n")
    assert [n for n, _ in _imported_names(tree) if n not in _loaded_names(tree)] == ["os"]
    assert [n for n, _ in _private_definitions(tree)
            if n not in _loaded_names(tree)] == ["_DEAD"]
    tree = ast.parse("class C:\n    def used(self):\n        return self.size\n\n"
                     "    @property\n    def size(self):\n        return 1\n\n"
                     "    def dead(self, law):\n        return law\n\n\nC().used()\n")
    assert [m for _, m, _ in _public_methods(tree) if m not in _attribute_names(tree)] == ["dead"]
    tree = ast.parse("def used():\n    return 1\n\ndef dead():\n    return used()\n\n"
                     "class Dead:\n    pass\n\n\nclass Used:\n    pass\n\n\nx: Used = dead\n")
    assert [n for n, _ in _public_definitions(tree) if n not in _loaded_names(tree)] == ["Dead"]
    tree = ast.parse("import scipy.sparse\nfrom scipy import special\n\nclass C:\n"
                     "    from scipy.linalg import eig\n\n    def f(self):\n"
                     "        from scipy.sparse import csgraph\n        return csgraph\n")
    assert _scipy_imports_outside_functions(tree) == [1, 2, 5]
    # a function and a method that only a test calls are dead
    files = {"src/m.py": "def run():\n    return C()\n\n\ndef spare():\n    return 1\n\n\n"
                         "class C:\n    def step(self):\n        return 1\n\n"
                         "    def extra(self):\n        return 2\n",
             "tests/test_m.py": "from m import run, spare\n\nspare()\nrun().extra()\n",
             "bench/b.py": "from m import run\n\nrun().step()\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    tree = ast.parse(files["src/m.py"])
    read = set().union(*map(_loaded_names, _program_trees(tmp_path)))
    assert [n for n, _ in _public_definitions(tree) if n not in read] == ["spare"]
    read = set().union(*map(_attribute_names, _program_trees(tmp_path)))
    assert [m for _, m, _ in _public_methods(tree) if m not in read] == ["extra"]
