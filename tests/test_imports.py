"""Every name a `src/opbar` module imports is used in that module, and
every private definition is used somewhere in the package.

An import left behind by a refactor costs load time in every process and
hides which modules really depend on each other.  The check reads each
module with the stdlib `ast` module: a name counts as used when it is
read anywhere in the module (a function-local import included), and a
name listed in the module's `__all__` counts as used, so the package's
re-exports pass.

A private function, class or method (one underscore, not a dunder) is
not part of the API, so one that no module of the package refers to, by
name or as an attribute, is a dead helper.

A parameter named `check` or `check_*` lets a caller skip a check; only
the functions on `CHECK_SWITCHES` may take one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opbar"


def unused_imports(source):
    """The names imported by `source` and never read in it, with their lines."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_flags_an_unused_import():
    source = "from .a import used, unused\nimport os.path\n__all__ = ['exported']\nfrom .b import exported\nused()\n"
    assert unused_imports(source) == [(1, "unused"), (2, "os")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_definitions(sources):
    """The private functions, classes and methods defined in `sources`
    (path -> source) that none of them refers to, as (path, line, name)."""
    defined = []
    referenced = set()
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((path, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [d for d in defined if d[2] not in referenced]


def test_the_check_flags_an_unreferenced_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\ndef _dead():\n    pass\nclass _Dead:\n    def _method(self):\n        pass\n",
        "b.py": "from .a import _used\n_used()\nx._method()\ndef __dunder__():\n    pass\n",
    }
    assert unreferenced_private_definitions(sources) == [("a.py", 3, "_dead"), ("a.py", 5, "_Dead")]


def test_every_private_definition_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


# A check switch is a parameter that lets a caller skip a check.  The ones left
# are the dg-module constructors': tensor products, suspensions and word spaces
# are built from data already checked, and a module records its d^2 check.
CHECK_SWITCHES = {
    "dg.py": {"DgModule.__init__", "DgModule.from_rule", "DgModule.from_data"},
}


def check_switches(source):
    """The functions of `source` with a parameter named `check` or `check_*`,
    by qualified name (Class.method for methods, nested names dotted)."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if any(name == "check" or name.startswith("check_") for name in names):
                    found.add(prefix + child.name)
                visit(child, prefix + child.name + ".")

    visit(ast.parse(source), "")
    return found


def test_the_check_flags_a_check_switch():
    source = (
        "def check_thing(x):\n    pass\n"
        "def build(x, check=True):\n    def inner(check_more=False):\n        pass\n"
        "class M:\n    def __init__(self, data, *, check_eta=True):\n        pass\n"
        "    def apply(self, checked=True, check=None):\n        pass\n"
    )
    assert check_switches(source) == {"build", "build.inner", "M.__init__", "M.apply"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_check_switch_beyond_the_allowlist(path):
    assert check_switches(path.read_text()) == CHECK_SWITCHES.get(path.name, set())
