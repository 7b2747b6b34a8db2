"""Every name a `src/opbar` module imports is used in that module, every
private definition is used somewhere in the package, and every public
definition is reached by the package, the benchmark or a listed entry
point.

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

A public function, class or method that no module of the package reads
outside its own definition is test-only code: a wrapper the tests can do
without, or a test oracle that belongs in the test that uses it.  It may
stay only when the benchmark names it (the tracer's `SPANS` and
`COUNTS`, or a name `perfbench/workloads.py` reads) or when it sits on
`ENTRY_POINTS`, the library entry points no command reaches.

A memo lives on the object whose data it reads and dies with it.  A
`functools.cache` or `lru_cache` decorator, or a name bound to an empty
`{}`, `[]`, `set()`, `dict()` or `list()` at module or class level, would
instead keep its entries for the life of the process, from one command
(or benchmark job) to the next; only the functions on `PROCESS_CACHES`
may carry one.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opbar"
PERFBENCH = SRC.parent.parent / "perfbench"


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


def _reads(node):
    """Every name read in `node`, by name or as an attribute, with repeats;
    a name imported under another name is read through its alias."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr
        elif isinstance(n, ast.alias) and n.asname:
            yield n.name


def unreferenced_public_definitions(sources, allowed):
    """The public top-level functions and classes, and the public methods of
    top-level classes, defined in `sources` (path -> source) that no source
    reads outside the definition itself and whose name is not in `allowed`,
    as (path, line, name); a method is named Class.method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    reads = Counter()
    defined = []
    for path, source in sources.items():
        tree = ast.parse(source)
        reads.update(_reads(tree))
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            members = [m for m in node.body if isinstance(m, kinds)] if isinstance(node, ast.ClassDef) else []
            for prefix, d in [("", node)] + [(node.name + ".", m) for m in members]:
                if not d.name.startswith("_") and d.name not in allowed:
                    defined.append((path, d.lineno, prefix + d.name, d))
    return [
        (path, line, name)
        for path, line, name, d in defined
        if reads[d.name] == sum(1 for read in _reads(d) if read == d.name)
    ]


# Public names no command reaches that stay as library entry points.
ENTRY_POINTS = {
    "operad_from_json": "jsonio: the import of `operad_to_json`'s format; no command reads operad JSON",
    "restriction": "modules: the paper's restriction of structure psi^*, in the README's feature list",
}


def benchmark_pins(monkeypatch):
    """The names the benchmark reaches in the package: each part of every
    name the tracer wraps, and every name `perfbench/workloads.py` reads."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    pins = {part for _, name, _ in tracer.SPANS + tracer.COUNTS for part in name.split(".")}
    return pins | set(_reads(ast.parse((PERFBENCH / "workloads.py").read_text())))


def _package_sources():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def test_the_check_flags_an_unreferenced_public_definition():
    sources = {
        "a.py": (
            "def used():\n    pass\n"
            "def dead():\n    return dead()\n"
            "class Dead:\n    def make(self):\n        return Dead()\n"
            "class Kept:\n    def read(self):\n        pass\n    def unread(self):\n        pass\n"
            "def traced():\n    pass\n"
            "def restriction():\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "b.py": "from .a import dead, used as run, Kept\nrun()\nKept().read()\nx.unread = None\n",
    }
    flagged = unreferenced_public_definitions(sources, {"traced"} | set(ENTRY_POINTS))
    assert flagged == [("a.py", 3, "dead"), ("a.py", 5, "Dead"), ("a.py", 6, "Dead.make"), ("a.py", 11, "Kept.unread")]


def test_every_public_definition_is_reached(monkeypatch):
    allowed = benchmark_pins(monkeypatch) | set(ENTRY_POINTS)
    assert unreferenced_public_definitions(_package_sources(), allowed) == []


def test_every_entry_point_is_needed(monkeypatch):
    # each entry point is a name the guard would flag without the list: one that the
    # package or the benchmark reaches, or one that is gone, must leave it
    flagged = unreferenced_public_definitions(_package_sources(), benchmark_pins(monkeypatch))
    assert set(ENTRY_POINTS) <= {name for _, _, name in flagged}


# The one process-wide cache: argparse parsers are cyclic garbage once dropped,
# so the CLI builds its parser once per process.
PROCESS_CACHES = {"cli.py": {"build_parser"}}
_CACHE_DECORATORS = {"cache", "lru_cache"}


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "set", "list")
        and not node.args
        and not node.keywords
    )


def module_level_caches(source):
    """The caches of `source` that outlive every object: each function or method
    under a functools `cache` or `lru_cache` decorator (imported under any name),
    by qualified name, and each name bound to an empty container at module or
    class level."""
    tree = ast.parse(source)
    decorators = set(_CACHE_DECORATORS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            decorators.update(a.asname for a in node.names if a.asname and a.name in _CACHE_DECORATORS)
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in child.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in decorators:
                        found.add(prefix + child.name)
                visit(child, prefix + child.name + ".")

    visit(tree, "")
    for node in _module_statements(tree):
        if isinstance(node, ast.Assign) and _is_empty_container(node.value):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and node.value is not None and _is_empty_container(node.value):
            found.add(node.target.id)
    return found


def _module_statements(tree):
    """The statements that run at import, in if/try/with/for blocks and class bodies too, but not in a def."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))


def test_the_check_flags_a_module_level_cache():
    source = (
        "import functools\nfrom functools import lru_cache as memo, cached_property\n"
        "_TABLE = {}\nSEEN: set = set()\nif True:\n    _ROWS = []\nLIMITS = {'a': 1}\nNAMES = ['x']\n"
        "@functools.cache\ndef a():\n    local = {}\n"
        "@memo(maxsize=None)\ndef b():\n    pass\n"
        "class C:\n    shared = {}\n    @functools.lru_cache\n    def c(self):\n        pass\n"
        "    @cached_property\n    def d(self):\n        return {}\n"
    )
    assert module_level_caches(source) == {"_TABLE", "SEEN", "_ROWS", "shared", "a", "b", "C.c"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_cache_beyond_the_allowlist(path):
    assert module_level_caches(path.read_text()) == PROCESS_CACHES.get(path.name, set())
