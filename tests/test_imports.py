"""Every name a `src/opbar` module imports is used in that module.

An import left behind by a refactor costs load time in every process and
hides which modules really depend on each other.  The check reads each
module with the stdlib `ast` module: a name counts as used when it is
read anywhere in the module (a function-local import included), and a
name listed in the module's `__all__` counts as used, so the package's
re-exports pass.
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
