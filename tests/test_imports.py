"""Every name a module of the package imports is read by that module.

No linter ships with the package, so this test parses each module with
``ast`` instead: a name bound by an import must appear as a name somewhere
else in the module, or in its ``__all__``.  The package's ``__init__`` is
skipped, because its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pdsplit"

# names imported on purpose and never read, with the reason
KEPT = {
    ("reductions", "entry_apply_adjoint"):
        "bench/tracer.py wraps both entry_apply names in the reductions namespace",
}


def unread_imports(source):
    """The names an import in source binds that source never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return bound - read


def test_the_check_finds_an_unread_import():
    assert unread_imports("import os\nfrom a import b, c as d\nprint(b)\n") == {"os", "d"}
    assert unread_imports("from a import b\n__all__ = ['b']\n") == set()


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "__init__"))
def test_every_import_is_read(module):
    unread = unread_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert unread == {name for mod, name in KEPT if mod == module}
