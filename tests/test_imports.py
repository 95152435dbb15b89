"""Every name a module of the package imports is read by that module, and
every function and class it defines has a caller.

No linter ships with the package, so these tests parse each module with
``ast`` instead: a name bound by an import must appear as a name somewhere
else in the module, or in its ``__all__``.  The package's ``__init__`` is
skipped, because its imports are the package's public names.  A
module-level function or class must be read as a name by a module of the
package, or as a name or an attribute by the benchmark (``bench/*.py``) or
a python example of the README: a public name that only the package's
``__init__`` and the tests reach is code no solve path runs.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pdsplit"

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


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def referenced_names():
    """The names the package's modules read, and the names and attributes
    that bench/*.py and the README's python examples read."""
    refs = {node.id for path in SRC.glob("*.py") if path.stem != "__init__"
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    outside = [_parse(path) for path in (ROOT / "bench").glob("*.py")]
    outside += [ast.parse(block) for block in re.findall(
        r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)]
    for tree in outside:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def test_every_module_level_function_and_class_has_a_caller():
    refs = referenced_names()
    uncalled = sorted(f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
                      for node in _parse(path).body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and node.name not in refs)
    assert uncalled == []
