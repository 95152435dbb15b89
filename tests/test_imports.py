"""Every name a module of the package imports is read by that module, no
module imports another's private (underscore) name, and every function,
class and constant it defines has a caller.

No linter ships with the package, so these tests parse each module with
``ast`` instead: a name bound by an import must appear as a name somewhere
else in the module, or in its ``__all__``.  The package's ``__init__`` is
skipped, because its imports are the package's public names.  A
module-level function, class or assignment (``__all__`` aside) must be read
as a name by a module of the package, or as a name or an attribute by the
benchmark (``bench/*.py``) or a python example of the README, or named by a
string of the benchmark, whose tracer patches functions by name: a public
name that only the package's ``__init__`` and the tests reach is code no
solve path runs.
The property checks of ``selftest`` are not callers either, so the names
it imports from the other modules do not count; its reads of its own
helpers do.  Likewise each method, property and class attribute of a
class of the package (dunder names aside) must be read by a module of the
package other than ``selftest``, by the benchmark or by a README example.
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


def _imported(tree):
    """The names the imports of tree bind."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound


def unread_imports(source):
    """The names an import in source binds that source never reads."""
    tree = ast.parse(source)
    bound = _imported(tree)
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


def private_imports(source):
    """The underscore names source imports from a module of the package,
    by a relative import or one from ``pdsplit``, as module.name."""
    return sorted(f"{node.module}.{a.name}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "pdsplit")
                  for a in node.names if a.name.startswith("_"))


def test_the_check_finds_a_private_import():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .system import _runs, solve_system\nfrom pdsplit.blocks import _cells\n")
    assert private_imports(source) == ["pdsplit.blocks._cells", "system._runs"]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_imports_a_private_name(module):
    assert private_imports((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def _defined(node):
    """The names a module-level statement defines: a function's or class's
    name, or the names an assignment binds, ``__all__`` aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id != "__all__"]


def _read(sources, strings):
    """The names and attributes the sources read and, when strings, their
    identifier-like strings."""
    refs = set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            refs.add(node.value)
    return refs


def uncalled(package, bench, examples):
    """The module-level functions, classes and constants of package (module
    stem -> source, ``__init__`` left out) that nothing reads: no module of the
    package as a name, selftest through its imports aside; no bench or
    example source as a name or an attribute; no bench source as a string."""
    trees = {stem: ast.parse(source) for stem, source in package.items()}
    refs = set()
    for stem, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        refs |= read - _imported(tree) if stem == "selftest" else read
    refs |= _read(bench, True) | _read(examples, False)
    return sorted(f"{stem}.{name}" for stem, tree in trees.items()
                  for node in tree.body for name in _defined(node) if name not in refs)


def test_the_check_counts_no_selftest_import_and_every_bench_string():
    package = {"lib": "def f(): pass\ndef g(): pass\n",
               "selftest": "from .lib import f, g\ndef _row(): f()\nprint(_row, g)\n"}
    assert uncalled(package, [], []) == ["lib.f", "lib.g"]
    assert uncalled(package, ["patch(lib, 'f')\n"], ["print('g')\n"]) == ["lib.g"]
    # a constant counts as a function does; __all__ and an attribute store define none
    package = {"lib": "__all__ = ['N']\nN = 1\nM, (P, Q) = 2, (3, 4)\nT: int = 5\n"
                      "def f(): return M\nf.cache = {}\n",
               "selftest": "from .lib import P\nprint(P)\n"}
    assert uncalled(package, ["lib.f(lib.Q)\n"], ["print(T)\n"]) == ["lib.N", "lib.P"]


def test_every_module_level_function_and_class_has_a_caller():
    package = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")
               if path.stem != "__init__"}
    bench = [path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py")]
    examples = re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert uncalled(package, bench, examples) == []


def unread_members(package, bench, examples):
    """The methods, properties and class attributes of the module-level
    classes of package (module stem -> source), dunder names aside, that
    nothing reads: no module of the package but selftest and no bench or
    example source as a name or an attribute, no package module but
    selftest and no bench source as an identifier-like string.  A member
    read by name counts for every class that defines that name."""
    others = [source for stem, source in package.items() if stem != "selftest"]
    refs = _read(others, True) | _read(bench, True) | _read(examples, False)
    return sorted(f"{stem}.{cls.name}.{name}" for stem, source in package.items()
                  for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
                  for node in cls.body for name in _defined(node)
                  if name not in refs and not (name.startswith("__") and name.endswith("__")))


def test_the_member_check_counts_reads_outside_selftest():
    lib = ("class A:\n    flag = True\n    n: int = 1\n    def run(self): return self.n\n"
           "    @property\n    def size(self): return 0\n    def __len__(self): return 0\n"
           "class B(A):\n    flag = False\n    def helper(self): pass\n")
    package = {"lib": lib, "selftest": "from .lib import A\nA().size, A.flag\n"}
    assert unread_members(package, [], []) == ["lib.A.flag", "lib.A.run", "lib.A.size",
                                               "lib.B.flag", "lib.B.helper"]
    assert unread_members(package, ["getattr(x, 'size')\n"], ["b.helper()\nflag = 1\n"]) == [
        "lib.A.flag", "lib.A.run", "lib.B.flag"]


def test_every_class_member_has_a_reader():
    package = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    bench = [path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py")]
    examples = re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert unread_members(package, bench, examples) == []
