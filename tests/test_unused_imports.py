"""No module of the package imports a name it never uses, no private
module-level name of the package goes unread, and no public top-level
function or class goes unread outside the tests.

An imported name counts as used when it is read anywhere in the module.
The one exception is an imported name whose line carries the noqa marker
of the benchmark tracer (perfbench/tracer.py wraps such a name by its
module attribute, so the module must hold it even though it never calls
it).  `__init__.py` re-exports, so its imports are not checked.  A private
name (one leading underscore) that a module defines at its top level by
def, class or assignment counts as read when any module of the package
loads it, by name or as an attribute.  A public def or class counts as
read when a module of the package other than `__init__.py`, a demo or a
benchmark script loads it the same way; the few that only the tests and
the package's users read are listed, each with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twosquares"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                line = lines[alias.lineno - 1]
                if "noqa: F401" in line and "perfbench/tracer.py" in line:
                    continue
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_marked_imports():
    src = (
        "import math\n"
        "from fractions import Fraction\n"
        "from .arith import (\n"
        "    crt,\n"
        "    r2,  # noqa: F401  (not called here; perfbench/tracer.py wraps it)\n"
        "    g1,  # noqa: F401\n"
        ")\n"
        "x = math.pi * crt\n"
    )
    assert unused_imports(src) == ["Fraction (line 2)", "g1 (line 6)"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    defined, read = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                targets = []
            for target in targets:
                if target.startswith("_") and not target.startswith("__"):
                    defined[target] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}: {target}" for target, module in defined.items() if target not in read)


def test_package_reads_every_private_name():
    assert unread_private_names({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_checker_sees_unread_private_names():
    sources = {
        "a.py": "_A, _B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\nclass _K:\n    pass\n__all__ = []\n",
        "b.py": "import a\nx = a._C + a._f()\n",
    }
    assert unread_private_names(sources) == ["a.py: _B", "a.py: _K"]


# public defs that nothing outside the tests reads, and why each stays
KEPT_UNREAD = {
    "empirical_sum_r": "API twin of the one-pass trend sum",
    "empirical_sum_rr": "API twin of the one-pass trend sum",
    "convolution_transform": "documented number-theory helper",
    "ramanujan_sum": "documented number-theory helper",
    "tau_k": "documented number-theory helper",
    "sJ_direct": "the direct S_J oracle that the S_J main-term check will read",
}


def unread_public_defs(defining: dict[str, str], readers: list[str]) -> list[str]:
    defined, read = {}, set()
    for name, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = name
    for source in [*defining.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}: {target}" for target, module in defined.items() if target not in read)


def test_every_public_def_is_read():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    readers = [p.read_text() for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py")]
    assert {u.split(": ")[1] for u in unread_public_defs(modules, readers)} == set(KEPT_UNREAD)


def test_checker_sees_unread_public_defs():
    defining = {
        "a.py": "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\nclass K:\n    def m(self):\n        pass\n",
        "b.py": "import a\nx = a.K\ndef _p():\n    pass\n",
    }
    assert unread_public_defs(defining, []) == ["a.py: f", "a.py: h"]
    assert unread_public_defs(defining, ["from a import h\nh()\n"]) == ["a.py: f"]
