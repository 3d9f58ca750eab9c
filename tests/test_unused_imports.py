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
benchmark script loads it the same way: what only the tests read lives in
tests/oracles.py.  A dataclass field counts as read when a module of the
package, a demo or a benchmark script loads it as an attribute, or when
its class is one that the CLI hands whole to dataclasses.asdict.
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
    assert unread_public_defs(modules, readers) == []


def test_checker_sees_unread_public_defs():
    defining = {
        "a.py": "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\nclass K:\n    def m(self):\n        pass\n",
        "b.py": "import a\nx = a.K\ndef _p():\n    pass\n",
    }
    assert unread_public_defs(defining, []) == ["a.py: f", "a.py: h"]
    assert unread_public_defs(defining, ["from a import h\nh()\n"]) == ["a.py: f"]


def unread_fields(defining: dict[str, str], readers: list[str], whole: set[str] = frozenset()) -> list[str]:
    defined, read = {}, set()
    for name, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef) or node.name in whole:
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    defined[f"{node.name}.{stmt.target.id}"] = name
    for source in [*defining.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}: {target}" for target, module in defined.items() if target.split(".")[1] not in read)


# the dataclasses whose every field a report echoes through dataclasses.asdict
REPORTED_WHOLE = {"CorrelationReport"}


def test_every_field_is_read():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py")]
    assert "asdict(" in modules["cli.py"]
    assert unread_fields(modules, readers, REPORTED_WHOLE) == []


def test_checker_sees_unread_fields():
    defining = {
        "a.py": (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = field(init=False)\n"
            "    def __post_init__(self):\n        object.__setattr__(self, 'y', 2 * self.x)\n"
            "@dataclass\nclass Q:\n    z: int\n    def total(self):\n        return self.z\n"
            "class Plain:\n    w: int\n"
        ),
        "b.py": "import a\nq = a.Q(1)\n",
    }
    assert unread_fields(defining, []) == ["a.py: P.y"]
    assert unread_fields(defining, ["print(p.y)\n"]) == []
    assert unread_fields(defining, [], {"P"}) == []
