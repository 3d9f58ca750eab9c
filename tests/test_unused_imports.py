"""No module of the package imports a name it never uses.

A name counts as used when it is read anywhere in the module.  The one
exception is an imported name whose line carries the noqa marker of the
benchmark tracer (perfbench/tracer.py wraps such a name by its module
attribute, so the module must hold it even though it never calls it).
`__init__.py` re-exports, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twosquares"


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
