"""What a module imports: only the modules it needs, and only names it uses.

The package root holds just a docstring, so ``import fpcsat.core`` loads
``core`` and nothing else; the API is reached through the modules.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fpcsat"


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("core", {"core"}),
        ("tree", {"core", "tree"}),
        ("dimacs", {"core", "tree", "dimacs"}),
        ("solver", {"core", "tree", "solver"}),
        ("cardinality", {"core", "cardinality"}),
        ("instances", {"core", "instances"}),
    ],
)
def test_importing_a_module_loads_only_what_it_imports(module, loaded):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, fpcsat.{module}; "
         "print(sorted(m for m in sys.modules if m.startswith('fpcsat.')))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{sorted(f'fpcsat.{m}' for m in loaded)}\n"


def unused_imports(path: Path) -> set[str]:
    """The names ``path`` binds by an import, anywhere in it, and never reads.
    ``from __future__ import ...`` binds no name the module could read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert not unused_imports(path)
