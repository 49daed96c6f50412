"""Every name a module under src/ imports is used in that module.

A package's `__init__.py` re-exports what it imports and is exempt; any
other import kept only for its side effect or for re-export carries
`# noqa: F401` and a reason on its line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
_NOQA = re.compile(r"#\s*noqa:\s*F401\s+\S")


def unused_imports(source: str) -> list[str]:
    """`name (line n)` for each imported name that `source` never reads and
    whose line carries no `# noqa: F401` with a reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and not _NOQA.search(lines[alias.lineno - 1]):
                unused.append(f"{name} (line {alias.lineno})")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_accepts_reasoned_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "from math import pi  # noqa: F401  re-exported for callers\n"
        "from math import tau  # noqa: F401\n"
        "print(np.zeros(1), dumps)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "loads (line 6)", "tau (line 9)"]
