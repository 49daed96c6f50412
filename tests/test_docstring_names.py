"""Every backticked name in a docstring or comment under src/ names
something the code has.

A backticked dotted name (`name` or `module.name.attr`) must have each of
its parts defined, imported or used in some module under src/: as a module,
a function, class or argument name, a variable, an imported name or an
attribute.  A builtin or a config key also counts.  So a docstring that
still names a class or function after it is gone fails here.  Names that
the code has only as text, such as a CLI command, are listed in ALLOWED.
"""

from __future__ import annotations

import ast
import builtins
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

from miaudit.cli_runner.config import _SCHEMA

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))
_BACKTICKED = re.compile(r"`([^`\s]+)`")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# (module, name) once per mention; a stale entry fails too
ALLOWED = [
    ("miaudit/cli_runner/pipeline.py", "audit"),  # the CLI command
    ("miaudit/cli_runner/pipeline.py", "audit"),
]


def code_names(source: str) -> set[str]:
    """Every name the code of `source` defines, imports, or uses."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
                if alias.asname:
                    names.add(alias.asname)
            if isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
    return names


def prose(source: str) -> list[str]:
    """The docstrings and comments of `source`."""
    texts = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                texts.append(doc)
    return texts


def unknown_names(source: str, known: set[str]) -> list[str]:
    """Each backticked dotted name in the prose of `source` with a part
    that is not in `known`, once per mention."""
    found = []
    for text in prose(source):
        for token in _BACKTICKED.findall(text):
            parts = set(token.split("."))
            if _DOTTED.fullmatch(token) and token not in known and not parts <= known:
                found.append(token)
    return found


def known_names() -> set[str]:
    known = set(dir(builtins)) | set(_SCHEMA)
    for path in MODULES:
        known |= code_names(path.read_text(encoding="utf-8"))
        known.update(path.relative_to(SRC).with_suffix("").parts)
    return known


def test_docstrings_and_comments_name_what_the_code_has():
    known = known_names()
    found = [
        (str(path.relative_to(SRC)), name)
        for path in MODULES
        for name in unknown_names(path.read_text(encoding="utf-8"), known)
    ]
    assert Counter(found) == Counter(ALLOWED)


def test_checker_flags_a_name_the_code_lacks():
    source = (
        '"""Module text naming `Gone` and `np.zeros`."""\n'
        "import numpy as np\n"
        "\n"
        "\n"
        "def f(width):\n"
        '    """Reads `width` and `Stale.rows`, and `(n, d)` is no name."""\n'
        "    return np.zeros(width)  # `Missing` in a comment, `f` is here\n"
    )
    known = set(dir(builtins)) | code_names(source)
    assert sorted(unknown_names(source, known)) == ["Gone", "Missing", "Stale.rows"]
