"""The artifact module owns every file write: library saves are atomic,
binary loaders name the file they reject, and no other module writes,
renames or formats a file itself."""

import ast
import builtins
import errno
from pathlib import Path

import numpy as np
import pytest

import miaudit as mi
from miaudit import attack_models as am
from miaudit.cli_runner.data import read_binary_file, save_binary_file
from miaudit.errors import DataError


def _attacker(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (12, 3))
    return am.fit_mlp_attacker(X, np.repeat([0.0, 1.0], 6), seed=seed, hidden=(4, 3), epochs=3)


def _dataset(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (5, 3)), np.array([0, 1, 2, 0, 1])


SAVERS = {
    "checkpoint": lambda seed, path: mi.save_checkpoint(mi.build_mlp([3, 4, 2], seed=seed), path),
    "attacker": lambda seed, path: am.save_attacker(_attacker(seed), path),
    "binary_dataset": lambda seed, path: save_binary_file(*_dataset(seed), path, 3),
}

LOADERS = {
    "checkpoint": mi.load_checkpoint,
    "attacker": am.load_attacker,
    "binary_dataset": read_binary_file,
}


class _FullDisk:
    """A file opened for writing whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


@pytest.mark.parametrize("kind", sorted(SAVERS))
def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch, kind):
    path = tmp_path / f"{kind}.bin"
    SAVERS[kind](0, path)
    before = path.read_bytes()
    real_open = builtins.open

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode else fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", open_on_full_disk)
        with pytest.raises(OSError, match="No space left"):
            SAVERS[kind](1, path)
    assert path.read_bytes() == before
    assert list(tmp_path.glob(".*.tmp")) == []


@pytest.mark.parametrize("case", ["bad_magic", "cut_by_one_byte", "trailing_byte"])
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_binary_loader_errors_name_the_file(tmp_path, kind, case):
    path = tmp_path / f"{kind}.bin"
    SAVERS[kind](0, path)
    blob = path.read_bytes()
    bad = {
        "bad_magic": bytes([blob[0] ^ 0xFF]) + blob[1:],
        "cut_by_one_byte": blob[:-1],
        "trailing_byte": blob + b"\x00",
    }[case]
    path.write_bytes(bad)
    with pytest.raises(DataError) as err:
        LOADERS[kind](path)
    assert str(path) in str(err.value)


# (module, attribute) calls that write, rename or format a file
_FILE_CALLS = {
    ("os", "replace"),
    ("json", "dumps"),
    ("json", "loads"),
    ("csv", "writer"),
    ("csv", "reader"),
}
_FILE_METHODS = {"write_text", "write_bytes"}


def _file_calls(tree):
    """(line, what) of each call in the tree that only the artifact module
    may make."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in {m for m, _ in _FILE_CALLS}:
            for alias in node.names:
                if (node.module, alias.name) in _FILE_CALLS:
                    yield node.lineno, f"from {node.module} import {alias.name}"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            if mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                yield node.lineno, f"open(..., {ast.unparse(mode)})"
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if (owner, func.attr) in _FILE_CALLS or func.attr in _FILE_METHODS:
                yield node.lineno, ast.unparse(func)


def test_only_the_artifact_module_writes_files():
    package = Path(mi.__file__).parent
    found = [
        f"{path.relative_to(package)}:{line}: {what}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "artifacts.py"
        for line, what in _file_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_file_call_check_sees_each_kind():
    source = (
        "from json import loads\n"
        "open(p, 'wb')\nopen(p, mode='a')\nopen(p, m)\nopen(p)\nopen(p, 'rb')\n"
        "os.replace(a, b)\njson.dumps(x)\ncsv.reader(f)\np.write_text(t)\nq.write_bytes(b)\n"
        "os.fdopen(fd, 'wb')\n"
    )
    assert [line for line, _ in _file_calls(ast.parse(source))] == [1, 2, 3, 4, 7, 8, 9, 10, 11]
