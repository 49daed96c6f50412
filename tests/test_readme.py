"""The library example in README.md runs as written."""

import re
from pathlib import Path

from miaudit.cli_runner.config import _SCHEMA, ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    monkeypatch.chdir(tmp_path)  # the example saves a checkpoint
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    printed = capsys.readouterr().out.split("\n")
    assert 0.5 < float(printed[0]) <= 1.0  # the AUROC of adv_dist
    assert (tmp_path / "target.ckpt").is_file()


def test_key_table_matches_the_schema():
    # one row per config key; each literal default is the key's echo
    section = README.read_text(encoding="utf-8").split("### Key reference\n", 1)[1]
    table = section.strip().split("\n\n")[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]*?) \|", table, re.M)
    assert sorted(key for key, _ in rows) == sorted(_SCHEMA)
    echo = ExperimentConfig().echo()
    described = []
    for key, default in rows:
        literal = re.fullmatch(r"`([^`]*)`", default)
        if default == "empty" or literal:
            assert ("" if default == "empty" else literal.group(1)) == echo[key], key
        else:
            described.append(key)
    assert described == ["strategies"]  # "all six threshold scores"
