"""The library example in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    monkeypatch.chdir(tmp_path)  # the example saves a checkpoint
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    printed = capsys.readouterr().out.split("\n")
    assert 0.5 < float(printed[0]) <= 1.0  # the AUROC of adv_dist
    assert (tmp_path / "target.ckpt").is_file()
