"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest bench/tests -q

Each workload has a seconds-long smoke variant (`run.py --smoke`) that must
emit every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _tamper(out: Path) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text())
    report["strategies"].pop(sorted(report["strategies"])[0])
    path.write_text(json.dumps(report))


def test_dropped_strategy_counts_as_failed(tmp_path, monkeypatch):
    w = wl.WORKLOADS["adv_search"]
    monkeypatch.setattr(run, "ROOT", REPO)
    env = run.child_env(w)
    real_call = run.call_cli

    def call_then_tamper(args, env, cwd, log):
        outcome = real_call(args, env, cwd, log)
        _tamper(Path(args[args.index("--out") + 1]))
        return outcome

    monkeypatch.setattr(run, "call_cli", call_then_tamper)
    prepare = functools.partial(run.set_up, w, 5, wl.SMOKE, tmp_path / "inputs", env)
    result = run.timed_run(w, wl.SMOKE, prepare, tmp_path, 0.1, env)
    assert len(result["problems"]) == result["attempted"] == run.MIN_CALLS + 1
    assert all("strategies" in p["problems"][0] for p in result["problems"])


def test_score_csvs_follow_the_seed(tmp_path):
    wl.write_score_csvs(tmp_path / "a", 3, 50)
    wl.write_score_csvs(tmp_path / "b", 3, 50)
    wl.write_score_csvs(tmp_path / "c", 4, 50)
    assert wl.digest(tmp_path / "a") == wl.digest(tmp_path / "b") != wl.digest(tmp_path / "c")
    header = (tmp_path / "a" / "scores_adv_dist.csv").read_text().splitlines()[0]
    assert header == "sample_id,strategy,score,is_member"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "adv_search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
