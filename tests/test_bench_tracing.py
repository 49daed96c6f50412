"""The benchmark's span tracer still finds its patch points in the pipeline.

`bench/tracing.py` wraps functions by their names as globals of
`miaudit.cli_runner.pipeline`, `miaudit.scores`, `miaudit.adversarial` and
`miaudit.attack_models`; a name that moves or goes away breaks the traced
benchmark run.  These run one traced `report` re-render and two traced
audits with every strategy on the benchmark's smoke-sized inputs, one with
every attacker fitted in the traced process and one with a forked fit
process.
"""

import importlib
import os
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def traced_totals(tmp_path, monkeypatch, workload):
    """(workloads module, tracing module, span totals) of one traced run."""
    monkeypatch.syspath_prepend(str(BENCH))
    wl = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    w = wl.WORKLOADS[workload]
    inputs = wl.write_inputs(w, 3, wl.SMOKE, tmp_path / "inputs")
    tracer = tracing.traced_pipeline(w, inputs, tmp_path / "out")
    return wl, tracing, tracer.totals()


def test_traced_report_rerender_records_its_spans(tmp_path, monkeypatch):
    wl, _, totals = traced_totals(tmp_path, monkeypatch, "report_rerender")
    n_strategies = len(wl.WORKLOADS["report_rerender"].strategies)
    assert totals["scores.read_records"]["calls"] == n_strategies
    assert totals["evaluation.repeated_subset"]["calls"] == 1
    # analysis2 and the histograms call these once per strategy by their
    # pipeline names; the ratio study runs on the one default ratio strategy
    assert totals["evaluation.holdout"]["calls"] == n_strategies
    assert totals["evaluation.hist"]["calls"] == n_strategies
    assert totals["evaluation.ratio"]["calls"] == 1
    assert (tmp_path / "out" / "report.json").is_file()


def test_traced_audit_records_its_spans(tmp_path, monkeypatch):
    # on one usable core every attacker is fitted in the traced process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    wl, tracing, totals = traced_totals(tmp_path, monkeypatch, "attackers_full")
    # every threshold score but adv_dist is a cheap one
    assert totals["scores.cheap"]["calls"] == len(wl.THRESHOLD) - 1
    for attacker in wl.ATTACKERS:
        assert totals[f"attack_models.fit.{attacker}"]["calls"] == 1
    for short in tracing.EXTRACTORS.values():
        assert totals[f"attack_models.extract.{short}"]["calls"] == 1
    assert totals["nn_core.sample_evaluation"]["calls"] > 0
    assert totals["adversarial.project"]["calls"] > 0
    assert (tmp_path / "out" / "report.json").is_file()


def test_traced_forked_audit_records_the_fits_of_the_traced_process(tmp_path, monkeypatch):
    # the tracer records spans of its own process only, so the fits of the
    # forked process leave none
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    wl, _, totals = traced_totals(tmp_path, monkeypatch, "attackers_full")
    fitted = [a for a in wl.ATTACKERS if f"attack_models.fit.{a}" in totals]
    assert fitted == ["attacker_wb"]
    assert totals["attack_models.fit.attacker_wb"]["calls"] == 1
    assert (tmp_path / "out" / "report.json").is_file()
