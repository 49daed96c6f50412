"""The benchmark's span tracer still finds its patch points in the pipeline.

`bench/tracing.py` wraps functions by their names as globals of
`miaudit.cli_runner.pipeline`; a name that moves or goes away breaks the
traced benchmark run.  This runs one traced `report` re-render on the
benchmark's smoke-sized inputs.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_report_rerender_records_its_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    wl = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    w = wl.WORKLOADS["report_rerender"]
    inputs = wl.write_inputs(w, 3, wl.SMOKE, tmp_path / "inputs")
    tracer = tracing.traced_pipeline(w, inputs, tmp_path / "out")
    totals = tracer.totals()
    assert totals["scores.read_records"]["calls"] == len(w.strategies)
    assert totals["evaluation.repeated_subset"]["calls"] == 1
    assert (tmp_path / "out" / "report.json").is_file()
