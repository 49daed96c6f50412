"""In-process traced run: spans around the public functions the pipeline
calls, kept in memory and dumped when the run ends.

Two kinds of span.  Stage spans wrap a call from the pipeline into a layer
(target training, one score, one feature extraction, one attacker fit, one
evaluation protocol, export); their self time is their duration minus their
stage children.  Kernel spans wrap the hot inner functions
(`sample_evaluation`, `project_lp_box`, `roc_curve`) and give call counts and
per-call cost; they do not reduce their stage's self time.

Spans are recorded only in the benchmark's own process: pool workers run the
wrapped functions unrecorded, so a pooled audit shows only the `Pool.map`
span.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing.pool
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import workloads as wl

EXTRACTORS = {
    "extract_grad_w_stats": "grad_w_stats",
    "extract_grad_x_stats": "grad_x_stats",
    "extract_intermediate_outputs": "intermediate_outputs",
    "extract_wb_features": "wb_concat",
}
FITTERS = ("fit_logistic_attacker", "fit_mlp_attacker", "build_and_train_ensemble")
MLP_BATCH = 32  # default minibatch of fit_mlp_attacker and build_and_train_ensemble

# name -> unit of every per-layer metric, in report order
METRICS = {
    "cli.import_s": "s",
    "data.generate_s": "s",
    "nn_core.train_s": "s",
    "nn_core.train_epochs": "count",
    "nn_core.sample_evaluation_calls": "count",
    "nn_core.sample_evaluation_us": "us",
    "scores.cheap_s": "s",
    "scores.cheap_calls": "count",
    "scores.read_records_s": "s",
    "scores.read_rows": "count",
    "adversarial.find_s": "s",
    "adversarial.find_calls": "count",
    "adversarial.iterations": "count",
    "adversarial.iter_us": "us",
    "adversarial.project_calls": "count",
    "adversarial.project_us": "us",
    "adversarial.success_ratio": "1",
    "adversarial.presolved": "count",
    **{f"attack_models.extract_s.{e}": "s" for e in EXTRACTORS.values()},
    **{f"attack_models.fit_s.{a}": "s" for a in wl.ATTACKERS},
    **{f"attack_models.fit_steps.{a}": "count" for a in wl.ATTACKERS},
    "attack_models.epoch_ms": "ms",
    "attack_models.score_s": "s",
    "evaluation.repeated_subset_s": "s",
    "evaluation.avg_roc_s": "s",
    "evaluation.holdout_s": "s",
    "evaluation.ratio_s": "s",
    "evaluation.hist_s": "s",
    "evaluation.roc_calls": "count",
    "evaluation.roc_us": "us",
    "pipeline.export_s": "s",
    "pipeline.bytes_written": "B",
    "pipeline.pool_map_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
    "src.loc": "count",
}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent index, kernel]
        self.stack = []
        self.counts = Counter()
        self.attacker_seeds = {}  # fit seed -> attacker strategy name
        self._patched = []

    @contextmanager
    def span(self, name: str, kernel: bool = False):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, kernel]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr: str, name, kernel: bool = False, after=None):
        """Replace owner.attr by a recording wrapper.  `name` is a span name or
        a function of the call's arguments; `after(result, args)` counts."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            with tracer.span(name if isinstance(name, str) else name(args), kernel):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, stage self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent, kernel in self.spans:
            if parent >= 0 and not kernel:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, kernel) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["total_s"] += end - start
            if not kernel:
                t["self_s"] += end - start - child_time[i]
        return dict(out)


def _install(tracer: Tracer) -> None:
    from miaudit import adversarial, evaluation, scores
    from miaudit import attack_models as am
    from miaudit.cli_runner import pipeline

    def score_name(args):
        return "scores.adv_dist" if args[3] == "adv_dist" else "scores.cheap"

    def after_find(outcome, args):
        c = tracer.counts
        c["adversarial.iterations"] += outcome.iterations_used
        if outcome.iterations_used == 0 and outcome.distance == 0.0:
            c["adversarial.presolved"] += 1
        else:
            c["adversarial.searched"] += 1
            c["adversarial.succeeded"] += int(outcome.success)

    def fit_name(args):
        return "attack_models.fit." + tracer.attacker_seeds.get(args[2], "unknown")

    def after_fit(attacker, args):
        name = fit_name(args)[len("attack_models.fit."):]
        epochs = len(attacker.history)
        if attacker.kind == "logistic":
            tracer.counts[f"fit_steps.{name}"] += epochs
        else:
            tracer.counts[f"fit_steps.{name}"] += epochs * math.ceil(len(args[0]) / MLP_BATCH)
            tracer.counts["attack_models.mlp_epochs"] += epochs

    def count(key, size):
        def after(result, args):
            tracer.counts[key] += size(result)
        return after

    tracer.wrap(pipeline, "generate_synthetic_dataset", "data.generate")
    tracer.wrap(pipeline, "train", "nn_core.train",
                after=count("nn_core.train_epochs", lambda r: len(r[1])))
    tracer.wrap(pipeline, "compute_score", score_name)
    tracer.wrap(scores, "find_adversarial", "adversarial.find", after=after_find)
    for owner in (adversarial, scores):
        tracer.wrap(owner, "sample_evaluation", "nn_core.sample_evaluation", kernel=True)
    tracer.wrap(adversarial, "project_lp_box", "adversarial.project", kernel=True)
    for fn, short in EXTRACTORS.items():
        tracer.wrap(am, fn, f"attack_models.extract.{short}")
    for fn in FITTERS:
        tracer.wrap(am, fn, fit_name, after=after_fit)
    tracer.wrap(am, "attacker_scores", "attack_models.score")
    tracer.wrap(pipeline, "repeated_subset_experiment", "evaluation.repeated_subset")
    tracer.wrap(pipeline, "averaged_roc_on_grid", "evaluation.avg_roc")
    tracer.wrap(pipeline, "holdout_threshold_eval", "evaluation.holdout")
    tracer.wrap(pipeline, "ratio_robustness_experiment", "evaluation.ratio")
    tracer.wrap(pipeline, "score_histogram", "evaluation.hist")
    tracer.wrap(evaluation, "roc_curve", "evaluation.roc", kernel=True)
    tracer.wrap(pipeline, "read_score_records", "scores.read_records",
                after=count("scores.read_rows", len))
    tracer.wrap(pipeline, "export_report", "pipeline.export")
    tracer.wrap(multiprocessing.pool.Pool, "map", "pipeline.pool_map")


def span_cost_s(n: int = 20000, repeats: int = 3) -> float:
    """Seconds one recorded span adds: median over `repeats` of the per-call
    difference between n wrapped and n bare no-op calls."""

    class Probe:
        @staticmethod
        def noop(*args):
            return None

    bare = Probe.noop
    Tracer().wrap(Probe, "noop", "probe")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            bare(1, 2, 3, 4)
        t1 = time.perf_counter()
        for _ in range(n):
            Probe.noop(1, 2, 3, 4)
        t2 = time.perf_counter()
        costs.append(max(0.0, ((t2 - t1) - (t1 - t0)) / n))
    return statistics.median(costs)


def _per_call_us(totals: dict, name: str) -> tuple:
    t = totals.get(name, {"calls": 0, "total_s": 0.0})
    return t["calls"], (1e6 * t["total_s"] / t["calls"] if t["calls"] else 0.0)


def layer_metrics(tracer: Tracer, out: Path, span_cost: float) -> dict:
    t = tracer.totals()
    c = tracer.counts

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    m = {
        "data.generate_s": total("data.generate"),
        "nn_core.train_s": total("nn_core.train"),
        "nn_core.train_epochs": c["nn_core.train_epochs"],
        "scores.cheap_s": total("scores.cheap"),
        "scores.cheap_calls": t.get("scores.cheap", {}).get("calls", 0),
        "scores.read_records_s": total("scores.read_records"),
        "scores.read_rows": c["scores.read_rows"],
        "adversarial.find_s": total("adversarial.find"),
        "adversarial.find_calls": t.get("adversarial.find", {}).get("calls", 0),
        "adversarial.iterations": c["adversarial.iterations"],
        "adversarial.iter_us": (1e6 * total("adversarial.find") / c["adversarial.iterations"]
                                if c["adversarial.iterations"] else 0.0),
        "adversarial.success_ratio": (c["adversarial.succeeded"] / c["adversarial.searched"]
                                      if c["adversarial.searched"] else 0.0),
        "adversarial.presolved": c["adversarial.presolved"],
        "attack_models.score_s": total("attack_models.score"),
        "evaluation.repeated_subset_s": total("evaluation.repeated_subset"),
        "evaluation.avg_roc_s": total("evaluation.avg_roc"),
        "evaluation.holdout_s": total("evaluation.holdout"),
        "evaluation.ratio_s": total("evaluation.ratio"),
        "evaluation.hist_s": total("evaluation.hist"),
        "pipeline.export_s": total("pipeline.export"),
        "pipeline.bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "pipeline.pool_map_s": total("pipeline.pool_map"),
        "pipeline.self_s": t["pipeline.run"]["self_s"],
        "trace.overhead_s": span_cost * len(tracer.spans),
    }
    (m["nn_core.sample_evaluation_calls"],
     m["nn_core.sample_evaluation_us"]) = _per_call_us(t, "nn_core.sample_evaluation")
    m["adversarial.project_calls"], m["adversarial.project_us"] = _per_call_us(t, "adversarial.project")
    m["evaluation.roc_calls"], m["evaluation.roc_us"] = _per_call_us(t, "evaluation.roc")
    for short in EXTRACTORS.values():
        m[f"attack_models.extract_s.{short}"] = total(f"attack_models.extract.{short}")
    mlp_fit_s = 0.0
    for a in wl.ATTACKERS:
        m[f"attack_models.fit_s.{a}"] = total(f"attack_models.fit.{a}")
        m[f"attack_models.fit_steps.{a}"] = c[f"fit_steps.{a}"]
        if a not in ("attacker_grad_w", "attacker_grad_x"):
            mlp_fit_s += m[f"attack_models.fit_s.{a}"]
    epochs = c["attack_models.mlp_epochs"]
    m["attack_models.epoch_ms"] = 1e3 * mlp_fit_s / epochs if epochs else 0.0
    return m


def traced_pipeline(w: wl.Workload, inputs: Path, out: Path) -> Tracer:
    """Run the workload once in-process under a fresh tracer."""
    from miaudit.cli_runner import config as cfg
    from miaudit.cli_runner import pipeline

    config = cfg.load_config(str(inputs / "workload.cfg"), {"output.dir": str(out)})
    tracer = Tracer()
    tracer.attacker_seeds = {cfg.stage_seed(config.seed, f"attacker:{a}"): a for a in wl.ATTACKERS}
    _install(tracer)
    try:
        with tracer.span("pipeline.run"):
            if w.command == "report":
                pipeline.rerender_from_scores(config, inputs / "scores", out)
            else:
                pipeline.run_pipeline(config)
    finally:
        tracer.restore()
    return tracer


def top_self_times(tracer: Tracer, n: int = 6) -> list:
    totals = tracer.totals()
    ranked = sorted(((v["self_s"], k) for k, v in totals.items() if v["self_s"] > 0), reverse=True)
    return [(k, round(s, 4)) for s, k in ranked[:n]]


def dump(path: Path, tracers: list) -> None:
    """Write every span of the first traced iteration and the per-name totals
    of each iteration (all spans of every iteration would run to megabytes)."""
    payload = {
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "kernel": k}
            for n, s, e, p, k in tracers[0].spans
        ],
        "totals": [t.totals() for t in tracers],
    }
    path.write_text(json.dumps(payload))


def src_loc(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))

