#!/usr/bin/env python3
"""miaudit benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload adv_search --seed 1 --seconds 20 --trace 0

Run it from the repository root; it drives `python3 -m miaudit` from `src/`.
With `--trace 0` it calls the CLI once on the fixed reference input set for
the AUROC gates, then again and again on the input set made from the seed
until the time is spent, and sets the workload up (config files, score CSVs,
a warm-up import) before every call; it checks every call's output and
reports the end-to-end metrics.
With `--trace 1` it runs the same pipeline in-process under the span tracer
of `tracing.py` and reports the per-layer metrics instead.  The last line of
standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
`--smoke` shrinks every input so a run takes seconds (used by the tests).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

# One BLAS thread per process: the pool workload runs 2 processes on 2 cores,
# and every workload is measured the same way.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
IMPORT_REPEATS = 5  # set-ups before a traced run, for the median import time
MIN_CALLS = 3  # timed calls on the seed's input set
CALL_TIMEOUT_S = 120

# Warm-up call made during set-up: times the import of the CLI (which loads
# numpy, filling the page cache) and reports the library versions.
ENV_PROBE = """
import time
t = time.perf_counter()
import miaudit.cli_runner.cli
import_s = time.perf_counter() - t
import json, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas, "import_s": import_s}))
"""


def child_env(w: wl.Workload) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MIAUDIT_WORKERS"}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    if w.workers:
        env["MIAUDIT_WORKERS"] = str(w.workers)
    return env


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_commit": commit,
            "platform": platform.platform()}


def set_up(w: wl.Workload, seed: int, scale: wl.Scale, inputs: Path, env: dict) -> tuple:
    """Write the seed's and the reference input set, then warm up.  Returns
    (seconds, seed inputs, reference inputs, library versions and the CLI
    import seconds)."""
    t0 = time.perf_counter()
    shutil.rmtree(inputs, ignore_errors=True)
    own = wl.write_inputs(w, seed, scale, inputs / "seed")
    ref = wl.write_inputs(w, wl.REFERENCE_SEED, scale, inputs / "reference")
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, capture_output=True,
                           text=True, check=True, timeout=CALL_TIMEOUT_S)
    return time.perf_counter() - t0, own, ref, json.loads(probe.stdout)


def call_cli(args: list, env: dict, cwd: Path, log: Path) -> tuple:
    """(wall seconds, peak RSS MB over the call's processes, exit code)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "miaudit", *args], cwd=cwd, env=env,
                                stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reports the child's own and its waited-for children's
            # (pool workers') resource use
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def checked_call(w, scale, inputs, workdir, env) -> tuple:
    """One CLI call into workdir/out: (wall s, peak RSS MB, problems found)."""
    out = workdir / "out"  # one path for every call, so report.json's output.dir echo agrees
    shutil.rmtree(out, ignore_errors=True)
    wall, rss, code = call_cli(wl.cli_args(w, inputs, out), env, workdir, workdir / "call.log")
    found = [f"exit code {code}"] if code != 0 else wl.check_outputs(w, scale, out)
    if found:
        found.append("log tail: " + (workdir / "call.log").read_text(errors="replace")[-400:])
    return wall, rss, found


def timed_run(w, scale, prepare, workdir, seconds, env) -> dict:
    """One call on the reference inputs, for the AUROCs, then calls on the
    seed's inputs until `seconds` are spent, at least MIN_CALLS of them.

    `prepare()` sets up (see set_up) before every call, so that setup_s, the
    median set-up time, samples the same stretch of the machine's drifting
    speed as wall_s; set-ups made back to back all fell in one fast or slow
    spell and spread by up to 25 % from run to run."""
    start = time.perf_counter()
    setups = []

    def set_up_again():
        seconds_taken, own, ref, versions = prepare()
        setups.append(seconds_taken)
        return own, ref, versions

    own, ref, versions = set_up_again()
    _, _, found = checked_call(w, scale, ref, workdir, env)
    problems = [{"call": "reference", "problems": found}] if found else []
    auroc_mean, auroc_min = (-1.0, -1.0) if found else wl.auroc_stats(workdir / "out")
    calls, first = [], None
    while True:
        set_up_again()
        wall, rss, found = checked_call(w, scale, own, workdir, env)
        if not found:
            d = wl.digest(workdir / "out")
            first = first or d
            if d != first:
                found.append("artifacts differ from the first call's")
        if found:
            problems.append({"call": len(calls), "problems": found})
        calls.append({"wall_s": wall, "rss_mb": rss})
        elapsed = time.perf_counter() - start
        expected = statistics.median(c["wall_s"] for c in calls) + statistics.median(setups)
        if len(calls) >= MIN_CALLS and elapsed + expected > seconds:
            break
    walls = [c["wall_s"] for c in calls]
    # The upper quartile of the calls, not the median or the fastest: the
    # shared machine runs the same call 1.2 to 2.4 s fast in spells of
    # seconds to minutes.  Fast spells come and go, the slow state is a
    # ceiling; over 40 s windows of one long stream of adv_search calls the
    # upper quartile spread by 9 % from window to window, the median by 11 %
    # and the fastest call by 23 % (bench/README.md).
    wall = statistics.quantiles(walls, n=4, method="inclusive")[2]
    return {
        "walls": walls,
        "versions": versions,
        "attempted": len(calls) + 1,
        "problems": problems,
        "metrics": {
            "wall_s": (wall, "s"),
            "samples_per_s": (wl.samples_per_call(w, scale) / wall, "1/s"),
            "peak_rss_mb": (statistics.median(c["rss_mb"] for c in calls), "MB"),
            "audit_auroc_mean": (auroc_mean, "1"),
            "audit_auroc_min": (auroc_min, "1"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }


def traced_run(w, scale, inputs, workdir, seconds, import_s, trace_file) -> dict:
    import tracing

    os.environ.update(PINNED)  # before miaudit, and so numpy, is imported here
    if w.workers:
        os.environ["MIAUDIT_WORKERS"] = str(w.workers)
    else:
        os.environ.pop("MIAUDIT_WORKERS", None)
    sys.path.insert(0, str(ROOT / "src"))
    span_cost = tracing.span_cost_s()
    out = workdir / "out"
    per_iteration, tracers, problems = [], [], []
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            tracer = tracing.traced_pipeline(w, inputs, out)
        except Exception as exc:  # a failed iteration is counted, not fatal
            problems.append({"iteration": len(tracers), "problems": [repr(exc)]})
            tracers.append(None)
        else:
            found = wl.check_outputs(w, scale, out)
            if found:
                problems.append({"iteration": len(tracers), "problems": found})
            tracers.append(tracer)
            per_iteration.append(tracing.layer_metrics(tracer, out, span_cost))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
    ok = [t for t in tracers if t is not None]
    if ok:
        tracing.dump(trace_file, ok)
        print("top stage self times (s):", json.dumps(tracing.top_self_times(ok[0])))
    metrics = {}
    for name, unit in tracing.METRICS.items():
        values = [m[name] for m in per_iteration if name in m]
        metrics[name] = (statistics.median(values) if values else 0.0, unit)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["src.loc"] = (tracing.src_loc(ROOT), "count")
    return {"attempted": len(tracers), "problems": problems, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "miaudit" / "__init__.py").is_file():
        print(f"no miaudit sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    scale = wl.SMOKE if args.smoke else wl.FULL
    env = child_env(w)
    run_id = f"{w.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir = WORK / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    prepare = functools.partial(set_up, w, args.seed, scale, workdir / "inputs", env)
    try:
        if args.trace:
            set_ups = [prepare() for _ in range(IMPORT_REPEATS)]
            versions = set_ups[-1][3]
            versions["import_s"] = statistics.median(v["import_s"] for *_, v in set_ups)
            trace_file = WORK / f"trace-{run_id}.json"
            result = traced_run(w, scale, set_ups[-1][1], workdir, args.seconds,
                                versions["import_s"], trace_file)
            print(f"spans written to {trace_file}")
        else:
            result = timed_run(w, scale, prepare, workdir, args.seconds, env)
            versions = result["versions"]
            walls = result["walls"]
            print(f"wall_s per call (n={len(walls)}, median {statistics.median(walls):.4f}):",
                  json.dumps([round(v, 4) for v in walls]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts = {**machine_facts(), **versions,
             "pinned": {k: env.get(k) for k in [*PINNED, "MIAUDIT_WORKERS"]}}
    print("environment:", json.dumps(facts, sort_keys=True))

    attempted, failed = result["attempted"], len(result["problems"])
    for problem in result["problems"]:
        print("FAILED:", json.dumps(problem))
    print(f"failed_ratio = {failed}/{attempted}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
