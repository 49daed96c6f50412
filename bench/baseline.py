#!/usr/bin/env python3
"""Run every workload over several seeds and record the baseline.

    python3 bench/baseline.py --seeds 1-10 --write

Run it from the repository root.  For each workload it makes one timed run
(`run.py --trace 0`) per seed, and a traced run (`--trace 1`) on each of the
first two seeds to confirm that the top stage stays the same.  It prints
each end-to-end metric by name and unit with its median, quartiles and
spread (interquartile range over median) against the bound in
BENCHMARK.json, the pooled per-call wall-time tail and each traced run's top
stage self times.  With `--write` it stores all of it in bench/BASELINE.json.
It exits non-zero when a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result object of one run plus what it printed on the way."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    run = {"result": json.loads(lines[-1]), "walls": [], "top": None, "environment": {}}
    prefixes = {"wall_s per call": "walls", "top stage self times": "top",
                "environment:": "environment"}
    for line in lines:
        for prefix, key in prefixes.items():
            if line.startswith(prefix):
                run[key] = json.loads(line.split(":", 1)[1])
    return run


def tail_percentile(values: list):
    """Highest whole percentile with at least ten values beyond it, or None."""
    n = len(values)
    p = int(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range a-b or a comma list")
    parser.add_argument("--workloads", help="comma list; default: those in BENCHMARK.json")
    parser.add_argument("--write", action="store_true", help="store bench/BASELINE.json")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    bad = 0
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for name in names:
        timed = [one_run(name, seed, seconds, 0) for seed in seeds]
        traced = [one_run(name, seed, seconds, 1) for seed in seeds[:2]]
        attempted = sum(r["result"]["attempted"] for r in timed + traced)
        failed = sum(r["result"]["failed"] for r in timed + traced)
        walls = [w for r in timed for w in r["walls"]]
        tops = {str(seed): r["top"] for seed, r in zip(seeds, traced)}
        entry = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced[0]["result"]["metrics"].items()},
            "top_self_s": tops,
        }
        print(f"== {name}: {attempted} calls, failed_ratio = {failed}/{attempted}")
        for metric, first in timed[0]["result"]["metrics"].items():
            s = summarise([r["result"]["metrics"][metric]["value"] for r in timed])
            s["unit"] = first["unit"]
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  WIDE"
            print(f"  {metric:17s} {s['unit']:4s} median {s['median']:.6g}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  spread {s['spread']:.4f} (bound {bounds[metric]}){flag}")
        tail = tail_percentile(walls)
        if tail:
            entry["wall_s_tail"] = {"percentile": tail[0], "value": tail[1], "n": len(walls)}
            print(f"  wall_s p{tail[0]} = {tail[1]:.4f} s over {len(walls)} calls")
        for seed, top in tops.items():
            print(f"  traced top stage self times (s), seed {seed}: {top}")
        if len({top[0][0] for top in tops.values()}) > 1:
            print("  top stage differs between seeds")
        baseline["workloads"][name] = entry
        bad += failed
        baseline["environment"] = timed[-1]["environment"]
    if args.write:
        (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
