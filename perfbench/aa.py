"""A/A stability check: two sets of runs of the same code, compared.

    python3 perfbench/aa.py --workload grid --workload exact --runs 5
    python3 perfbench/aa.py --runs 5 --write perfbench/spread.json

Runs ``run.py`` for ``run_seconds`` of ``BENCHMARK.json``, once per
(set, run) of two sets, with a distinct seed each time, alternating
between the sets so that slow drift of the machine lands on both. For
each workload and metric it prints each set's median and quartiles,
the spread of all runs (distance between the quartiles as a share of
the median), and whether the two sets' medians agree within the
metric's bound. End-to-end metrics take their bound from
``BENCHMARK.json``; each of them must keep its two medians within the
bound of each other and, ``setup_s`` aside, its spread within the
bound, or the exit code is 1. ``setup_s`` is a few seconds at the start
of a run, so one spell of contention on a shared machine covers all
its repeats and no median over them filters it; its spread is printed
but, as in the benchmark's acceptance rule, not held to the bound.
The workload-specific ones
printed by ``run.py`` (``warm_cells_per_s``, ``configs_per_s``,
``call_p50_ms``, ``call_p90_ms``) are compared with ``OTHER_BOUND``
for information. ``--write`` stores the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from stats import quartiles, relative_iqr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Bound for metrics printed by run.py but not listed in BENCHMARK.json.
OTHER_BOUND = 0.25

WORKLOADS = ("grid", "pooled", "exact", "population")

#: Seed of set *s*, run *i*: ``SEED_BASE + 100 * s + i``.
SEED_BASE = 1000
SETS = 2


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Run the benchmark once; returns its record (every measured metric)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    record_path = next(line.split(" ", 1)[1] for line in lines if line.startswith("record: "))
    with open(record_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def summarize(sets: List[List[Dict[str, Any]]], bounds: Dict[str, float]) -> Dict[str, Any]:
    names = [name for name in sets[0][0]["measured"] if name != "error_rate"]
    summary: Dict[str, Any] = {}
    for name in names:
        per_set = [[run["measured"][name]["value"] for run in runs] for runs in sets]
        if any(value is None for values in per_set for value in values):
            continue
        every = [value for values in per_set for value in values]
        bound = bounds.get(name, OTHER_BOUND)
        entry: Dict[str, Any] = {
            "unit": sets[0][0]["measured"][name]["unit"],
            "bound": bound,
            "runs": len(every),
            "spread": relative_iqr(every),
            "sets": [dict(zip(("q1", "median", "q3"), quartiles(values))) for values in per_set],
        }
        first, second = entry["sets"][0]["median"], entry["sets"][1]["median"]
        if name != "setup_s":
            entry["spread_within_bound"] = entry["spread"] <= bound
        entry["median_shift"] = (second - first) / first
        entry["agree"] = abs(entry["median_shift"]) <= bound
        summary[name] = entry
    return summary


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="A/A stability check of the benchmark")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    bounds = {entry["name"]: entry["bound"] for entry in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    report: Dict[str, Any] = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workload or WORKLOADS:
        sets: List[List[Dict[str, Any]]] = [[] for _ in range(SETS)]
        for index in range(args.runs):
            for number, runs in enumerate(sets):
                seed = SEED_BASE + 100 * number + index
                runs.append(one_run(workload, seed, seconds))
        summary = summarize(sets, bounds)
        report["workloads"][workload] = {
            "seeds": [run["seed"] for runs in sets for run in runs],
            "nproc": sets[0][0]["nproc"],
            "environment": sets[0][0]["environment"],
            "metrics": summary,
        }
        print(f"{workload} ({SETS}x{args.runs} runs of {seconds:g} s)")
        for name, entry in summary.items():
            medians = "  ".join(
                f"[{s['q1']:.4g} {s['median']:.4g} {s['q3']:.4g}]" for s in entry["sets"]
            )
            agreement = "agree" if entry["agree"] else "DISAGREE"
            verdict = f" shift {entry['median_shift']:+.3f} {agreement}"
            if name in bounds:
                ok &= entry["agree"] and entry.get("spread_within_bound", True)
            else:
                verdict += " (not gated)"
            print(
                f"  {name:<18} {medians}  spread {entry['spread']:.3f} "
                f"(bound {entry['bound']}){verdict}"
            )
    if args.write is not None:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
