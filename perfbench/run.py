"""The repository benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 24 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``grid``,
``pooled``, ``exact`` and ``population``. Every input comes from
``--seed``; the program sees only those inputs.

A run sets up (imports, input generation, warm-up) several times and
reports the median as ``setup_s``; then it repeats rounds — the same
public calls over the same inputs, each issued after the previous one
returned — until ``--seconds`` have passed, and reports figures for a
typical round, in which each call takes its mean time. Outputs are
checked against the Fraction core after the timed calls. With
``--trace 1`` rounds alternate untraced and traced; the traced ones
give the per-layer metrics, and the two together give
``trace.overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. A record of the run (metrics, environment stamp,
nproc, seed and input sizes) goes to ``.perfbench-out/records/``. The
exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _import_probe() -> float:
    """Wall time of a fresh interpreter importing what the workloads use."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads"
    started = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return perf_counter() - started


def _run_round(workload: Any, inputs: Any, index: int, tracer: Any = None) -> List[Any]:
    from workloads import OpResult

    results = []
    for op in workload.ops(inputs, index):
        if tracer is not None:
            tracer.trace, tracer.phase = index, op.phase
        started = perf_counter()
        try:
            raw = op.fn()
        except Exception as error:  # a failed call is counted; the run goes on
            seconds = perf_counter() - started
            results.append(OpResult(op.label, op.phase, seconds, error=f"raised {error!r}"))
            continue
        seconds = perf_counter() - started
        try:
            output = op.extract(raw)
        except Exception as error:
            results.append(OpResult(op.label, op.phase, seconds, error=f"raised {error!r}"))
            continue
        results.append(OpResult(op.label, op.phase, seconds, output))
    workload.cleanup(inputs, index)
    return results


def _typical_round(entries: List[Dict[str, Any]]) -> List[Any]:
    """One round whose every call takes its mean time over *entries*.

    A shared host switches between a fast and a slow speed every ten
    seconds or so; the mean weighs each by the time the run spent in
    it, where a median jumps to whichever held the majority of rounds.
    """
    from workloads import OpResult

    first = entries[0]["results"]
    return [
        OpResult(r.label, r.phase, statistics.mean(e["results"][i].seconds for e in entries))
        for i, r in enumerate(first)
    ]


def _setup(workload: Any, seed: int, scale: str, out_dir: str) -> Tuple[Any, List[float]]:
    """Generate the inputs and warm up, ``SETUP_REPEATS`` times."""
    times = []
    inputs = None
    for repeat in range(SETUP_REPEATS):
        started = perf_counter()
        probe = _import_probe()
        inputs = workload.build(seed, scale, out_dir)
        warm = workload.build(seed, "tiny", out_dir)
        for result in _run_round(workload, warm, -1 - repeat):
            if result.error is not None:
                raise RuntimeError(f"warm-up call {result.label} failed: {result.error}")
        times.append(probe + perf_counter() - started)
    return inputs, times


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    out_dir: Optional[Path] = None,
    sabotage: Any = None,
) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the run record.

    *sabotage*, for tests, maps a round's results to tampered ones
    before they are checked.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_dir = Path(out_dir or OUT)
    scratch = out_dir / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, trace, scale, str(scratch), sabotage)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    scratch: str,
    sabotage: Any,
) -> Dict[str, Any]:
    from repro import obs
    from tracing import Installed, Tracer, merge_rounds, round_layer_metrics

    inputs, setup_times = _setup(workload, seed, scale, scratch)

    tracer = Tracer(spill_dir=scratch) if trace else None
    rounds: List[Dict[str, Any]] = []
    reference: Dict[str, Any] = {}
    started = perf_counter()
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        recorder = None
        if traced:
            recorder = obs.MetricsRecorder()
            with Installed(tracer), obs.observe(recorder):
                results = _run_round(workload, inputs, index, tracer)
            for counter, value in tracer.absorb_workers().items():
                recorder.count(counter, value)
        else:
            results = _run_round(workload, inputs, index)
        if sabotage is not None:
            results = sabotage(results)
        if index == 0:
            reference = {r.label: r for r in results}
        else:
            # Same inputs and seeds: a correct program repeats its outputs.
            for result in results:
                if result.error is None and result.output != reference[result.label].output:
                    result.error = "output differs from the first round"
        rounds.append(
            {
                "traced": traced,
                "results": results,
                "recorder": recorder,
                "metrics": workload.round_metrics(inputs, results),
                "layer_outputs": workload.layer_outputs(inputs, results) if traced else None,
            }
        )
        if index:
            for result in results:
                result.output = None
        if perf_counter() - started >= seconds and (not trace or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The first round's outputs against the Fraction core; every later
    # round was compared with the first as it finished.
    reference_failures = workload.check(inputs, reference)
    attempted = failed = 0
    failures: List[str] = []
    for number, entry in enumerate(rounds):
        for result in entry["results"]:
            attempted += 1
            if result.error is not None:
                reason = result.error
            elif result.label in reference_failures:
                reason = "; ".join(reference_failures[result.label][:3])
            else:
                continue
            failed += 1
            if len(failures) < 20:
                failures.append(f"round {number} {result.label}: {reason}")

    untraced = [e for e in rounds if not e["traced"]]
    typical = workload.round_metrics(inputs, _typical_round(untraced))
    measured: Dict[str, Dict[str, Any]] = {}

    def put(metric: str, value: Optional[float], unit: str, samples: int, note: str = "") -> None:
        measured[metric] = {"value": value, "unit": unit, "samples": samples, "note": note}

    put("setup_s", statistics.median(setup_times), "s", len(setup_times), "set-ups")
    for metric, unit in (
        ("wall_s", "s"),
        ("runs_per_s", "runs/s"),
        ("warm_cells_per_s", "cells/s"),
        ("configs_per_s", "configs/s"),
    ):
        if metric in typical:
            put(metric, typical[metric], unit, len(untraced), "rounds, mean per call")
    if workload.per_call_latency:
        calls = [r.seconds * 1e3 for e in untraced for r in e["results"]]
        for metric, q in (("call_p50_ms", 0.5), ("call_p90_ms", 0.9)):
            put(metric, percentile(calls, q), "ms", len(calls), "calls")
    put("peak_rss_mb", peak_rss_mb, "MB", 1, "process")
    put("error_rate", failed / attempted, "fraction", attempted, "operations")

    layers: Dict[str, float] = {}
    unmeasured: List[str] = []
    spans: List[Dict[str, Any]] = []
    if trace:
        traced_rounds = [e for e in rounds if e["traced"]]
        per_layer = []
        for entry in traced_rounds:
            index = rounds.index(entry)
            round_spans = [s for s in tracer.spans if s.trace == index]
            recorder = entry["recorder"]
            metrics, hidden = round_layer_metrics(
                round_spans,
                recorder.counters,
                entry["layer_outputs"],
                sorted(tracer.blind),
            )
            per_layer.append(metrics)
            unmeasured = sorted(set(unmeasured) | set(hidden))
        layers = merge_rounds(per_layer)
        traced_wall = workload.round_metrics(inputs, _typical_round(traced_rounds))["wall_s"]
        layers["trace.overhead"] = traced_wall / measured["wall_s"]["value"] - 1.0
        spans = [span.as_dict() for span in tracer.spans]

    from repro.obs import environment_stamp

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "seconds": seconds,
        "rounds": len(rounds),
        "round_wall_s": [entry["metrics"]["wall_s"] for entry in rounds],
        "call_s": {
            result.label: [entry["results"][i].seconds for entry in untraced]
            for i, result in enumerate(rounds[0]["results"])
        },
        "nproc": len(os.sched_getaffinity(0)),
        "environment": environment_stamp(),
        "sizes": inputs.sizes,
        "measured": measured,
        "layers": layers,
        "unmeasured": unmeasured,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "spans": spans,
    }


def _declared() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(record: Dict[str, Any], declared: Dict[str, Any]) -> Dict[str, Any]:
    """The final JSON line: every declared metric of this run's kind.

    A per-layer metric whose entry point is gone still appears, with
    what the run recorded of it; the record lists it as unmeasured.
    """
    if record["trace"]:
        entries = declared["per_layer"]
        values = record["layers"]
    else:
        entries = declared["end_to_end"]
        values = {name: m["value"] for name, m in record["measured"].items()}
    metrics = {}
    for entry in entries:
        name = entry["name"]
        if values.get(name) is None:
            raise KeyError(f"{record['workload']} did not measure declared metric {name!r}")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _print_report(record: Dict[str, Any]) -> None:
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"rounds={record['rounds']} nproc={record['nproc']} sizes={record['sizes']}"
    )
    for name, m in record["measured"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<18} {value:>12} {m['unit']:<10} (n={m['samples']} {m['note']})")
    if record["trace"]:
        from tracing import prediction

        for name, value in record["layers"].items():
            seen = "UNMEASURED, entry point not traced" if name in record["unmeasured"] else ""
            print(f"  {name:<36} {value:<12.6g} should move {prediction(name)} {seen}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def _write_record(record: Dict[str, Any], out_dir: Path) -> Path:
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{os.getpid()}"
    records = out_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    spans = record.pop("spans")
    if spans:
        with open(records / f"{stem}.spans.json", "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
    path = records / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=["grid", "pooled", "exact", "population"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = _declared()
    record = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    line = result_line(record, declared)
    _print_report(record)
    print(f"record: {_write_record(record, OUT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
