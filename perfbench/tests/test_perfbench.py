"""Tests of the benchmark itself: span arithmetic, percentiles, checks, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro  # noqa: E402
import repro.analysis.paths  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(name, span_id, parent, start, end):
    return tracing.Span(name=name, span_id=span_id, parent=parent, trace=0, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0, None, 0.0, 10.0),
        _span("a", 1, 0, 1.0, 3.0),
        _span("b", 2, 0, 2.0, 5.0),  # overlaps a: covered once
        _span("c", 3, 0, 6.0, 7.0),
        _span("leaf", 4, 3, 6.2, 6.7),
        _span("late", 5, 0, 9.5, 11.0),  # clipped to the parent's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(0.5)


def test_wrappers_nest_and_restore():
    tracer = tracing.Tracer()
    original = repro.run_many
    with tracing.Installed(tracer):
        assert repro.run_many is not original
        repro.run_many([repro.RunSpec(game=repro.random_game(3, 2, seed=1), runs=2)], seed=1)
    assert repro.run_many is original
    names = {span.name for span in tracer.spans}
    assert {"run.run_many", "kernel.tensor.population"} <= names
    parents = {span.span_id: span for span in tracer.spans}
    population = next(s for s in tracer.spans if s.name == "kernel.tensor.population")
    assert parents[population.parent].name == "run.run_many"


def test_layer_table_matches_the_declared_per_layer_metrics():
    names = [metric.name for metric in tracing.LAYER_METRICS] + ["trace.overhead"]
    assert names == [entry["name"] for entry in DECLARED["per_layer"]]
    assert all(tracing.prediction(name) for name in names)


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.reportable(100, 0.9)
    assert not stats.reportable(99, 0.9)
    assert stats.reportable(20, 0.5)
    assert not stats.reportable(19, 0.5)
    values = list(range(1, 101))
    assert stats.percentile(values, 0.9) == 90
    assert sum(1 for v in values if v > 90) == 10
    assert stats.percentile(values[:99], 0.9) is None
    assert stats.percentile(values[:20], 0.5) == 10


def _tiny(name, tmp_path, trace=False, **kwargs):
    return run.run_workload(
        name, seed=3, seconds=0.2, trace=trace, scale="tiny", out_dir=tmp_path, **kwargs
    )


def test_injected_cycle_verdict_counts_as_failure(tmp_path, monkeypatch):
    original = repro.analysis.paths.analyze_improvement_dag

    def wrong(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), acyclic=False)

    monkeypatch.setattr(repro.analysis.paths, "analyze_improvement_dag", wrong)
    record = _tiny("exact", tmp_path)
    assert record["failed"] >= record["rounds"]
    assert record["measured"]["error_rate"]["value"] > 0
    assert any("cycle" in failure for failure in record["failures"])
    assert not run.result_line(record, DECLARED)["correct"]


def test_tampered_outputs_count_as_failures(tmp_path):
    def unconverged(results):
        cells, report = results[0].output
        game, stats_ = cells[0]
        cells = [(game, dataclasses.replace(stats_, converged=stats_.converged - 1))] + cells[1:]
        results[0].output = (cells, report)
        return results

    record = _tiny("grid", tmp_path, sabotage=unconverged)
    assert record["failed"] > 0
    assert any("did not converge" in failure for failure in record["failures"])


def test_raising_call_counts_as_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    record = None
    original = repro.analysis.classes.class_basin_profile
    monkeypatch.setattr(repro.analysis.classes, "class_basin_profile", broken)
    with pytest.raises(RuntimeError, match="warm-up"):
        record = _tiny("population", tmp_path)
    assert record is None
    calls = {"n": 0}

    def breaks_later(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > run.SETUP_REPEATS:
            raise RuntimeError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.analysis.classes, "class_basin_profile", breaks_later)
    record = _tiny("population", tmp_path)
    assert record["failed"] == record["rounds"]
    assert record["measured"]["error_rate"]["value"] == pytest.approx(0.5)


@pytest.mark.parametrize("name", ["grid", "pooled", "exact", "population"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace, tmp_path):
    record = _tiny(name, tmp_path, trace=trace)
    assert record["failed"] == 0, record["failures"]
    line = run.result_line(record, DECLARED)
    assert line["correct"] and line["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {entry["name"] for entry in declared}
    assert not record["unmeasured"]
    if trace:
        assert "trace.overhead" in line["metrics"]
    else:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert record["sizes"] and record["environment"]["repro_version"] == repro.__version__


def test_missing_entry_point_is_flagged_unmeasured(tmp_path, monkeypatch):
    gone = ("repro.kernel.space", "ConfigSpace", "no_such_method", "kernel.space.dag", None)
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (gone,))
    record = _tiny("exact", tmp_path, trace=True)
    assert record["failed"] == 0
    assert {"kernel.space.dag_s", "kernel.space.codes_per_s"} <= set(record["unmeasured"])
    line = run.result_line(record, DECLARED)
    assert set(line["metrics"]) == {entry["name"] for entry in DECLARED["per_layer"]}
    assert line["metrics"]["kernel.space.stable_s"]["value"] > 0


def test_worker_spans_reach_the_traced_round(tmp_path, monkeypatch):
    """Pooled cells forced into process pools: the learning engine and
    the noisy engine run only in forked workers, and their spans and
    recorder counts still reach the round's layer metrics."""
    import repro.kernel.batch
    import repro.stochastic.noisy_engine

    monkeypatch.setattr(repro.kernel.batch.BatchRunner, "auto_process_threshold", 1)
    monkeypatch.setattr(repro.stochastic.noisy_engine.NoisyBatchRunner, "auto_process_threshold", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    absorbed = []
    original = tracing.Tracer.absorb_workers

    def spying(self):
        before = len(self.spans)
        counts = original(self)
        absorbed.append((len(self.spans) - before, counts))
        return counts

    monkeypatch.setattr(tracing.Tracer, "absorb_workers", spying)
    record = _tiny("pooled", tmp_path, trace=True)
    assert record["failed"] == 0, record["failures"]
    assert sum(spans for spans, _ in absorbed) > 0
    assert any(counts.get("engine.steps") for _, counts in absorbed)
    assert not record["unmeasured"]
    layers = record["layers"]
    assert layers["learning.engine.run_s"] > 0 and layers["learning.engine.steps"] > 0
    assert layers["learning.engine.scans_per_step"] > 0
    assert layers["stochastic.noisy_s"] > 0
    assert not list(tmp_path.rglob("worker-*.jsonl"))
