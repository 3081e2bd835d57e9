"""Spans around calls into each layer, recorded from outside the program.

The traced run swaps a timing wrapper into the attribute each caller
looks up — a module global such as ``repro.sweep.runner.run_many``
(bound at import time), or a method on a class — runs one round, and
puts the originals back. Spans stay in memory until the run ends.

Each span has a name, start, end, its parent span and the round (the
trace id) it belongs to. A span's *self time* is its duration minus the
part of it that its child spans cover.

Pool workers forked by the program inherit the wrappers. A wrapper
that finds itself in another process than the tracer's owner appends
each span, and the recorder counts made inside the worker's outermost
span, to a file of its own in the tracer's spill directory; the owner
reads those files back after each traced round
(:meth:`Tracer.absorb_workers`), so layers that ran only inside worker
processes are measured like the rest.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    span_id: int
    parent: Optional[int]
    trace: int
    start: float
    end: float = 0.0
    phase: Optional[str] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent,
            "trace": self.trace,
            "start": self.start,
            "end": self.end,
            "phase": self.phase,
            "fields": self.fields,
        }


class Tracer:
    """In-memory span recorder; one per traced run.

    *spill_dir* is where forked pool workers leave their spans; without
    it their spans are dropped.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spans: List[Span] = []
        self.trace = 0
        self.phase: Optional[str] = None
        #: Span names whose entry point is gone or whose result no
        #: longer has the fields counted from it.
        self.blind: set = set()
        self.spill_dir = spill_dir
        self._owner = os.getpid()
        self._stack: List[int] = []
        self._next_id = 0
        #: Open spans of this process when it is a forked worker.
        self._worker_depth = 0

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of *fn*.

        ``after(span, result, args, kwargs)`` may add count fields to
        the span once the call has returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            worker = os.getpid() != self._owner
            entry_counts = _counters() if worker and self._worker_depth == 0 else None
            span = Span(
                name=name,
                span_id=self._next_id,
                parent=self._stack[-1] if self._stack else None,
                trace=self.trace,
                start=perf_counter(),
                phase=self.phase,
            )
            self._next_id += 1
            self._stack.append(span.span_id)
            if worker:
                self._worker_depth += 1
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    span.end = perf_counter()
                    if not worker:
                        self.spans.append(span)
                if after is not None:
                    try:
                        after(span, result, args, kwargs)
                    except (AttributeError, TypeError, OSError):
                        self.blind.add(name)
            finally:
                if worker:
                    self._worker_depth -= 1
                    self._spill(span, entry_counts)
            return result

        return traced

    def _spill(self, span: Span, entry_counts: Optional[Dict[str, int]]) -> None:
        """Append a worker's span (and, for its outermost span, the
        recorder counts made inside it) to the worker's spill file."""
        if self.spill_dir is None:
            return
        record = span.as_dict()
        record["blind"] = sorted(self.blind)
        if entry_counts is not None:
            counts = _counters()
            record["counts"] = {
                key: value - entry_counts.get(key, 0)
                for key, value in counts.items()
                if value != entry_counts.get(key, 0)
            }
        path = Path(self.spill_dir) / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def absorb_workers(self) -> Dict[str, int]:
        """Move the spans pool workers spilled into :attr:`spans`.

        Returns the recorder counts the workers made inside them, for
        the caller to add to the round's recorder. Worker span ids are
        renumbered; a parent id a worker inherited from this process at
        fork time is kept.
        """
        counts: Dict[str, int] = {}
        if self.spill_dir is None:
            return counts
        for path in sorted(Path(self.spill_dir).glob("worker-*.jsonl")):
            records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            path.unlink()
            ids = {}
            for record in records:
                ids[record["id"]] = self._next_id
                self._next_id += 1
            for record in records:
                self.spans.append(
                    Span(
                        name=record["name"],
                        span_id=ids[record["id"]],
                        parent=ids.get(record["parent"], record["parent"]),
                        trace=record["trace"],
                        start=record["start"],
                        end=record["end"],
                        phase=record["phase"],
                        fields=record["fields"],
                    )
                )
                self.blind.update(record["blind"])
                for key, value in record.get("counts", {}).items():
                    counts[key] = counts.get(key, 0) + value
        return counts


def _counters() -> Dict[str, int]:
    """The installed recorder's counters (none for the null recorder)."""
    from repro.obs.recorder import get_recorder

    return dict(getattr(get_recorder(), "counters", {}))


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


# ----------------------------------------------------------------------
# Where each layer is entered
# ----------------------------------------------------------------------


def _count_result(key: str, value: Callable[[Any], int]) -> Callable:
    def after(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
        span.fields[key] = value(result)

    return after


def _sweep_after(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
    span.fields["hits"] = result.cache_hits
    span.fields["misses"] = result.cache_misses


def _store_after(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
    span.fields["bytes"] = os.path.getsize(result)


def _population_after(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
    span.fields["jobs"] = len(args[0])


def _design_after(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
    span.fields["iterations"] = result.total_iterations
    span.fields["steps"] = result.total_steps


def _classes_after(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
    span.fields["steps"] = result.steps
    span.fields["moved"] = result.moved


#: (module, class or None, attribute, span name, after-hook).
HOOKS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro", None, "run_sweep", "sweep.run_sweep", _sweep_after),
    ("repro.sweep.grid", "SweepGrid", "cells", "sweep.grid.cells", None),
    ("repro.sweep.grid", "SweepCell", "cache_key", "sweep.grid.cells", None),
    ("repro.sweep.cache", "ResultCache", "load", "sweep.cache.load", None),
    ("repro.sweep.cache", "ResultCache", "store", "sweep.cache.store", _store_after),
    ("repro.sweep.runner", None, "build_report", "sweep.report", None),
    ("repro.sweep.runner", None, "run_many", "run.run_many", None),
    ("repro", None, "run_many", "run.run_many", None),
    ("repro.run", None, "run_many", "run.run_many", None),
    ("repro.kernel.batch", None, "build_vector_jobs", "kernel.batch.build_vector_jobs", None),
    ("repro.kernel.batch", "BatchRunner", "run", "kernel.batch.pool_wait", None),
    ("repro.stochastic.noisy_engine", "NoisyBatchRunner", "run", "kernel.batch.pool_wait", None),
    (
        "repro.kernel.tensor",
        None,
        "run_trajectory_population",
        "kernel.tensor.population",
        _population_after,
    ),
    (
        "repro.learning.engine",
        "LearningEngine",
        "run",
        "learning.engine.run",
        _count_result("steps", lambda trajectory: trajectory.length),
    ),
    ("repro.stochastic.noisy_engine", "NoisyLearningEngine", "run", "stochastic.noisy", None),
    ("repro.kernel.space", "ConfigSpace", "__init__", "kernel.space.init", None),
    ("repro.kernel.space", "ConfigSpace", "dag_report", "kernel.space.dag", None),
    ("repro.kernel.space", "ConfigSpace", "stable_codes", "kernel.space.stable", None),
    ("repro.kernel.space", "ConfigSpace", "reachable_sink_codes", "kernel.space.reach", None),
    ("repro.design.mechanism", "DynamicRewardDesign", "run", "design.mechanism", _design_after),
    (
        "repro.kernel.classes",
        None,
        "run_class_better_response",
        "kernel.classes.run",
        _classes_after,
    ),
    ("repro.kernel.classes", "ClassGame", "orbit_size", "kernel.classes.orbit_size", None),
    ("repro.analysis.classes", None, "class_basin_profile", "analysis.classes.basin", None),
)


class Installed:
    """Context manager swapping every hook's wrapper in, then out."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        for module_name, class_name, attr, span_name, after in HOOKS:
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr] if class_name is not None else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                # The program no longer has this entry point.
                self.tracer.blind.add(span_name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(span_name, original, after))
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ----------------------------------------------------------------------
# Per-layer metrics of one traced round
# ----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Round:
    """What one traced round recorded, summed per span name."""

    def __init__(
        self,
        spans: Sequence[Span],
        counters: Dict[str, int],
        outputs: Dict[str, float],
    ) -> None:
        self.spans = spans
        self.counters = counters
        self.outputs = outputs
        own = self_times(spans)
        self.total: Dict[str, float] = {}
        self.own: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.fields: Dict[Tuple[str, str], float] = {}
        for span in spans:
            self.total[span.name] = self.total.get(span.name, 0.0) + span.duration
            self.own[span.name] = self.own.get(span.name, 0.0) + own[span.span_id]
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            for key, value in span.fields.items():
                self.fields[span.name, key] = self.fields.get((span.name, key), 0) + value

    def s(self, span: str) -> float:
        return self.total.get(span, 0.0)

    def self_s(self, span: str) -> float:
        return self.own.get(span, 0.0)

    def n(self, span: str) -> int:
        return self.calls.get(span, 0)

    def sum(self, span: str, key: str) -> float:
        return self.fields.get((span, key), 0)

    def count(self, counter: str) -> int:
        return self.counters.get(counter, 0)

    def hit_ratio(self, phase: str) -> float:
        sweeps = [s for s in self.spans if s.name == "sweep.run_sweep" and s.phase == phase]
        hits = sum(s.fields["hits"] for s in sweeps)
        return _ratio(hits, hits + sum(s.fields["misses"] for s in sweeps))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    #: Spans the value is read from; it is unmeasured when any is blind.
    spans: Tuple[str, ...]
    value: Callable[[Round], float]
    #: Which end-to-end figure it should move, and on which workload;
    #: on every other workload the prediction is no change.
    moves: str


_SWEEP_WARM = "warm_cells_per_s on grid"
_SWEEP_COLD = "runs_per_s and wall_s on grid"
_RUN = "runs_per_s on grid and pooled"
_TENSOR = "runs_per_s and peak_rss_mb on grid"
_ENGINE = "wall_s on exact (inside design); runs_per_s on pooled (summed over pool workers)"
_NOISY = "runs_per_s on pooled"
_SPACE = "configs_per_s and call_p90_ms on exact"
_DESIGN = "wall_s and call_p90_ms on exact"
_CLASSES = "runs_per_s on population"
_ORBITS = "call_p50_ms, call_p90_ms and wall_s on population"
_WALKS = ("kernel.space.dag", "kernel.space.stable", "kernel.space.reach")

#: Every per-layer metric of a traced round (``trace.overhead`` aside,
#: which compares whole rounds).
LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("sweep.grid.cells_s", ("sweep.grid.cells",),
                lambda r: r.self_s("sweep.grid.cells"), _SWEEP_WARM),
    LayerMetric("sweep.cache.load_s", ("sweep.cache.load",),
                lambda r: r.s("sweep.cache.load"), _SWEEP_WARM),
    LayerMetric("sweep.cache.loads", ("sweep.cache.load",),
                lambda r: r.n("sweep.cache.load"), _SWEEP_WARM),
    LayerMetric("sweep.report_s", ("sweep.report",), lambda r: r.s("sweep.report"), _SWEEP_WARM),
    LayerMetric("sweep.run_sweep.self_s", ("sweep.run_sweep",),
                lambda r: r.self_s("sweep.run_sweep"), _SWEEP_WARM),
    LayerMetric("sweep.cache.store_s", ("sweep.cache.store",),
                lambda r: r.s("sweep.cache.store"), _SWEEP_COLD),
    LayerMetric("sweep.cache.stores", ("sweep.cache.store",),
                lambda r: r.n("sweep.cache.store"), _SWEEP_COLD),
    LayerMetric("sweep.cache.bytes", ("sweep.cache.store",),
                lambda r: r.sum("sweep.cache.store", "bytes"), _SWEEP_COLD),
    LayerMetric("sweep.cache.hit_ratio.cold", ("sweep.run_sweep",),
                lambda r: r.hit_ratio("cold"), _SWEEP_COLD),
    LayerMetric("sweep.cache.hit_ratio.warm", ("sweep.run_sweep",),
                lambda r: r.hit_ratio("warm"), _SWEEP_COLD),
    LayerMetric("run.run_many.self_s", ("run.run_many",), lambda r: r.self_s("run.run_many"), _RUN),
    LayerMetric("run.cells.vectorized", (), lambda r: r.count("run_many.cells.vectorized"), _RUN),
    LayerMetric("run.cells.auto", (), lambda r: r.count("run_many.cells.auto"), _RUN),
    LayerMetric("run.cells.classes", (), lambda r: r.count("run_many.cells.classes"), _RUN),
    LayerMetric("kernel.batch.build_vector_jobs_s", ("kernel.batch.build_vector_jobs",),
                lambda r: r.s("kernel.batch.build_vector_jobs"), "runs_per_s on grid"),
    LayerMetric("kernel.batch.vectorized_jobs", (),
                lambda r: r.count("run_many.vectorized_jobs"), "runs_per_s on grid"),
    LayerMetric("kernel.batch.pool_wait_s", ("kernel.batch.pool_wait",),
                lambda r: r.s("kernel.batch.pool_wait"), "runs_per_s on pooled"),
    LayerMetric("kernel.batch.pool_degradations", (),
                lambda r: r.count("pool.degradations"), "runs_per_s on pooled"),
    LayerMetric("kernel.tensor.population_s", ("kernel.tensor.population",),
                lambda r: r.s("kernel.tensor.population"), _TENSOR),
    LayerMetric("kernel.tensor.buckets", (), lambda r: r.count("tensor.buckets"), _TENSOR),
    LayerMetric("kernel.tensor.jobs_per_bucket", ("kernel.tensor.population",),
                lambda r: _ratio(r.sum("kernel.tensor.population", "jobs"),
                                 r.count("tensor.buckets")), _TENSOR),
    LayerMetric("kernel.tensor.lane.int", (), lambda r: r.count("tensor.lane.int"), _TENSOR),
    LayerMetric("kernel.tensor.lane.float", (), lambda r: r.count("tensor.lane.float"), _TENSOR),
    LayerMetric("kernel.tensor.lane.exact", (), lambda r: r.count("tensor.lane.exact"), _TENSOR),
    LayerMetric("kernel.tensor.escalations.f64", (),
                lambda r: r.count("tensor.escalations.f64"), _TENSOR),
    LayerMetric("kernel.tensor.escalations.exact", (),
                lambda r: r.count("tensor.escalations.exact"), _TENSOR),
    LayerMetric("kernel.tensor.compactions", (),
                lambda r: r.count("tensor.compactions"), _TENSOR),
    LayerMetric("learning.engine.run_s", ("learning.engine.run",),
                lambda r: r.s("learning.engine.run"), _ENGINE),
    LayerMetric("learning.engine.steps", ("learning.engine.run",),
                lambda r: r.sum("learning.engine.run", "steps"), _ENGINE),
    LayerMetric("learning.engine.scans_per_step", (),
                lambda r: _ratio(r.count("engine.scans"), r.count("engine.steps")),
                _ENGINE),
    LayerMetric("stochastic.noisy_s", ("stochastic.noisy",),
                lambda r: r.s("stochastic.noisy"), _NOISY),
    LayerMetric("stochastic.activations", (),
                lambda r: r.outputs.get("noisy_activations", 0), _NOISY),
    LayerMetric("stochastic.rounds_sampled", (),
                lambda r: r.outputs.get("noisy_rounds_sampled", 0), _NOISY),
    LayerMetric("stochastic.settled_ratio", (),
                lambda r: _ratio(r.outputs.get("noisy_settled", 0), r.outputs.get("noisy_runs", 0)),
                _NOISY),
    LayerMetric("kernel.space.init_s", ("kernel.space.init",),
                lambda r: r.s("kernel.space.init"), _SPACE),
    LayerMetric("kernel.space.dag_s", ("kernel.space.dag",),
                lambda r: r.s("kernel.space.dag"), _SPACE),
    LayerMetric("kernel.space.stable_s", ("kernel.space.stable",),
                lambda r: r.s("kernel.space.stable"), _SPACE),
    LayerMetric("kernel.space.reach_s", ("kernel.space.reach",),
                lambda r: r.s("kernel.space.reach"), _SPACE),
    LayerMetric("kernel.space.codes_visited", (),
                lambda r: r.count("space.codes_visited"), _SPACE),
    LayerMetric("kernel.space.codes_per_s", _WALKS,
                lambda r: _ratio(r.count("space.codes_visited"), sum(r.s(s) for s in _WALKS)),
                _SPACE),
    LayerMetric("design.mechanism.self_s", ("design.mechanism",),
                lambda r: r.self_s("design.mechanism"), _DESIGN),
    LayerMetric("design.stage_iterations", ("design.mechanism",),
                lambda r: r.sum("design.mechanism", "iterations"), _DESIGN),
    LayerMetric("design.steps", ("design.mechanism",),
                lambda r: r.sum("design.mechanism", "steps"), _DESIGN),
    LayerMetric("kernel.classes.run_s", ("kernel.classes.run",),
                lambda r: r.s("kernel.classes.run"), _CLASSES),
    LayerMetric("kernel.classes.steps", ("kernel.classes.run",),
                lambda r: r.sum("kernel.classes.run", "steps"), _CLASSES),
    LayerMetric("kernel.classes.moves_per_step", ("kernel.classes.run",),
                lambda r: _ratio(r.sum("kernel.classes.run", "moved"),
                                 r.sum("kernel.classes.run", "steps")), _CLASSES),
    LayerMetric("kernel.classes.orbit_size_s", ("kernel.classes.orbit_size",),
                lambda r: r.s("kernel.classes.orbit_size"), _ORBITS),
    LayerMetric("kernel.classes.orbit_size_calls", ("kernel.classes.orbit_size",),
                lambda r: r.n("kernel.classes.orbit_size"), _ORBITS),
    LayerMetric("analysis.classes.basin.self_s", ("analysis.classes.basin",),
                lambda r: r.self_s("analysis.classes.basin"), _ORBITS),
)


def round_layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, int],
    outputs: Dict[str, float],
    blind: Sequence[str] = (),
) -> Tuple[Dict[str, float], List[str]]:
    """Layer metrics of one traced round, and the names it cannot see.

    *outputs* carries counts the workload read from the program's
    returned results (noisy activations, sampled rounds, settled runs);
    *blind* names spans the tracer could not record (see
    :attr:`Tracer.blind`). A metric read from a blind span still gets
    the value of what was recorded — none of that span, so it usually
    reads 0 — and is named among the unseen.
    """
    recorded = Round(spans, counters, outputs)
    metrics = {metric.name: metric.value(recorded) for metric in LAYER_METRICS}
    unmeasured = [metric.name for metric in LAYER_METRICS if set(metric.spans) & set(blind)]
    return metrics, sorted(unmeasured)


def merge_rounds(per_round: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Median of each layer metric over the traced rounds."""
    names = per_round[0].keys()
    return {name: statistics.median([metrics[name] for metrics in per_round]) for name in names}


def prediction(name: str) -> str:
    """Which end-to-end figure a layer metric should move, and where."""
    for metric in LAYER_METRICS:
        if metric.name == name:
            return metric.moves
    return "none"
