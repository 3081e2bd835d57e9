"""E9 — discussion: convergence speed by learning process.

Paper artifact: Discussion ("one may wonder about its speed of
convergence under specific markets"). Expected: best-response variants
converge fastest; adversarial minimal-gain × smallest-first is slowest
but still finite; MWU is reported for contrast.
"""

from benchmarks.conftest import run_once
from repro.experiments import e09_learning_speed
from repro.obs import MetricsRecorder, observe


def test_e09_learning_speed(benchmark, show):
    with observe(MetricsRecorder()) as rec:
        result = run_once(
            benchmark,
            e09_learning_speed.run,
            miners=20,
            coins=4,
            runs=8,
            mwu_rounds=200,
            seed=0,
        )
    show(result.table)
    # All 20 policy × scheduler cells share one game shape, so the tensor
    # kernel runs the whole grid as a single lockstep bucket.
    assert rec.counter("run_many.cells.vectorized") == 20
    assert rec.counter("tensor.buckets") == 1
    assert result.metrics["fastest_mean_steps"] <= result.metrics["slowest_mean_steps"]
    assert "best-response" in result.metrics["fastest_process"] or result.metrics[
        "fastest_mean_steps"
    ] < 100
