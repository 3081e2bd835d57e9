"""Wide mixed buckets: one lockstep bucket per game shape.

The tensor kernel buckets jobs by ``(miners, coins, lane)`` only;
policy, scheduler and epsilon are per-row codes inside the bucket. These
tests pack every strategy mix — all six policies × four schedulers, two
epsilons, masked and unmasked rows, rows that retire at different steps
(converged or out of budget) — into single buckets on both the int and
the float lane, and hold every row to the scalar stepper bit for bit:
final assignment, step count, verdict and final ``bit_generator.state``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factories import (
    random_configuration,
    random_game,
    random_restricted_configuration,
)
from repro.core.game import Game
from repro.core.restricted import normalize_mask
from repro.experiments import e09_learning_speed
from repro.kernel.core import KernelGame
from repro.kernel.engine import KernelView
from repro.kernel.tensor import (
    VECTOR_POLICIES,
    VECTOR_SCHEDULERS,
    TrajectoryJob,
    kernel_lane,
    policy_kind,
    run_trajectory_population,
    scheduler_kind,
)
from repro.learning.engine import run_better_response
from repro.learning.policies import (
    BestResponsePolicy,
    EpsilonGreedyPolicy,
    FirstImprovingPolicy,
    MaxRpuPolicy,
    MinimalGainPolicy,
    RandomImprovingPolicy,
)
from repro.learning.schedulers import (
    LargestFirstScheduler,
    RoundRobinScheduler,
    SmallestFirstScheduler,
    UniformRandomScheduler,
)
from repro.obs import MetricsRecorder, observe
from repro.run import run_many

POLICIES = (
    BestResponsePolicy(),
    RandomImprovingPolicy(),
    MinimalGainPolicy(),
    MaxRpuPolicy(),
    FirstImprovingPolicy(),
    EpsilonGreedyPolicy(0.25),
    EpsilonGreedyPolicy(0.6),
)

SCHEDULERS = (
    UniformRandomScheduler(),
    RoundRobinScheduler(),
    LargestFirstScheduler(),
    SmallestFirstScheduler(),
)

#: Step budgets; None is the default (effectively unbounded) budget.
BUDGETS = (None, 1, 3, 6)


def int_lane_game(seed: int, n: int = 6, k: int = 3) -> Game:
    """Small integer games: every product fits int64."""
    rng = np.random.default_rng(seed)
    powers = [Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 4))) for _ in range(n)]
    rewards = [Fraction(int(rng.integers(1, 6))) for _ in range(k)]
    return Game.create(powers=powers, reward_values=rewards)


def float_lane_game(seed: int, n: int = 6, k: int = 3) -> Game:
    """Factory games: common-denominator integers overflow int64 products."""
    return random_game(n, k, seed=seed)


def random_mask(game: Game, rng: np.random.Generator):
    allowed = {}
    for miner in game.miners:
        picks = [coin for coin in game.coins if rng.random() < 0.7]
        allowed[miner] = picks or [game.coins[int(rng.integers(0, len(game.coins)))]]
    return allowed


def build_row(game, kernel, policy, scheduler, seed, *, masked, budget):
    """One (job, scalar reference) pair; the reference runs first."""
    rng = np.random.default_rng(seed)
    allowed = random_mask(game, rng) if masked else None
    if allowed is None:
        start = random_configuration(game, seed=seed + 7)
    else:
        start = random_restricted_configuration(game, allowed, seed=seed + 7)
    max_steps = 1_000_000 if budget is None else budget

    view = KernelView(game, start, allowed=allowed)
    ref_rng = np.random.default_rng(seed)
    trajectory = run_better_response(
        view,
        policy,
        scheduler,
        ref_rng,
        max_steps=max_steps,
        raise_on_budget=False,
        record="summary",
    )
    ref = (
        tuple(view.assign),
        trajectory.length,
        trajectory.converged,
        ref_rng.bit_generator.state,
    )

    allowed_idx = None
    # A mask that allows every coin normalizes to None: an unmasked row.
    mask = normalize_mask(game, allowed) if allowed is not None else None
    if mask is not None:
        allowed_idx = tuple(
            tuple(kernel.coin_index[coin] for coin in mask[miner]) for miner in game.miners
        )
    kind, epsilon = policy_kind(policy)
    job = TrajectoryJob(
        kernel=kernel,
        assign=kernel.assignment_of(start),
        rng=np.random.default_rng(seed),
        policy=kind,
        scheduler=scheduler_kind(scheduler),
        epsilon=epsilon,
        allowed=allowed_idx,
        max_steps=max_steps,
        raise_on_budget=False,
    )
    return job, ref


def assert_one_bucket_matches(jobs, refs):
    """ONE bucket for the whole population; every row bit-identical."""
    with observe(MetricsRecorder()) as rec:
        outcomes = run_trajectory_population(jobs)
    assert rec.counter("tensor.buckets") == 1
    for index, (out, ref) in enumerate(zip(outcomes, refs)):
        final, steps, converged, rng_state = ref
        assert out.final_assign == final, index
        assert out.steps == steps, index
        assert out.converged == converged, index
        assert jobs[index].rng.bit_generator.state == rng_state, index
    return rec, outcomes


def full_mix(make_game, lane):
    """Every policy × scheduler, masked and not, across budgets and games."""
    jobs, refs = [], []
    seed = 0
    for game_seed in range(3):
        game = make_game(game_seed)
        kernel = KernelGame(game)
        assert kernel_lane(kernel) == lane
        for policy in POLICIES:
            for scheduler in SCHEDULERS:
                for masked in (False, True):
                    seed += 1
                    budget = BUDGETS[seed % len(BUDGETS)]
                    job, ref = build_row(
                        game, kernel, policy, scheduler, seed, masked=masked, budget=budget
                    )
                    jobs.append(job)
                    refs.append(ref)
    return jobs, refs


def test_int_lane_full_mix_is_one_bucket():
    jobs, refs = full_mix(int_lane_game, "int")
    rec, outcomes = assert_one_bucket_matches(jobs, refs)
    event = next(e for e in rec.events if e["event"] == "tensor.bucket")
    assert event["policy"] == list(VECTOR_POLICIES)
    assert event["scheduler"] == list(VECTOR_SCHEDULERS)
    assert event["lane"] == "int" and event["jobs"] == len(jobs)
    # Rows retire at different steps, and some on budget rather than converged.
    assert len({outcome.steps for outcome in outcomes}) > 3
    assert any(not outcome.converged for outcome in outcomes)
    assert any(outcome.converged for outcome in outcomes)


def test_float_lane_full_mix_is_one_bucket():
    jobs, refs = full_mix(float_lane_game, "float")
    _, outcomes = assert_one_bucket_matches(jobs, refs)
    assert len({outcome.steps for outcome in outcomes}) > 3
    assert any(not outcome.converged for outcome in outcomes)


def test_bucket_event_lists_only_present_kinds():
    game = int_lane_game(11)
    kernel = KernelGame(game)
    pairs = [
        (MaxRpuPolicy(), SmallestFirstScheduler()),
        (BestResponsePolicy(), RoundRobinScheduler()),
    ]
    jobs, refs = [], []
    for seed, (policy, scheduler) in enumerate(pairs):
        job, ref = build_row(game, kernel, policy, scheduler, seed, masked=False, budget=None)
        jobs.append(job)
        refs.append(ref)
    rec, _ = assert_one_bucket_matches(jobs, refs)
    event = next(e for e in rec.events if e["event"] == "tensor.bucket")
    assert event["policy"] == ["best", "max-rpu"]
    assert event["scheduler"] == ["round-robin", "smallest"]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, len(POLICIES) - 1),
            st.integers(0, len(SCHEDULERS) - 1),
            st.booleans(),
            st.sampled_from(BUDGETS),
        ),
        min_size=1,
        max_size=16,
    ),
    float_lane=st.booleans(),
    game_seed=st.integers(0, 2**20),
)
def test_random_strategy_mixes_match_scalar(rows, float_lane, game_seed):
    """Any strategy mix over one game shape: one bucket, bit-identical."""
    make_game = float_lane_game if float_lane else int_lane_game
    game = make_game(game_seed, n=5, k=3)
    kernel = KernelGame(game)
    jobs, refs = [], []
    for index, (p, s, masked, budget) in enumerate(rows):
        job, ref = build_row(
            game,
            kernel,
            POLICIES[p],
            SCHEDULERS[s],
            game_seed * 64 + index,
            masked=masked,
            budget=budget,
        )
        jobs.append(job)
        refs.append(ref)
    assert_one_bucket_matches(jobs, refs)


def test_e9_grid_through_run_many_is_one_bucket():
    """E9's 5 policies × 4 schedulers over one game: one lockstep bucket."""
    grid = e09_learning_speed.sweep_grid(miners=8, coins=3, runs=4, seed=2)
    cells = grid.cells()
    assert len(cells) == 20
    with observe(MetricsRecorder()) as rec:
        results = run_many([cell.spec for cell in cells])
    assert rec.counter("run_many.cells.vectorized") == 20
    assert rec.counter("tensor.buckets") == 1
    serial = run_many([cell.spec for cell in cells], executor="serial")
    assert results == serial
