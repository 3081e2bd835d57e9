"""The four workloads: seeded inputs, timed calls, and output checks.

A workload turns ``(seed, scale)`` into inputs, and each round runs the
same list of public calls (:class:`Op`) over those inputs, one after
another (a closed loop from one benchmark process). Only the calls
themselves are timed; the outputs are checked afterwards against the
Fraction core — fully on the first round, and by equality with the
first round on every later round (same inputs, same seeds, so a
correct program returns the same outputs).

Shapes and sizes are fixed per scale; the seed draws powers, rewards,
masks and start states. That keeps the amount of work close across
seeds, so runs with different seeds measure the same thing.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
import repro.analysis.classes
import repro.analysis.paths
from repro.core.factories import random_restricted_configuration
from repro.core.restricted import RestrictedGame
from repro.kernel.classes import ClassGame
from repro.learning.examples import PowerWeightedScheduler, SecondBestPolicy
from repro.learning.policies import (
    BestResponsePolicy,
    EpsilonGreedyPolicy,
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


def _identity(value: Any) -> Any:
    return value


@dataclass
class Op:
    """One public call of a round."""

    label: str
    fn: Callable[[], Any]
    phase: str = "main"
    #: Turns the raw return value into the output that is checked and
    #: compared across rounds; runs after the call's timer stops.
    extract: Callable[[Any], Any] = _identity


@dataclass
class OpResult:
    label: str
    phase: str
    seconds: float
    output: Any = None
    error: Optional[str] = None


@dataclass
class Inputs:
    """What a workload generated from its seed, plus sizes for the record."""

    data: Dict[str, Any]
    #: Learning runs one round completes (grid: in its cold phase).
    runs: int
    sizes: Dict[str, int]


def _workers() -> int:
    return len(os.sched_getaffinity(0))


def _stratified(rng: Any, count: int, low: float, high: float, pareto: bool) -> List[Fraction]:
    """*count* distinct exact values, one drawn from each of *count*
    equal-probability strata of the distribution, in shuffled order.

    ``pareto`` follows ``random_game``'s heavy-tailed powers (a few
    large pools, many small miners), otherwise uniform on [low, high].
    Stratifying gives every seed the same shape of market, so the work
    a round asks for varies little from seed to seed, while values,
    their order and every start state still come from the seed.
    """
    u = (np.arange(count) + rng.random(count)) / count
    rng.shuffle(u)
    raw = low * (1.0 - u) ** (-1 / 1.5) if pareto else low + (high - low) * u
    raw = np.clip(raw, low, high)
    # A unique offset per index rules out exact ties.
    return [
        Fraction(int(round(value * 1000)) * (count + 1) + index + 1, 1000 * (count + 1))
        for index, value in enumerate(raw)
    ]


def _game(rng: Any, n: int, k: int, *, pareto: bool = False) -> Any:
    """An *n*-miner, *k*-coin game with stratified powers and rewards."""
    return repro.Game.create(
        powers=_stratified(rng, n, 1.0, 100.0, pareto),
        reward_values=_stratified(rng, k, 1.0, 50.0, False),
    )


class _StableOracle:
    """Fraction-core stability verdicts, memoized per (game, state).

    Plain games use ``Game.is_stable``'s cached-power form (one coin
    power map per state, then ``is_miner_stable_given`` per miner): the
    same exact Fraction comparisons in O(n·k) instead of O(n²·k), which
    keeps the checks of 100-miner grids to seconds.
    """

    def __init__(self) -> None:
        self._seen: Dict[Tuple[int, Any], bool] = {}

    def stable(self, game: Any, config: Any) -> bool:
        key = (id(game), config)
        if key not in self._seen:
            if isinstance(game, RestrictedGame):
                verdict = game.is_stable(config)
            else:
                powers = game.coin_power_map(config)
                verdict = all(
                    game.is_miner_stable_given(miner, config, powers) for miner in game.miners
                )
            self._seen[key] = bool(verdict)
        return self._seen[key]

    def coins_stable(self, game: Any, coins: Sequence[str]) -> bool:
        return self.stable(game, game.configuration(tuple(coins)))


class Workload:
    """Base: subclasses define ``name``, ``SCALES``, ``build``, ``ops``, ``check``."""

    name = ""
    SCALES: Dict[str, Dict[str, Any]] = {}
    #: Whether each call's latency is a sample of ``call_p50/p90_ms``.
    per_call_latency = False

    def build(self, seed: int, scale: str, out_dir: str) -> Inputs:
        raise NotImplementedError

    def ops(self, inputs: Inputs, round_index: int) -> List[Op]:
        raise NotImplementedError

    def cleanup(self, inputs: Inputs, round_index: int) -> None:
        """Remove what one round left on disk (outside the timed calls)."""

    def check(self, inputs: Inputs, outputs: Dict[str, OpResult]) -> Dict[str, List[str]]:
        """Label → failure reasons, for the calls whose output is wrong."""
        raise NotImplementedError

    def round_metrics(self, inputs: Inputs, results: Sequence[OpResult]) -> Dict[str, float]:
        """This workload's throughput figures for one round."""
        wall = sum(r.seconds for r in results)
        return {"wall_s": wall, "runs_per_s": inputs.runs / wall}

    def layer_outputs(self, inputs: Inputs, results: Sequence[OpResult]) -> Dict[str, float]:
        """Counts read from returned results, for the traced run."""
        return {}


# ----------------------------------------------------------------------
# grid: the E2/E9 convergence grid through the sweep fabric
# ----------------------------------------------------------------------


def _policies() -> List[Any]:
    return [
        BestResponsePolicy(),
        RandomImprovingPolicy(),
        MinimalGainPolicy(),
        MaxRpuPolicy(),
        EpsilonGreedyPolicy(0.25),
    ]


def _schedulers() -> List[Any]:
    return [
        UniformRandomScheduler(),
        RoundRobinScheduler(),
        LargestFirstScheduler(),
        SmallestFirstScheduler(),
    ]


class Grid(Workload):
    """Shapes × 5 policies × 4 schedulers, streamed, cold then warm."""

    name = "grid"
    SCALES = {
        # Shapes repeat: how long one game takes to converge varies with
        # its draw by up to 2x (most at 100 miners with 6 coins, left
        # out; at 30x10 the minimal-gain, smallest-first cell's longest
        # run sets the pace), and a sum over several games varies less
        # from seed to seed.
        "full": {
            "shapes": [(10, 2)] * 2 + [(30, 10)] * 3 + [(60, 4)] * 3 + [(100, 2)] * 3,
            "runs": 10,
        },
        "tiny": {"shapes": [(6, 2)], "runs": 3},
    }

    def build(self, seed: int, scale: str, out_dir: str) -> Inputs:
        params = self.SCALES[scale]
        rng = np.random.default_rng(seed)
        games = [
            repro.labeled(f"{n}x{k}-{index}", _game(rng, n, k, pareto=True))
            for index, (n, k) in enumerate(params["shapes"])
        ]
        cells = len(games) * 5 * 4
        runs = cells * params["runs"]
        return Inputs(
            data={
                "games": games,
                "runs": params["runs"],
                "sweep_seed": int(rng.integers(2**31)),
                "out_dir": out_dir,
            },
            runs=runs,
            sizes={
                "cells": cells,
                "runs": runs,
                "miners": sum(n for n, _ in params["shapes"]),
            },
        )

    def _dir(self, inputs: Inputs, round_index: int) -> str:
        return os.path.join(inputs.data["out_dir"], f"grid-round-{round_index}")

    def ops(self, inputs: Inputs, round_index: int) -> List[Op]:
        seed = inputs.data["sweep_seed"]

        def sweep(game: Any, out: str) -> Any:
            grid = repro.SweepGrid(
                {"game": [game], "policy": _policies(), "scheduler": _schedulers()},
                base={"runs": inputs.data["runs"], "stream": True},
            )
            return repro.run_sweep(grid, out=out, seed=seed, max_workers=_workers())

        def extract(result: Any) -> Any:
            with open(result.report_path, "rb") as handle:
                report = handle.read()
            cells = [(cell.spec.game, result.results[cell.cell_id]) for cell in result.cells]
            return cells, report

        # One sweep per game (an E9-style policy x scheduler grid):
        # several shorter calls, each timed on its own.
        games = inputs.data["games"]
        out = self._dir(inputs, round_index)
        return [
            Op(
                f"{phase}:{entry.label}",
                lambda g=entry, o=os.path.join(out, entry.label): sweep(g, o),
                phase=phase,
                extract=extract,
            )
            for phase in ("cold", "warm")
            for entry in games
        ]

    def cleanup(self, inputs: Inputs, round_index: int) -> None:
        shutil.rmtree(self._dir(inputs, round_index), ignore_errors=True)

    def check(self, inputs: Inputs, outputs: Dict[str, OpResult]) -> Dict[str, List[str]]:
        oracle = _StableOracle()
        runs = inputs.data["runs"]
        failures: Dict[str, List[str]] = {}
        for entry in inputs.data["games"]:
            cold_label, warm_label = f"cold:{entry.label}", f"warm:{entry.label}"
            cold = outputs[cold_label].output
            if cold is not None:
                reasons = []
                for game, stats in cold[0]:
                    name = f"{stats.policy_name}/{stats.scheduler_name}"
                    if stats.runs != runs or len(stats.steps) != runs:
                        reasons.append(f"{name}: {stats.runs} runs")
                    if stats.converged != runs:
                        reasons.append(f"{name}: {runs - stats.converged} run(s) did not converge")
                    for coins, _count in stats.finals:
                        if not oracle.coins_stable(game, coins):
                            reasons.append(f"{name}: final state not stable")
                if reasons:
                    failures[cold_label] = reasons
            warm = outputs[warm_label].output
            if warm is not None and cold is not None:
                if warm[1] != cold[1]:
                    failures.setdefault(warm_label, []).append("report differs from the cold one")
                if warm[0] != cold[0]:
                    failures.setdefault(warm_label, []).append("results differ from the cold ones")
        return failures

    def round_metrics(self, inputs: Inputs, results: Sequence[OpResult]) -> Dict[str, float]:
        by_phase = {"cold": 0.0, "warm": 0.0}
        for result in results:
            by_phase[result.phase] += result.seconds
        return {
            "wall_s": sum(by_phase.values()),
            "runs_per_s": inputs.runs / by_phase["cold"],
            "warm_cells_per_s": inputs.sizes["cells"] / by_phase["warm"],
        }


# ----------------------------------------------------------------------
# pooled: cells the tensor kernel cannot take
# ----------------------------------------------------------------------


class Pooled(Workload):
    """View-based custom strategies and noisy learners through run_many."""

    name = "pooled"
    SCALES = {
        "full": {
            "trajectory_shapes": [(20, 3), (30, 4), (40, 5), (60, 6)],
            "runs": 32,
            "noisy_shapes": [(6, 2), (8, 3)],
            "budgets": [16, 1024],
            "replications": 16,
            "max_activations": 1000,
        },
        "tiny": {
            "trajectory_shapes": [(5, 2)],
            "runs": 2,
            "noisy_shapes": [(4, 2)],
            "budgets": [8],
            "replications": 2,
            "max_activations": 200,
        },
    }

    def build(self, seed: int, scale: str, out_dir: str) -> Inputs:
        params = self.SCALES[scale]
        rng = np.random.default_rng(seed)
        cells = []
        strategies = [
            (SecondBestPolicy(), UniformRandomScheduler()),
            (RandomImprovingPolicy(), PowerWeightedScheduler()),
        ]
        for n, k in params["trajectory_shapes"]:
            game = _game(rng, n, k, pareto=True)
            for policy, scheduler in strategies:
                cells.append(
                    repro.RunSpec(
                        game=game,
                        runs=params["runs"],
                        policy=policy,
                        scheduler=scheduler,
                        stream=True,
                    )
                )
        for (n, k), budget in zip(params["noisy_shapes"], params["budgets"]):
            game = _game(rng, n, k)
            # Patience beyond the budget: every replication runs all its
            # activations, so the sampling work is the same on every seed.
            engine = repro.NoisyLearningEngine(
                budget=budget,
                max_activations=params["max_activations"],
                patience=params["max_activations"] + 1,
            )
            cells.append(
                repro.RunSpec(game=game, runs=params["replications"], kind="noisy", engine=engine)
            )
        runs = sum(cell.runs for cell in cells)
        shapes = params["trajectory_shapes"] + params["noisy_shapes"]
        return Inputs(
            data={"cells": cells, "run_seed": int(rng.integers(2**31))},
            runs=runs,
            sizes={
                "cells": len(cells),
                "runs": runs,
                "miners": sum(n for n, _ in shapes),
            },
        )

    def ops(self, inputs: Inputs, round_index: int) -> List[Op]:
        cells = inputs.data["cells"]
        seed = inputs.data["run_seed"]
        # One call per cell, each timed on its own (see Grid.ops).
        return [
            Op(
                f"run_many:{index}",
                lambda c=cell, s=seed + index: repro.run_many(
                    [c], seed=s, max_workers=_workers()
                )[0],
            )
            for index, cell in enumerate(cells)
        ]

    def check(self, inputs: Inputs, outputs: Dict[str, OpResult]) -> Dict[str, List[str]]:
        oracle = _StableOracle()
        failures: Dict[str, List[str]] = {}
        for index, cell in enumerate(inputs.data["cells"]):
            label = f"run_many:{index}"
            cell_result = outputs[label].output
            if cell_result is None:
                continue
            game = cell.game
            reasons = []
            if cell.kind == "noisy":
                if len(cell_result) != cell.runs:
                    reasons.append(f"{len(cell_result)} replications returned")
                for run in cell_result:
                    if run.reached_equilibrium != oracle.coins_stable(game, run.final_coins):
                        reasons.append(f"noisy run {run.run_index}: verdict contradicts oracle")
            else:
                if cell_result.runs != cell.runs or cell_result.converged != cell.runs:
                    reasons.append(f"{cell_result.converged}/{cell.runs} runs converged")
                for coins, _count in cell_result.finals:
                    if not oracle.coins_stable(game, coins):
                        reasons.append("final state not stable")
            if reasons:
                failures[label] = reasons
        return failures

    def layer_outputs(self, inputs: Inputs, results: Sequence[OpResult]) -> Dict[str, float]:
        noisy = [
            run
            for cell, result in zip(inputs.data["cells"], results)
            if cell.kind == "noisy" and result.output is not None
            for run in result.output
        ]
        return {
            "noisy_runs": len(noisy),
            "noisy_activations": sum(run.activations for run in noisy),
            "noisy_rounds_sampled": sum(run.rounds_sampled for run in noisy),
            "noisy_settled": sum(1 for run in noisy if run.settled),
        }


# ----------------------------------------------------------------------
# exact: Theorem 1 enumeration and Theorem 2 reward design
# ----------------------------------------------------------------------


#: Draws allowed per game or market before input generation gives up.
DRAWS = 20

#: Reachability calls per free or restricted game, from seeded starts;
#: their cost depends on the start, so several average it out.
STARTS = 3


class Exact(Workload):
    """Improvement DAGs, equilibria, reachability and reward design."""

    name = "exact"
    per_call_latency = True
    SCALES = {
        # Shapes repeat and the largest spaces stay near 10^4
        # configurations: how long a DAG or a reachability walk takes
        # varies with the game's draw, and a sum over many mid-sized
        # games varies less from seed to seed than a few large ones.
        "full": {
            "free": [(6, 3), (7, 3), (7, 3), (8, 3), (8, 3), (8, 3), (8, 3), (10, 2), (10, 2),
                     (11, 2), (11, 2)],
            "restricted": [(9, 4), (9, 4), (10, 3), (10, 3)],
            "symmetric": [((4, 4), 3), ((5, 4), 3), ((5, 5), 3)],
        },
        "tiny": {"free": [(4, 2)], "restricted": [(4, 3)], "symmetric": [((2, 2), 2)]},
    }

    def build(self, seed: int, scale: str, out_dir: str) -> Inputs:
        params = self.SCALES[scale]
        rng = np.random.default_rng(seed)
        analyses = []  # (label, game or restricted game, starts, configurations)
        designs = []  # (label, game, initial, target)
        for index, (n, k) in enumerate(params["free"]):
            for _ in range(DRAWS):
                game = _game(rng, n, k)
                equilibria = repro.enumerate_equilibria(game)
                if len(equilibria) >= 2:
                    break
            else:
                raise RuntimeError(f"no {n}x{k} game with two equilibria to design between")
            starts = [
                repro.random_configuration(game, seed=int(rng.integers(2**31)))
                for _ in range(STARTS)
            ]
            analyses.append((f"free{index}", game, starts, k**n))
            # Theorem 2 moves the market between any two equilibria:
            # design both ways.
            designs.append((f"free{index}-up", game, equilibria[0], equilibria[-1]))
            designs.append((f"free{index}-down", game, equilibria[-1], equilibria[0]))
        for index, (n, k) in enumerate(params["restricted"]):
            game = _game(rng, n, k)
            mask = {}
            for position, miner in enumerate(game.miners):
                # Fixed mask sizes keep the space the same size on every seed.
                size = 2 + position % (k - 1)
                picks = sorted(rng.choice(k, size=size, replace=False))
                mask[miner] = [game.coins[j] for j in picks]
            restricted = RestrictedGame(game, mask)
            starts = [
                random_restricted_configuration(game, mask, seed=int(rng.integers(2**31)))
                for _ in range(STARTS)
            ]
            analyses.append(
                (f"restricted{index}", restricted, starts, restricted.configuration_count())
            )
        for index, (tiers, k) in enumerate(params["symmetric"]):
            powers = []
            for power, count in zip(_stratified(rng, len(tiers), 1.0, 100.0, False), tiers):
                powers += [power] * count
            game = repro.Game.create(
                powers=powers, reward_values=_stratified(rng, k, 1.0, 50.0, False)
            )
            analyses.append((f"symmetric{index}", game, [], k ** len(powers)))
        # Each DAG, enumeration and reachability call analyses one space.
        configurations = sum(
            configs * (2 + len(starts)) for _, _, starts, configs in analyses
        )
        miners = sum(len(game.miners) for _, game, _, _ in analyses)
        return Inputs(
            data={
                "analyses": analyses,
                "designs": designs,
                "design_seed": int(rng.integers(2**31)),
                # The adversarial learner of the paper's stress test.
                "designer": repro.DynamicRewardDesign(
                    policy=MinimalGainPolicy(), scheduler=SmallestFirstScheduler()
                ),
            },
            # Reward-design runs: one Algorithm 2 execution each.
            runs=len(designs),
            sizes={
                "calls": sum(2 + len(starts) for _, _, starts, _ in analyses) + len(designs),
                "configurations": configurations,
                "miners": miners,
                "runs": len(designs),
            },
        )

    def ops(self, inputs: Inputs, round_index: int) -> List[Op]:
        ops = []
        for label, game, starts, _ in inputs.data["analyses"]:
            ops.append(
                Op(f"dag:{label}", lambda g=game: repro.analysis.paths.analyze_improvement_dag(g))
            )
            ops.append(Op(f"equilibria:{label}", lambda g=game: repro.enumerate_equilibria(g)))
            for number, start in enumerate(starts):
                ops.append(
                    Op(
                        f"reach{number}:{label}",
                        lambda g=game, s=start: repro.analysis.paths.reachable_equilibria(g, s),
                    )
                )
        designer = inputs.data["designer"]
        seed = inputs.data["design_seed"]
        for label, game, initial, target in inputs.data["designs"]:
            ops.append(
                Op(
                    f"design:{label}",
                    lambda g=game, a=initial, b=target: designer.run(g, a, b, seed=seed),
                )
            )
        return ops

    def check(self, inputs: Inputs, outputs: Dict[str, OpResult]) -> Dict[str, List[str]]:
        oracle = _StableOracle()
        failures: Dict[str, List[str]] = {}

        def fail(label: str, reason: str) -> None:
            failures.setdefault(label, []).append(reason)

        for label, game, starts, _ in inputs.data["analyses"]:
            dag = outputs[f"dag:{label}"].output
            found = outputs[f"equilibria:{label}"].output
            if dag is not None:
                if not dag.acyclic:
                    fail(f"dag:{label}", "improvement graph has a cycle (Theorem 1)")
                if any(not oracle.stable(game, config) for config in dag.sinks):
                    fail(f"dag:{label}", "a sink is not stable")
            if found is not None:
                if not found:
                    fail(f"equilibria:{label}", "no equilibrium found")
                if any(not oracle.stable(game, config) for config in found):
                    fail(f"equilibria:{label}", "an enumerated configuration is not stable")
                if dag is not None and set(dag.sinks) != set(found):
                    fail(f"equilibria:{label}", "equilibria differ from the DAG's sinks")
            for number in range(len(starts)):
                key = f"reach{number}:{label}"
                reached = outputs[key].output
                if reached is not None:
                    if not reached:
                        fail(key, "no equilibrium reachable")
                    if any(not oracle.stable(game, config) for config in reached):
                        fail(key, "a reached configuration is not stable")
                    if found is not None and not set(reached) <= set(found):
                        fail(key, "reached a configuration outside the equilibria")
        for label, game, initial, target in inputs.data["designs"]:
            result = outputs[f"design:{label}"].output
            if result is not None and not (result.success and result.final == target):
                fail(f"design:{label}", "reward design missed its target (Theorem 2)")
        return failures

    def round_metrics(self, inputs: Inputs, results: Sequence[OpResult]) -> Dict[str, float]:
        wall = sum(r.seconds for r in results)
        return {
            "wall_s": wall,
            "runs_per_s": inputs.runs / wall,
            "configs_per_s": inputs.sizes["configurations"] / wall,
        }


# ----------------------------------------------------------------------
# population: markets of 10^3..10^5 miners in hardware tiers
# ----------------------------------------------------------------------

#: A Mersenne prime above every population here; orbit sizes are
#: re-derived modulo it, independently of ``ClassGame.orbit_size``.
_PRIME = 2**61 - 1


def _multinomial_mod(total: int, parts: Sequence[int], factorials: Sequence[int]) -> int:
    value = factorials[total]
    for part in parts:
        value = value * pow(factorials[part], _PRIME - 2, _PRIME) % _PRIME
    return value


def class_improvements(cgame: ClassGame, counts: Sequence[Sequence[int]]) -> List[str]:
    """Classes that could gain by moving, judged from ``class_payoffs``."""
    mass = cgame.mass_of(counts)
    payoffs = cgame.class_payoffs(counts)
    unstable = []
    for k, row in enumerate(counts):
        for src, value in enumerate(row):
            if not value:
                continue
            current = payoffs[k][cgame.coin_names[src]]
            for dst in cgame.alphabets[k]:
                if dst != src and cgame.payoff(k, dst, mass[dst] + cgame.powers[k]) > current:
                    unstable.append(f"class {k} gains moving {src}->{dst}")
    return unstable


class Population(Workload):
    """Class dynamics batches and basin profiles of large markets."""

    name = "population"
    per_call_latency = True
    SCALES = {
        "full": {
            "populations": [1_000, 2_000, 3_000, 5_000, 7_000, 10_000, 20_000, 50_000, 100_000],
            "tiers": [2, 3, 4, 5, 6, 2, 3, 4, 6],
            "coins": 4,
            "runs": 20,
            "samples": 4,
        },
        "tiny": {"populations": [60], "tiers": [2], "coins": 3, "runs": 2, "samples": 2},
    }

    def build(self, seed: int, scale: str, out_dir: str) -> Inputs:
        params = self.SCALES[scale]
        rng = np.random.default_rng(seed)
        markets = []
        seeds = []
        for size, tiers in zip(params["populations"], params["tiers"]):
            market, batch_seed, basin_seed = self._market(rng, size, tiers, params)
            markets.append(market)
            seeds += [batch_seed, basin_seed]
        runs = len(markets) * (params["runs"] + params["samples"])
        return Inputs(
            data={
                "markets": markets,
                "runs": params["runs"],
                "samples": params["samples"],
                "seeds": seeds,
            },
            runs=runs,
            sizes={
                "calls": 2 * len(markets),
                "runs": runs,
                "miners": sum(params["populations"]),
                "classes": sum(market.n_classes for market in markets),
            },
        )

    @staticmethod
    def _market(rng: Any, size: int, tiers: int, params: Dict[str, Any]) -> Tuple[Any, int, int]:
        """One market of *size* miners, with its batch and basin seeds.

        A market is redrawn when two of the basin's samples would land
        on the same stable profile: its orbit weight is computed once
        per distinct profile, so the work of a round would swing with
        the seed.
        """
        coins = params["coins"]
        weights = [2**t for t in range(tiers)]
        counts = [size * w // sum(weights) for w in weights]
        counts[-1] += size - sum(counts)
        for _ in range(DRAWS):
            spec = []
            powers = _stratified(rng, tiers, 1.0, 1000.0, False)
            for t, (power, count) in enumerate(zip(powers, counts)):
                # Odd tiers are hardware-restricted to all coins but one.
                allowed = None
                if t % 2:
                    banned = int(rng.integers(0, coins))
                    allowed = [j for j in range(coins) if j != banned]
                spec.append((power, allowed, count))
            rewards = _stratified(rng, coins, 100.0, 200.0, False)
            market = ClassGame.from_spec(spec, rewards)
            batch_seed, basin_seed = (int(value) for value in rng.integers(0, 2**31, 2))
            # The basin's own sampling, without its orbit weights.
            probe = repro.RunSpec(
                game=market, runs=params["samples"], kind="classes", seed=basin_seed
            )
            if len({run.final for run in repro.run_many([probe])[0]}) == params["samples"]:
                return market, batch_seed, basin_seed
        raise RuntimeError(f"no market of {size} miners whose samples land apart")

    def ops(self, inputs: Inputs, round_index: int) -> List[Op]:
        ops = []
        seeds = inputs.data["seeds"]
        for index, market in enumerate(inputs.data["markets"]):
            cell = repro.RunSpec(game=market, runs=inputs.data["runs"], kind="classes")
            ops.append(
                Op(
                    f"classes:{index}",
                    lambda c=cell, s=seeds[2 * index]: repro.run_many([c], seed=s)[0],
                )
            )
            ops.append(
                Op(
                    f"basin:{index}",
                    lambda m=market, s=seeds[2 * index + 1]: (
                        repro.analysis.classes.class_basin_profile(
                            m, samples=inputs.data["samples"], seed=s
                        )
                    ),
                )
            )
        return ops

    def check(self, inputs: Inputs, outputs: Dict[str, OpResult]) -> Dict[str, List[str]]:
        failures: Dict[str, List[str]] = {}
        for index, market in enumerate(inputs.data["markets"]):
            runs = outputs[f"classes:{index}"].output
            if runs is not None:
                reasons = []
                if len(runs) != inputs.data["runs"]:
                    reasons.append(f"{len(runs)} runs returned")
                for run in runs:
                    if not run.converged:
                        reasons.append(f"run {run.run_index} did not converge")
                    reasons += class_improvements(market, run.final)
                if reasons:
                    failures[f"classes:{index}"] = reasons
            basin = outputs[f"basin:{index}"].output
            if basin is not None:
                reasons = []
                if sum(basin.counts.values()) != inputs.data["samples"]:
                    reasons.append("basin samples do not add up")
                if set(basin.orbit_sizes) != set(basin.counts):
                    reasons.append("orbit sizes do not match the reached profiles")
                factorials = [1]
                for value in range(1, max(market.populations) + 1):
                    factorials.append(factorials[-1] * value % _PRIME)
                for profile in basin.counts:
                    reasons += class_improvements(market, profile)
                    expected = 1
                    for k, row in enumerate(profile):
                        expected = expected * _multinomial_mod(
                            market.populations[k], row, factorials
                        ) % _PRIME
                    if basin.orbit_sizes.get(profile, 0) % _PRIME != expected:
                        reasons.append("wrong orbit size")
                if reasons:
                    failures[f"basin:{index}"] = reasons
        return failures


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Grid(), Pooled(), Exact(), Population())
}
