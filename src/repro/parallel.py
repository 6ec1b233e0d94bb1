"""Parallel experiment fan-out.

Independent experiment configurations (different seeds, policies, or
profile ablations) share no state — each run owns its environment, its
RNG, and its metrics — so they parallelise embarrassingly well across a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Full :class:`~repro.cluster.runner.ExperimentResult` objects cannot
cross a process boundary (they hold live simulation objects: generator
coroutines, event heaps, open samplers).  Every run is therefore
reduced to its picklable :class:`~repro.cluster.runner.RunMetrics`,
on the serial path as well as in the pool.

Determinism contract: each run is seeded solely by its config's
``seed``, so the same config produces bit-identical metrics whether
it runs serially, in a pool, or interleaved with other runs — results
are merged back in submission order, keyed by index, never by
completion order.

Usage::

    from repro.parallel import replicate, run_experiments

    metrics = run_experiments(configs, workers=4)
    rep = replicate(config, seeds=range(8), workers=4)
    print(rep.aggregate()["avg_rt_ms_mean"])
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cluster.runner import (
    ExperimentConfig,
    ExperimentRunner,
    Grid,
    RunMetrics,
)
from repro.errors import ConfigurationError

__all__ = [
    "Replication",
    "replicate",
    "run_experiments",
]


def _run_one(task: tuple[int, ExperimentConfig]) -> tuple[int, RunMetrics]:
    """Pool worker: run one config and reduce it in the child.

    Module-level so it pickles under every multiprocessing start method
    (spawn included).  Returns ``(index, metrics)`` so the parent can
    merge results in submission order regardless of completion order.
    """
    index, config = task
    return index, ExperimentRunner(config).run().metrics


def run_experiments(configs: Iterable[ExperimentConfig],
                    workers: Optional[int] = 1) -> list[RunMetrics]:
    """Run independent configs, optionally across a process pool.

    ``workers=1`` runs serially in this process (no pool, no pickling);
    ``workers=None`` uses one worker per CPU; ``workers=N`` caps the
    pool at N.

    One :class:`~repro.cluster.runner.RunMetrics` per config comes back
    in the order of ``configs`` — merging is keyed by submission index,
    never completion order — identical whether it ran serially or in a
    pool.
    """
    configs = list(configs)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigurationError(
            "workers must be a positive int or None, got {!r}".format(
                workers))
    if workers == 1 or len(configs) <= 1:
        return _run_serially(configs)

    tasks = list(enumerate(configs))
    merged: list[Optional[RunMetrics]] = [None] * len(tasks)
    try:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=min(workers, len(tasks))) as pool:
            for index, value in pool.map(_run_one, tasks):
                merged[index] = value
    except (ImportError, OSError, PermissionError):
        # No usable multiprocessing primitives (restricted sandboxes,
        # missing /dev/shm): fall back to the serial path.
        return _run_serially(configs)
    return merged


def _run_serially(configs: list[ExperimentConfig]) -> list[RunMetrics]:
    return [ExperimentRunner(config).run().metrics for config in configs]


@dataclass(frozen=True)
class Replication:
    """Multi-seed replications of one configuration, in seed order."""

    runs: tuple[RunMetrics, ...]

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(run.config.seed for run in self.runs)

    def by_seed(self) -> dict[int, RunMetrics]:
        return {run.config.seed: run for run in self.runs}

    def aggregate(self) -> dict[str, float]:
        """Across-seed mean and population std of the headline numbers."""
        import numpy as np

        if not self.runs:
            raise ConfigurationError("no replications to aggregate")
        rows = {
            "avg_rt_ms": [run.response_stats.mean_ms for run in self.runs],
            "vlrt_pct": [run.vlrt_pct() for run in self.runs],
            "normal_pct": [100 * run.response_stats.normal_fraction
                           for run in self.runs],
            "drops": [float(run.drops) for run in self.runs],
        }
        out: dict[str, float] = {"runs": float(len(self.runs))}
        for name, values in rows.items():
            values = np.array(values)
            out[name + "_mean"] = float(values.mean())
            out[name + "_std"] = float(values.std())
        return out


def replicate(config: ExperimentConfig, seeds: Iterable[int],
              workers: Optional[int] = 1) -> Replication:
    """Run ``config`` once per seed and collect the replications.

    The paper's Table I numbers come from single runs; replications put
    across-seed error bars on them.  Seeds must be unique — they key
    the merged results.
    """
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError("seeds must be unique")
    grid = Grid(config, {"seed": {str(seed): {"seed": seed}
                                  for seed in seeds}})
    return Replication(runs=tuple(
        run for _, run in grid.run(workers=workers)))
