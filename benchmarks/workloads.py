"""Workload table: the input streams and query schedules the benchmark replays.

Every input is a pure function of the workload and the seed given on the
command line; the program under test only ever sees the generated points
(through a CSV file) and the query points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: str  # "mixture" (stationary) or "drift"
    n: int  # stream length in points
    d: int
    true_centers: int
    k: int
    m: int
    r: int  # merge degree of ct, cc and the cache inside online
    rcc_order: int
    n_queries: int | None  # None: one query at every bucket boundary
    spread: float = 2.0  # per-cluster standard deviation
    drift_step: float = 0.0  # center displacement per step (drift only)
    points_per_center_step: int = 100  # drift only


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-every-bucket",
            why="The paper's regime: a query at every bucket boundary, so the "
            "cache always hits and query-time reductions dominate the run.",
            gen="mixture", n=20_000, d=5, true_centers=10, k=10, m=200, r=2,
            rcc_order=2, n_queries=None,
        ),
        Workload(
            name="sparse-poisson",
            why="Sparse Poisson queries: tree merges dominate and cc/rcc mostly "
            "fall back to the full tree, so merge cost and the cache-hit rule show.",
            gen="mixture", n=40_000, d=5, true_centers=10, k=10, m=200, r=2,
            rcc_order=2, n_queries=40,
        ),
        Workload(
            name="drift-wide",
            why="A drifting d=20 stream with k=20: distances cost 4x the arithmetic "
            "and the cache mixes cached, hit and fallback paths.",
            gen="drift", n=16_000, d=20, true_centers=20, k=20, m=400, r=2,
            rcc_order=2, n_queries=40, drift_step=1.0,
        ),
    )
}


SCHEDULE_SEED = 0


def make_points(w: Workload, seed: int) -> np.ndarray:
    """The (n, d) stream of workload w for this seed."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 100.0, size=(w.true_centers, w.d))
    if w.gen == "mixture":
        labels = rng.integers(w.true_centers, size=w.n)
        return centers[labels] + rng.normal(0.0, w.spread, size=(w.n, w.d))
    # Drift: per step every center moves by one fixed random vector of norm
    # drift_step and emits points_per_center_step points; the points of a step
    # are shuffled so no prefix of the stream comes from a single center.
    direction = rng.normal(size=w.d)
    direction *= w.drift_step / np.linalg.norm(direction)
    per_step = w.true_centers * w.points_per_center_step
    chunks = []
    for _ in range(-(-w.n // per_step)):
        centers = centers + direction
        step = np.repeat(centers, w.points_per_center_step, axis=0)
        step += rng.normal(0.0, w.spread, size=step.shape)
        chunks.append(step[rng.permutation(per_step)])
    return np.concatenate(chunks)[: w.n]


def make_queries(w: Workload) -> list[int]:
    """Sorted 1-based point indices at which a query follows the ingest.

    Queries start after the first full bucket and the last one is at the
    final point.  The sparse schedules are Poisson arrivals conditioned on
    their count (uniform order statistics).  The schedule is one fixed draw
    per workload, not a function of the seed: every seed then exercises the
    same mix of cache paths, and only the points differ between runs.
    """
    if w.n_queries is None:
        return list(range(w.m, w.n + 1, w.m))
    rng = np.random.default_rng(SCHEDULE_SEED)
    inner = rng.choice(np.arange(w.m, w.n), size=w.n_queries - 1, replace=False)
    return sorted(int(i) for i in inner) + [w.n]
