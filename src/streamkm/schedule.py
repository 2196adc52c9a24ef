"""Query scheduling: fixed-interval or Poisson arrivals over point indices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuerySchedule:
    """Either one query every `interval` points, or Poisson arrivals with
    the given rate in (0, 1] (mean inter-arrival = 1/rate points)."""

    mode: str
    interval: int | None = None
    rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode == "fixed":
            if self.interval is None or self.rate is not None:
                raise ValueError("fixed schedule takes interval only")
            if self.interval < 1:
                raise ValueError(f"interval must be >= 1, got {self.interval}")
        elif self.mode == "poisson":
            if self.rate is None or self.interval is not None:
                raise ValueError("poisson schedule takes rate only")
            if not 0 < self.rate <= 1:  # at most one query per point: a mean gap >= 1
                raise ValueError(
                    f"rate must be finite and positive and at most 1, got {self.rate}"
                    " (--query-interval 1 queries every point)"
                )
        else:
            raise ValueError(f"unknown schedule mode {self.mode!r}")

    @classmethod
    def fixed(cls, interval: int) -> "QuerySchedule":
        return cls("fixed", interval=interval)

    @classmethod
    def poisson(cls, rate: float, seed: int = 0) -> "QuerySchedule":
        return cls("poisson", rate=rate, seed=seed)


def schedule_queries(sched: QuerySchedule, n_points: int) -> list[int]:
    """Sorted 1-based point indices at which queries fire."""
    if sched.mode == "fixed":
        return list(range(sched.interval, n_points + 1, sched.interval))
    rng = np.random.default_rng(sched.seed)
    indices: list[int] = []
    t = 0.0
    last = 0
    while True:
        t += rng.exponential(1.0 / sched.rate)
        idx = int(np.ceil(t))
        if idx > n_points:
            break
        if idx != last:  # collapse duplicates landing on one point
            indices.append(idx)
            last = idx
    return indices
