"""Stream-clustering driver.

Batches raw points into level-0 buckets of size m, hands them to a bucket
structure, and answers center queries by clustering the structure's
summary() together with the not-yet-flushed partial batch.
The first answer takes the best of `runs` seeded runs; a later one, the cheaper
of one fresh run and Lloyd from the last answer (k centers, not in stored_points).
"""

from __future__ import annotations

import numpy as np

from .coreset import Bucket, CoresetConfig, spawn_seed
from .kmeans import CenterSet, as_point, best_of_runs


class StreamClusterer:
    """Feeds any bucket structure and answers k-means center queries.

    The structure must expose update(bucket), summary() -> list[Bucket]
    covering every bucket ingested so far, and stored_points().  The query
    seed may also be a Generator, which the driver then draws from directly.
    """

    def __init__(
        self,
        structure,
        cfg: CoresetConfig,
        query_seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        runs: int = 5,
        lloyd_iters: int = 20,
    ):
        self.structure = structure
        self.cfg = cfg
        self.runs = runs
        self.lloyd_iters = lloyd_iters
        if query_seed is None:
            query_seed = spawn_seed(cfg.seed, 1)
        self._rng = np.random.default_rng(query_seed)
        self._partial: list[np.ndarray] = []
        self.points_seen = 0
        self.buckets_delivered = 0
        self._dim: int | None = None
        self._last_centers: np.ndarray | None = None  # copied: callers may edit theirs

    def push(self, p) -> None:
        """Buffer one point; every m-th point flushes a bucket downstream.

        A batch that Bucket or the structure's update rejects (a point that
        is not finite, a reduction that overflows) raises and is dropped
        whole: its m points leave the buffer and points_seen, and the next
        bucket takes its number, as if they never arrived.
        """
        p = as_point(p)
        if self._dim is None:
            self._dim = p.shape[0]
        elif p.shape[0] != self._dim:
            raise ValueError(f"point has dimension {p.shape[0]}, stream is {self._dim}")
        self._partial.append(p)
        self.points_seen += 1
        if len(self._partial) == self.cfg.m:
            batch, self._partial = np.array(self._partial), []
            n = self.buckets_delivered + 1
            try:
                self.structure.update(Bucket(batch, np.ones(self.cfg.m), n, n, level=0))
            except Exception:
                self.points_seen -= self.cfg.m
                raise
            self.buckets_delivered = n

    def query(self) -> CenterSet:
        """Cluster the structure summary plus the partial batch."""
        return self.query_with_cost()[0]

    def query_with_cost(self) -> tuple[CenterSet, float]:
        """query() plus the weighted cost of its centers on the clustered pool."""
        if self.points_seen == 0:
            raise ValueError("no points ingested yet")
        parts = self.structure.summary()
        pools = [b.points for b in parts]
        pool_weights = [b.weights for b in parts]
        if self._partial:
            partial = np.array(self._partial)
            if not np.all(np.isfinite(partial)):
                raise ValueError("partial batch points must be finite")
            pools.append(partial)
            pool_weights.append(np.ones(len(partial)))
        points = np.concatenate(pools)
        weights = np.concatenate(pool_weights)
        answer = best_of_runs(
            points, weights, self.cfg.k, self._rng, lloyd_iters=self.lloyd_iters,
            runs=self.runs if self._last_centers is None else 1, start=self._last_centers,
        )
        self._last_centers = answer[0].centers.copy()
        return answer

    def stored_points(self) -> int:
        return self.structure.stored_points() + len(self._partial)
