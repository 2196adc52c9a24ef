"""Hybrid online clusterer: sequential center maintenance with a cached
coreset tree standing by for recomputation.

Every arriving point nudges its nearest center toward it (one
sequential_update step, with a spare row for the point beside the centers)
and is also pushed through a StreamClusterer over a cached coreset tree,
which batches it into buckets in the background.
phi_now tracks an estimate of the current clustering cost: it grows by
the squared distance of each point to its pre-move nearest center.  A
query normally just returns the maintained centers; only when phi_now
exceeds alpha times the cost recorded at the last recomputation does the
query fall back to the driver's own query, which rebuilds centers from the
coreset plus the partial batch and resets the estimate to
phi_prev / (1 - eps).  A fallback after the first warm-starts from the
last fallback's answer (the driver's), not from the centers maintained since.
"""

from __future__ import annotations

import math

import numpy as np

from .cache import CachedCoresetTree
from .coreset import CoresetConfig, spawn_seed
from .driver import StreamClusterer
from .kmeans import CenterSet, as_point, kmeans_pp, lloyd_refine, sequential_update


class OnlineClusterer:
    """Sequential k-means with threshold-triggered coreset fallback."""

    def __init__(
        self,
        cfg: CoresetConfig,
        r: int = 2,
        alpha: float = 1.2,
        eps: float = 0.1,
        warmup: int | None = None,
        seed: int | np.random.SeedSequence | None = None,
        refine_runs: int = 5,
        lloyd_iters: int = 20,
    ):
        if alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1, got {alpha}")
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        self.cfg = cfg
        self.alpha = alpha
        self.eps = eps
        self.warmup = 2 * cfg.k if warmup is None else warmup
        if self.warmup < cfg.k:
            raise ValueError(f"warmup {self.warmup} smaller than k={cfg.k}")

        root = spawn_seed(cfg.seed if seed is None else seed)
        self.cc = CachedCoresetTree(cfg, r, seed=spawn_seed(root, 0))
        # Initialization and fallbacks draw from this one generator.
        self._rng = np.random.default_rng(spawn_seed(root, 1))
        self.driver = StreamClusterer(
            self.cc, cfg, query_seed=self._rng, runs=refine_runs, lloyd_iters=lloyd_iters
        )

        self.centers: np.ndarray | None = None  # first rows of self._rows
        self.center_weights: np.ndarray | None = None
        self.phi_prev = 0.0
        self.phi_now = 0.0
        self._warm: list[np.ndarray] = []
        self.fallback_count = 0
        self.last_fell_back: bool | None = None

    @property
    def initialized(self) -> bool:
        return self.centers is not None

    def push(self, p) -> None:
        """Stream entry point: buffers the warmup prefix, then updates."""
        if self.centers is None:
            self._warm.append(as_point(p))
            if len(self._warm) == self.warmup:
                warm, self._warm = np.array(self._warm), []
                self.initialize(warm)
            return
        self.update(p)  # sequential_update checks p's shape before any center moves

    def initialize(self, s0) -> None:
        """Seed centers from the warmup set and start the cost estimate there.

        The warmup points also enter the background coreset pipeline so a
        later fallback summarizes the stream from its very first point.  A
        set with a point that is not finite, or large enough to overflow a
        squared norm, is rejected whole; push() then starts a new one.
        """
        s0 = np.atleast_2d(np.asarray(s0, dtype=np.float64))
        if len(s0) < self.cfg.k:
            raise ValueError(f"warmup set has {len(s0)} points, need >= {self.cfg.k}")
        flat = s0.ravel()
        if not math.isfinite(flat @ flat):
            raise ValueError("warmup points are not finite or their squared norms overflow")
        ones = np.ones(len(s0))
        # no Lloyd step: one assignment gives the seeds' weights and cost
        seeded, cost = lloyd_refine(s0, kmeans_pp(s0, ones, self.cfg.k, self._rng), ones, 0)
        self._adopt(seeded.centers, seeded.weights)
        self.phi_prev = self.phi_now = cost
        self._mark_batch_start()
        for p in s0:
            self.driver.push(p)

    def _adopt(self, centers: np.ndarray, weights: np.ndarray) -> None:
        """Maintain these centers, with a spare row for sequential_update."""
        self._rows = np.concatenate((centers, centers[:1]))
        self.centers, self.center_weights = self._rows[:-1], weights
        self._state = CenterSet(self.centers, weights)

    def update(self, p) -> None:
        """Absorb one point: bump phi_now, move the nearest center, buffer.

        A flush that raises drops the batch in the driver; the centers,
        weights and cost estimate then go back to where that batch began.
        """
        if self.centers is None:
            raise RuntimeError("clusterer not initialized; feed warmup points first")
        if self.driver.points_seen % self.cfg.m == 0:
            self._mark_batch_start()
        self.phi_now += sequential_update(self._state, p, self._rows)
        try:
            self.driver.push(p)
        except Exception:
            # the driver dropped the batch, so forget its points here too
            centers, weights, self.phi_now, self.phi_prev = self._batch_start
            self._adopt(centers, weights)
            raise

    def _mark_batch_start(self) -> None:
        """Remember the state to go back to if the driver drops this batch."""
        self._batch_start = (
            self.centers.copy(), self.center_weights.copy(), self.phi_now, self.phi_prev
        )

    def query(self) -> CenterSet:
        """Current centers; recomputed from the coreset only past threshold."""
        if self.centers is None:
            raise RuntimeError("clusterer not initialized; feed warmup points first")
        self.last_fell_back = self.phi_now > self.alpha * self.phi_prev
        if self.last_fell_back:
            answer, self.phi_prev = self.driver.query_with_cost()
            self._adopt(answer.centers, answer.weights)
            self.phi_now = self.phi_prev / (1.0 - self.eps)
            self.fallback_count += 1
        return CenterSet(self.centers.copy(), self.center_weights.copy())

    def stored_points(self) -> int:
        return self.driver.stored_points() + len(self._warm) + self.cfg.k
