"""Buckets and the coreset construction used by every tree and cache.

A Bucket is a weighted point set that summarizes a contiguous span of base
buckets (inclusive 1-based indices) at a given nesting level.  Level 0
means raw stream points; each reduction of one or more buckets into a
size-m summary increments the level by one past the deepest input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kmeans import assign_to_centers


@dataclass(frozen=True)
class CoresetConfig:
    """Clustering parameters shared by all structures.

    m is the bucket/summary size in points; the usual setting is 20*k.
    The seed drives every reduction so runs are reproducible.
    """

    k: int
    m: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", 20 * self.k)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.m < self.k:
            raise ValueError(f"bucket size m={self.m} must be >= k={self.k}")


def spawn_seed(seed: int | np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """The child of `seed` at spawn key `key`; with no key, `seed` itself.

    An int is the entropy of a fresh root.  Every structure derives its
    sub-streams this way, so one seed reproduces a whole run.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    if not key:
        return seed
    return np.random.SeedSequence(seed.entropy, spawn_key=tuple(seed.spawn_key) + key)


@dataclass(frozen=True)
class Bucket:
    """Weighted point set with its stream span and coreset level.

    An immutable value whose arrays are read-only views, so structures share
    buckets without copying them; a caller who wants to edit one copies its arrays.
    """

    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    span_left: int
    span_right: int
    level: int = 0

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64)
        if len(points) != len(weights):
            raise ValueError(f"{len(points)} points but {len(weights)} weights")
        if not np.all(np.isfinite(points)):
            raise ValueError("bucket points must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("bucket weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("bucket weights must be positive")
        if self.span_left > self.span_right:
            raise ValueError(f"bad span [{self.span_left}, {self.span_right}]")
        points, weights = points.view(), weights.view()
        points.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def span(self) -> tuple[int, int]:
        return (self.span_left, self.span_right)

    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def _ordered_contiguous(inputs: list[Bucket]) -> list[Bucket]:
    """Sort buckets by span and verify the spans tile one interval."""
    if not inputs:
        raise ValueError("need at least one input bucket")
    ordered = sorted(inputs, key=lambda b: b.span_left)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.span_left != prev.span_right + 1:
            raise ValueError(
                f"bucket spans must be disjoint and contiguous; "
                f"got [{prev.span_left},{prev.span_right}] then "
                f"[{cur.span_left},{cur.span_right}]"
            )
    return ordered


def build_coreset(cfg: CoresetConfig, inputs: list[Bucket], rng: np.random.Generator) -> Bucket:
    """Reduce contiguous buckets to one bucket of at most m weighted points.

    Representatives are m points of the combined set drawn in one pass,
    without replacement, from the lightweight-coreset distribution
    q(x) = w/(2W) + w*||x - mu||^2 / (2 * sum w*||x - mu||^2), where mu is the
    weighted mean and W the total weight (only the first term when every
    point sits at mu).  The draw gives each point the exponential key
    Exp(1)/q and keeps the m smallest; the kept points stay in stream order.
    Each drawn point is its own representative, except that an exact
    duplicate draw (-0.0 and 0.0 alike) folds into the first copy and is
    dropped.  Only the undrawn points are assigned, each contributing its
    weight to its nearest representative, so total weight is conserved
    exactly.  When the combined set already has at most m points it passes
    through unchanged.  The output level is one past the deepest input level
    either way.  Raises ValueError when the squared distances to mu overflow
    float64.
    """
    ordered = _ordered_contiguous(inputs)
    points = np.concatenate([b.points for b in ordered])
    weights = np.concatenate([b.weights for b in ordered])
    level = 1 + max(b.level for b in ordered)
    span_l, span_r = ordered[0].span_left, ordered[-1].span_right

    if len(points) <= cfg.m:
        return Bucket(points, weights, span_l, span_r, level)

    total = weights.sum()
    diff = points - weights @ points / total
    spread = weights * np.einsum("ij,ij->i", diff, diff)
    spread_sum = spread.sum()
    if not math.isfinite(spread_sum):
        raise ValueError("squared distances overflow float64")
    q = weights / total
    if spread_sum > 0.0:
        q = 0.5 * q + 0.5 * spread / spread_sum
    keys = rng.exponential(size=len(points)) / q
    drawn = np.sort(np.argpartition(keys, cfg.m - 1)[: cfg.m])
    seeds = points[drawn]
    # duplicate draws (-0.0 as 0.0) fold into the first: a stable sort of rows as bytes
    rows = (seeds + 0.0).view(np.dtype((np.void, 8 * seeds.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")
    head = np.concatenate(([True], rows[order[1:]] != rows[order[:-1]]))
    assign = np.empty(len(points), dtype=np.intp)
    assign[drawn[order]] = order[head][np.cumsum(head) - 1]  # each group's first index
    rest = np.delete(np.arange(len(points)), drawn)
    assign[rest] = assign_to_centers(points[rest], seeds)[0]
    agg = np.bincount(assign, weights=weights, minlength=cfg.m)
    kept = agg > 0
    return Bucket(seeds[kept], agg[kept], span_l, span_r, level)
