"""Recursively cached coreset structure.

A node of order i merges with degree r_i = 2**(2**i) and keeps, per level,
both a list of buckets (capacity r_i) and a child node of order i-1 that
mirrors the list's contents for fast retrieval.  An order-0 node is simply
a cached coreset tree with merge degree 2.  Queries usually merge just two
buckets per order: one cached prefix summary and the recursive summary of
the lowest nonempty level, giving a merge width that grows with the
nesting depth rather than with the merge degree.
"""

from __future__ import annotations

import numpy as np

from . import radix
from .cache import CachedCoresetTree, join_prefix, store_pruned
from .coreset import Bucket, CoresetConfig, build_coreset, spawn_seed

MAX_ORDER = 6  # 2**(2**6) buckets per level is already past any realistic stream


class RecursiveCachedTree:
    """Nested cached coreset trees with tower-of-two merge degrees."""

    def __init__(
        self,
        cfg: CoresetConfig,
        order: int,
        seed: int | np.random.SeedSequence | None = None,
    ):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if order > MAX_ORDER:
            raise ValueError(f"order {order} too large (max {MAX_ORDER})")
        self.cfg = cfg
        self.order = order
        self.r = 2 ** (2**order)
        self._seed_seq = spawn_seed(cfg.seed if seed is None else seed)
        self.last_query_merge_count = 0
        if order == 0:
            # Order 0 is exactly a degree-2 cached coreset tree.
            self._cc = CachedCoresetTree(cfg, r=2, seed=self._seed_seq)
            return
        self._cc = None
        self._rng = np.random.default_rng(self._seed_seq)
        self.lists: list[list[Bucket]] = []
        self.children: list[RecursiveCachedTree | None] = []
        self._epochs: list[int] = []
        self.cache: dict[int, Bucket] = {}
        self._n = 0
        self.query_builds = 0

    @property
    def n(self) -> int:
        return self._cc.n if self._cc is not None else self._n

    def _ensure_level(self, level: int) -> None:
        while len(self.lists) <= level:
            self.lists.append([])
            self.children.append(None)
            self._epochs.append(0)

    def _child(self, level: int) -> "RecursiveCachedTree":
        if self.children[level] is None:
            # Fresh sub-seed per (level, flush epoch) keeps re-initialized
            # children independent but reproducible.
            child_seed = spawn_seed(self._seed_seq, level, self._epochs[level])
            self.children[level] = RecursiveCachedTree(
                self.cfg, self.order - 1, seed=child_seed
            )
        return self.children[level]

    def update(self, bucket: Bucket) -> None:
        """Ingest a bucket, cascading full levels into reduced buckets."""
        if self._cc is not None:
            self._cc.update(bucket)
            return
        self._n += 1
        self._ensure_level(0)
        self.lists[0].append(bucket)
        self._child(0).update(bucket)
        level = 0
        while len(self.lists[level]) >= self.r:
            merged = build_coreset(self.cfg, self.lists[level], self._rng)
            self._ensure_level(level + 1)
            self.lists[level + 1].append(merged)
            self._child(level + 1).update(merged)
            self.lists[level] = []
            self.children[level] = None  # re-initialized lazily on next use
            self._epochs[level] += 1
            level += 1

    def summary(self) -> list[Bucket]:
        return [self.coreset()] if self.n > 0 else []

    def coreset(self) -> Bucket:
        """Summary of everything ingested by this node."""
        if self._cc is not None:
            out = self._cc.coreset()
            self.last_query_merge_count = self._cc.last_query_width
            return out
        if self._n == 0:
            raise ValueError("no buckets ingested yet")

        n1 = radix.major(self._n, self.r)
        if n1 != 0 and n1 in self.cache:
            low = min(i for i, lst in enumerate(self.lists) if lst)
            child = self._child(low)
            candidate = join_prefix(self.cache[n1], [child.coreset()])
            merge_count = 2 + child.last_query_merge_count
        else:
            candidate = []
            merge_count = 0
            for i, lst in enumerate(self.lists):
                if lst:
                    child = self._child(i)
                    candidate.append(child.coreset())
                    merge_count += child.last_query_merge_count
            merge_count += len(candidate) if len(candidate) > 1 else 1

        if len(candidate) == 1:
            out = candidate[0].copy()
        else:
            out = build_coreset(self.cfg, candidate, self._rng)
            self.query_builds += 1

        store_pruned(self.cache, self._n, self.r, out)
        self.last_query_merge_count = merge_count
        return out.copy()

    def bucket_count(self) -> int:
        """Buckets held by this node and all live descendants."""
        if self._cc is not None:
            return self._cc.bucket_count()
        total = sum(len(lst) for lst in self.lists) + len(self.cache)
        for child in self.children:
            if child is not None:
                total += child.bucket_count()
        return total

    def stored_points(self) -> int:
        if self._cc is not None:
            return self._cc.stored_points()
        total = sum(b.n_points for lst in self.lists for b in lst)
        total += sum(b.n_points for b in self.cache.values())
        for child in self.children:
            if child is not None:
                total += child.stored_points()
        return total

    def cache_keys(self) -> list[int]:
        if self._cc is not None:
            return self._cc.cache_keys()
        return sorted(self.cache)

    def level_counts(self) -> list[int]:
        if self._cc is not None:
            return self._cc.tree.level_counts()
        return [len(lst) for lst in self.lists]


def order_for_horizon(n_hat: int) -> int:
    """Nesting order whose top merge degree best matches sqrt(n_hat).

    With that choice the nested degrees follow the n**(1/2), n**(1/4), ...
    cascade for a stream of roughly n_hat base buckets.
    """
    if n_hat < 1:
        raise ValueError(f"horizon must be >= 1, got {n_hat}")
    target = float(np.sqrt(n_hat))
    best = min(range(MAX_ORDER + 1), key=lambda i: abs(2 ** (2**i) - target))
    return best
