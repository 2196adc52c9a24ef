"""Recursively cached coreset structure.

A node of order i keeps its levels in a coreset tree of merge degree
r_i = 2**(2**i) and mirrors each nonempty level with a child node of order
i-1 for fast retrieval.  After a carry lands in level c, the levels below c
are empty and their children are dropped; child c alone receives the new
bucket, so every child holds exactly the buckets of its level.  An order-0
node is simply a cached coreset tree with merge degree 2.  Queries usually
merge just two buckets per order: one cached prefix summary and the
recursive summary of the lowest nonempty level, giving a merge width that
grows with the nesting depth rather than with the merge degree.
"""

from __future__ import annotations

import numpy as np

from . import radix
from .cache import CachedCoresetTree, join_prefix, store_pruned
from .coreset import Bucket, CoresetConfig, build_coreset, spawn_seed
from .tree import CoresetTree

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
        self.children: dict[int, RecursiveCachedTree] = {}  # level -> mirror
        if order == 0:
            # Order 0 is exactly a degree-2 cached coreset tree.
            self._cc = CachedCoresetTree(cfg, r=2, seed=self._seed_seq)
            self.tree, self.cache = self._cc.tree, self._cc.cache
        else:
            self.tree = CoresetTree(cfg, self.r, rng=np.random.default_rng(self._seed_seq))
            self.cache: dict[int, Bucket] = {}

    @property
    def n(self) -> int:
        return self.tree.n_ingested

    def update(self, bucket: Bucket) -> None:
        """Ingest a bucket and mirror the level its carry lands in; a merge
        that raises, here or in a child, leaves the node as it was."""
        if self.order == 0:
            self._cc.update(bucket)
            return
        saved = dict(vars(self.tree), slots=list(self.tree.slots))  # slots is edited in place
        self.tree.update(bucket)
        n = self.tree.n_ingested
        _, c = radix.lowest(n, self.r)
        child = self.children.get(c)
        if child is None:
            # Fresh sub-seed per (level, flush epoch) keeps re-initialized
            # children independent but reproducible.
            seed = spawn_seed(self._seed_seq, c, n // self.r ** (c + 1))
            child = RecursiveCachedTree(self.cfg, self.order - 1, seed=seed)
        try:
            child.update(self.tree.slots[c][-1])
        except Exception:
            vars(self.tree).update(saved)
            raise
        self.children = {lvl: ch for lvl, ch in self.children.items() if lvl >= c}
        self.children[c] = child

    def summary(self) -> list[Bucket]:
        return [self.coreset()] if self.n > 0 else []

    def coreset(self) -> Bucket:
        """Summary of everything ingested by this node."""
        if self.order == 0:
            out = self._cc.coreset()
            self.last_query_merge_count = self._cc.last_query_width
            return out
        n = self.n
        if n == 0:
            raise ValueError("no buckets ingested yet")

        n1 = radix.major(n, self.r)
        if n1 != 0 and n1 in self.cache:
            child = self.children[min(self.children)]
            candidate = join_prefix(self.cache[n1], [child.coreset()])
            merge_count = 2 + child.last_query_merge_count
        else:
            candidate = []
            merge_count = 0
            for level in sorted(self.children):
                child = self.children[level]
                candidate.append(child.coreset())
                merge_count += child.last_query_merge_count
            merge_count += len(candidate) if len(candidate) > 1 else 1

        if len(candidate) == 1:
            out = candidate[0].copy()
        else:
            out = build_coreset(self.cfg, candidate, self.tree.rng)

        store_pruned(self.cache, n, self.r, out)
        self.last_query_merge_count = merge_count
        return out.copy()

    def bucket_count(self) -> int:
        """Buckets held by this node and all live descendants."""
        own = self.tree.bucket_count() + len(self.cache)
        return own + sum(child.bucket_count() for child in self.children.values())

    def stored_points(self) -> int:
        own = self.tree.stored_points() + sum(b.n_points for b in self.cache.values())
        return own + sum(child.stored_points() for child in self.children.values())

    def cache_keys(self) -> list[int]:
        return sorted(self.cache)

    def level_counts(self) -> list[int]:
        return self.tree.level_counts()


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
