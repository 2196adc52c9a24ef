"""Recursively cached coreset structure.

A node of order i keeps its levels in a coreset tree of merge degree
r_i = 2**(2**i) and mirrors each nonempty level with a child node of order
i-1 for fast retrieval.  After a carry lands in level c, the levels below c
are empty and their children are dropped; child c alone receives the new
bucket, so every child holds exactly the buckets of its level.  Every node
is a `CachedCoresetTree` and answers through its `_candidate` and
`_cached_query`; an order-0 node is that class with merge degree 2 and runs
its own code.  The top node's `summary()` is the inherited one, so it skips
the same reductions; a child is only ever asked for `coreset()`.
Queries usually merge just two buckets per order: one cached prefix summary
and the recursive summary of the lowest nonempty level, giving a merge width
that grows with the nesting depth rather than with the merge degree.
"""

from __future__ import annotations

import numpy as np

from . import radix
from .cache import CachedCoresetTree
from .coreset import Bucket, CoresetConfig, build_coreset, spawn_seed

MAX_ORDER = 6  # 2**(2**6) buckets per level is already past any realistic stream


class RecursiveCachedTree(CachedCoresetTree):
    """Nested cached coreset trees with tower-of-two merge degrees.  The inherited
    `builds` counts only this node's own merges and reductions, not its children's."""

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
        self.order = order
        self._seed_seq = spawn_seed(cfg.seed if seed is None else seed)
        super().__init__(cfg, 2 ** (2**order), seed=self._seed_seq)
        self.last_query_merge_count = 0
        self.children: dict[int, RecursiveCachedTree] = {}  # level -> mirror

    def update(self, bucket: Bucket) -> None:
        """Ingest a bucket and mirror the level its carry lands in; a merge
        that raises, here or in a child, leaves the node as it was."""
        if self.order == 0:
            super().update(bucket)  # an order-0 node mirrors nothing
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

    def coreset(self) -> Bucket:
        """Summary of everything ingested by this node.

        Order 0 answers as `CachedCoresetTree` does.  Above that, the minor
        part is the answer of the child mirroring the lowest nonempty level,
        and a fallback merges every child's answer.
        """
        if self.order == 0:
            return super().coreset()
        return self._cached_query(build_coreset)

    def _candidate(self) -> list[Bucket]:
        """The inherited candidate, with this query's merge count: its width
        plus the counts of the children it asked."""
        self.last_query_merge_count = 0
        candidate = super()._candidate()
        self.last_query_merge_count += self.last_query_width
        return candidate

    def _minor(self) -> list[Bucket]:
        if self.order == 0:
            return super()._minor()
        return self._answers([min(self.children)])

    def _fallback(self) -> list[Bucket]:
        """Every child's answer, the highest level (oldest buckets) first."""
        if self.order == 0:
            return super()._fallback()
        return self._answers(sorted(self.children, reverse=True))

    def _answers(self, levels: list[int]) -> list[Bucket]:
        """These levels' children's answers, adding their merge counts to this query's."""
        children = [self.children[level] for level in levels]
        answers = [child.coreset() for child in children]
        self.last_query_merge_count += sum(child.last_query_merge_count for child in children)
        return answers

    def bucket_count(self) -> int:
        """Buckets held by this node and all live descendants."""
        return super().bucket_count() + sum(ch.bucket_count() for ch in self.children.values())

    def stored_points(self) -> int:
        return super().stored_points() + sum(ch.stored_points() for ch in self.children.values())

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
