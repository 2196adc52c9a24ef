"""Coreset tree with a query-time cache of full-prefix summaries.

Answering a query for all N ingested buckets usually means merging one
cached summary of buckets [1, major(N, r)] with the tree buckets covering
the minor part, touching at most r buckets instead of one bucket per tree
level.  Results are cached under the bucket count N and pruned back to
prefixsum(N, r) plus N itself, so under frequent queries the major part is
always available.  If it is not (queries were sparse), the query falls
back to merging every active tree bucket, exactly like the plain tree.  A
repeat query with no update in between returns the entry cached under N.

The query steps live once in `CachedCoresetTree._cached_query`; the
recursive cache inherits them and passes in its own minor part and fallback.
"""

from __future__ import annotations

import numpy as np

from . import radix
from .coreset import Bucket, CoresetConfig, build_coreset
from .tree import CoresetTree


class CachedCoresetTree:
    """Merge-degree-r coreset tree `tree` plus a cache of query summaries
    keyed by the bucket count they cover."""

    query_builds = 0  # query-time reductions
    last_query_width = 0  # buckets merged by the most recent query, 0 on a repeat
    last_query_path: str | None = None

    def __init__(
        self,
        cfg: CoresetConfig,
        r: int = 2,
        seed: int | np.random.SeedSequence | None = None,
    ):
        self.cfg = cfg
        self.r = r
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        self.tree = CoresetTree(cfg, r, rng=rng)
        self.cache: dict[int, Bucket] = {}

    def update(self, bucket: Bucket) -> None:
        """Ingest a bucket; the cache is only touched by queries."""
        self.tree.update(bucket)

    def coreset(self) -> Bucket:
        """Summary of everything ingested, spanning buckets [1, N]."""
        return self._cached_query(self._tree_minor, self.tree.summary, build_coreset)

    @property
    def builds(self) -> int:
        """Total coreset constructions (tree merges plus query reductions)."""
        return self.tree.builds + self.query_builds

    @property
    def n(self) -> int:
        """Number of buckets ingested so far."""
        return self.tree.n_ingested

    def summary(self) -> list[Bucket]:
        return [self.coreset()] if self.n > 0 else []

    def cache_keys(self) -> list[int]:
        return sorted(self.cache)

    def bucket_count(self) -> int:
        return self.tree.bucket_count() + len(self.cache)

    def stored_points(self) -> int:
        return self.tree.stored_points() + sum(b.n_points for b in self.cache.values())

    def _cached_query(self, minor, fallback, reduce) -> Bucket:
        """Summary of buckets [1, N], cached under N with the cache pruned to
        prefixsum(N, r) and N.

        `minor()` gives the summaries of N's minor part, newest last, and
        `fallback()` those of all N buckets; each is called only when the
        query needs it.  `reduce` is the caller's own `build_coreset`, looked
        up in the caller's module, so a tracer of that module sees the call.
        """
        n = self.n
        if n == 0:
            raise ValueError("no buckets ingested yet")
        if n in self.cache:
            # Repeat query with no intervening update: hand back the entry
            # itself, no eviction.
            self.last_query_path, self.last_query_width = "cached", 0
            return self.cache[n]

        n1 = radix.major(n, self.r)
        if n1 == 0:
            path, candidate = "tree-only", minor()
        elif n1 in self.cache:
            path, candidate = "cache-hit", [self.cache[n1]] + minor()
            if candidate[0].span_right + 1 != candidate[1].span_left:
                raise RuntimeError(
                    f"cache entry [{candidate[0].span_left},{candidate[0].span_right}] does "
                    f"not abut the summary [{candidate[1].span_left},{candidate[-1].span_right}]"
                )
        else:
            path, candidate = "fallback", fallback()

        if len(candidate) == 1:
            # Single already-reduced bucket: keep it as-is so the level does
            # not climb on the tree-only path.
            out = candidate[0]
        else:
            out = reduce(self.cfg, candidate, self.tree.rng)
            self.query_builds += 1
        self.cache[n] = out
        for key in set(self.cache) - set(radix.prefixsum(n, self.r)) - {n}:
            del self.cache[key]
        self.last_query_path, self.last_query_width = path, len(candidate)
        return out

    def _tree_minor(self) -> list[Bucket]:
        """The tree buckets covering the minor part of N: its lowest nonempty slot."""
        beta, alpha = radix.lowest(self.n, self.r)
        slot = self.tree.slots[alpha] if alpha < len(self.tree.slots) else []
        if len(slot) != beta:
            raise RuntimeError(
                f"digit invariant violated: slot {alpha} holds {len(slot)} buckets "
                f"{[b.span for b in slot]}, expected {beta}"
            )
        if slot[-1].span_right != self.tree.last_right:
            raise RuntimeError(
                f"slot {alpha} ends at bucket [{slot[-1].span_left},{slot[-1].span_right}], "
                f"not at the last ingested bucket {self.tree.last_right}"
            )
        return list(slot)

