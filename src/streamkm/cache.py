"""Coreset tree with a query-time cache of full-prefix summaries.

Answering a query for all N ingested buckets usually means merging one
cached summary of buckets [1, major(N, r)] with the tree buckets covering
the minor part, touching at most r buckets instead of one bucket per tree
level.  Results are cached under the bucket count N and pruned back to
prefixsum(N, r) plus N itself, so under frequent queries the major part is
always available.  If it is not (queries were sparse), the query falls
back to merging every active tree bucket, exactly like the plain tree.
"""

from __future__ import annotations

import numpy as np

from . import radix
from .coreset import Bucket, CoresetConfig, build_coreset
from .tree import CoresetTree


def join_prefix(prefix: Bucket, rest: list[Bucket]) -> list[Bucket]:
    """[prefix] + rest, once the cached prefix is checked to abut rest exactly."""
    if prefix.span_right + 1 != rest[0].span_left:
        raise RuntimeError(
            f"cache entry [{prefix.span_left},{prefix.span_right}] does not abut "
            f"the summary [{rest[0].span_left},{rest[-1].span_right}]"
        )
    return [prefix] + rest


def store_pruned(cache: dict[int, Bucket], n: int, r: int, out: Bucket) -> None:
    """Cache `out` under n and drop every key outside prefixsum(n, r) and n."""
    cache[n] = out
    allowed = set(radix.prefixsum(n, r))
    allowed.add(n)
    for key in set(cache) - allowed:
        del cache[key]


class CachedCoresetTree:
    """Merge-degree-r coreset tree plus cached query summaries."""

    def __init__(
        self,
        cfg: CoresetConfig,
        r: int = 2,
        seed: int | np.random.SeedSequence | None = None,
    ):
        self.cfg = cfg
        self.r = r
        self._rng = np.random.default_rng(cfg.seed if seed is None else seed)
        self.tree = CoresetTree(cfg, r, rng=self._rng)
        self.cache: dict[int, Bucket] = {}
        self.query_builds = 0
        self.last_query_width = 0  # buckets unioned by the most recent query
        self.last_query_path: str | None = None

    @property
    def n(self) -> int:
        """Number of buckets ingested so far."""
        return self.tree.n_ingested

    def update(self, bucket: Bucket) -> None:
        """Ingest a bucket; the cache is only touched by queries."""
        self.tree.update(bucket)

    def summary(self) -> list[Bucket]:
        return [self.coreset()] if self.n > 0 else []

    def coreset(self) -> Bucket:
        """Summary of everything ingested, spanning buckets [1, N]."""
        n = self.tree.n_ingested
        if n == 0:
            raise ValueError("no buckets ingested yet")
        if n in self.cache:
            # Repeat query with no intervening update: hand back the entry
            # untouched, no eviction.
            self.last_query_width = 0
            self.last_query_path = "cached"
            return self.cache[n].copy()

        n1 = radix.major(n, self.r)
        beta, alpha = radix.lowest(n, self.r)
        if n1 == 0:
            candidate = self._minor_buckets(beta, alpha)
            self.last_query_path = "tree-only"
        elif n1 in self.cache:
            candidate = join_prefix(self.cache[n1], self._minor_buckets(beta, alpha))
            self.last_query_path = "cache-hit"
        else:
            candidate = self.tree.coreset_buckets()
            self.last_query_path = "fallback"
        self.last_query_width = len(candidate)

        if len(candidate) == 1:
            # Single already-reduced bucket: keep it as-is so the level does
            # not climb on the tree-only path.
            out = candidate[0].copy()
        else:
            out = build_coreset(self.cfg, candidate, self._rng)
            self.query_builds += 1
        store_pruned(self.cache, n, self.r, out)
        return out.copy()

    def _minor_buckets(self, beta: int, alpha: int) -> list[Bucket]:
        """The beta slot-alpha tree buckets covering the minor part of N."""
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

    def cache_keys(self) -> list[int]:
        return sorted(self.cache)

    @property
    def builds(self) -> int:
        """Total coreset constructions (tree merges plus query reductions)."""
        return self.tree.builds + self.query_builds

    def bucket_count(self) -> int:
        return self.tree.bucket_count() + len(self.cache)

    def stored_points(self) -> int:
        return self.tree.stored_points() + sum(b.n_points for b in self.cache.values())
