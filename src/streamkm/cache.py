"""Coreset tree with a query-time cache of full-prefix summaries.

Answering a query for all N ingested buckets usually means merging one
cached summary of buckets [1, major(N, r)] with the tree buckets covering
the minor part, touching at most r buckets instead of one bucket per tree
level.  Results are cached under the bucket count N and pruned back to
prefixsum(N, r) plus N itself, so under frequent queries the major part is
always available.  If it is not (queries were sparse), the query falls
back to merging every active tree bucket, exactly like the plain tree.  A
repeat query with no update in between returns the entry cached under N.

A later query reads an entry only as its major part, a multiple of r, so
`summary()` (the driver's entry point) hands back the unreduced candidate at
any other count; `coreset()` always reduces and caches.  The query steps live
once in `CachedCoresetTree`: `_candidate` picks the buckets a query merges and
`_cached_query` reduces and caches them.  The recursive cache inherits both
and supplies its own minor part and fallback.
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
    query_skips = 0  # summary() answers left unreduced that would have reduced 2+ buckets
    last_query_width = 0  # buckets merged by the most recent query, 0 on a repeat
    last_query_path: str | None = None
    _skipped = 0  # the count summary() last answered unreduced
    _caches_all = False  # a caller repeated a query at a skipped count

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
        return self._cached_query(build_coreset)

    @property
    def builds(self) -> int:
        """Total coreset constructions (tree merges plus query reductions)."""
        return self.tree.builds + self.query_builds

    @property
    def n(self) -> int:
        """Number of buckets ingested so far."""
        return self.tree.n_ingested

    def summary(self) -> list[Bucket]:
        """Buckets tiling [1, N] in span order; empty before any ingest.

        `[coreset()]` at a count r divides.  At any other N, the candidate
        `coreset()` would reduce, unreduced and not stored (the cache is
        pruned all the same); a repeat gets the same buckets.  Only a repeat
        could read an entry under such an N, so after the first one every
        query goes through `coreset()`.
        """
        n = self.n
        if n == 0:
            return []
        repeat = n == self._skipped
        if not repeat and (self._caches_all or n % self.r == 0):
            return [self.coreset()]
        candidate = self._candidate()
        if repeat:
            self._caches_all = True
        elif len(candidate) > 1:
            self.query_skips += 1
        self._skipped = n
        return candidate

    def cache_keys(self) -> list[int]:
        return sorted(self.cache)

    def bucket_count(self) -> int:
        return self.tree.bucket_count() + len(self.cache)

    def stored_points(self) -> int:
        return self.tree.stored_points() + sum(b.n_points for b in self.cache.values())

    def _candidate(self) -> list[Bucket]:
        """The buckets a query at N merges; sets last_query_path and last_query_width.

        A repeat gets the entry cached under N and merges nothing.  Otherwise
        the candidate is the entry under major(N) followed by `_minor()`, or
        `_minor()` alone when major(N) is 0, or `_fallback()` when that entry
        is not cached; each source is called only when the query needs it.
        The cache is then pruned to prefixsum(N, r) and N: no later query
        reads a key outside them.
        """
        n = self.n
        if n == 0:
            raise ValueError("no buckets ingested yet")
        if n in self.cache:
            self.last_query_path, self.last_query_width = "cached", 0
            return [self.cache[n]]

        n1 = radix.major(n, self.r)
        if n1 == 0:
            path, candidate = "tree-only", self._minor()
        elif n1 in self.cache:
            path, candidate = "cache-hit", [self.cache[n1]] + self._minor()
            if candidate[0].span_right + 1 != candidate[1].span_left:
                raise RuntimeError(
                    f"cache entry [{candidate[0].span_left},{candidate[0].span_right}] does "
                    f"not abut the summary [{candidate[1].span_left},{candidate[-1].span_right}]"
                )
        else:
            path, candidate = "fallback", self._fallback()
        for key in set(self.cache) - set(radix.prefixsum(n, self.r)) - {n}:
            del self.cache[key]
        self.last_query_path, self.last_query_width = path, len(candidate)
        return candidate

    def _cached_query(self, reduce) -> Bucket:
        """Summary of buckets [1, N], cached under N.

        `reduce` is the caller's own `build_coreset`, looked up in the
        caller's module, so a tracer of that module sees the call.
        """
        candidate = self._candidate()
        if len(candidate) == 1:
            # A repeat's entry, or a single already-reduced bucket: keep it
            # as-is so the level does not climb on the tree-only path.
            out = candidate[0]
        else:
            out = reduce(self.cfg, candidate, self.tree.rng)
            self.query_builds += 1
        self.cache[self.n] = out
        return out

    def _minor(self) -> list[Bucket]:
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

    def _fallback(self) -> list[Bucket]:
        """Summaries of all N buckets in span order: every active tree bucket."""
        return self.tree.summary()
