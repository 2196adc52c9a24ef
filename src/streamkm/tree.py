"""The r-way merging coreset tree.

Slot j holds summaries of r**j consecutive ingested buckets.  Ingesting a
bucket works like incrementing a base-r counter: the bucket lands in slot
0, and any slot that fills up to r buckets is reduced into a single bucket
carried into the next slot.  After N ingests, slot i holds exactly the
i-th base-r digit of N.

Ingested buckets are usually level-0 base buckets (then slot index equals
coreset level), but the tree also accepts pre-reduced buckets of any level
as long as spans stay contiguous; nested structures rely on that.
"""

from __future__ import annotations

import numpy as np

from .coreset import Bucket, CoresetConfig, build_coreset


class CoresetTree:
    """Streaming merge-and-reduce tree with configurable merge degree."""

    def __init__(self, cfg: CoresetConfig, r: int = 2, rng: np.random.Generator | None = None):
        if r < 2:
            raise ValueError(f"merge degree r must be >= 2, got {r}")
        self.cfg = cfg
        self.r = r
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.slots: list[list[Bucket]] = []
        self.n_ingested = 0
        self.last_right: int | None = None
        self.builds = 0  # build_coreset invocations, for amortized-work checks

    def update(self, bucket: Bucket) -> None:
        """Ingest the next bucket and restore the digit invariant.

        The carry runs on local lists and commits only once every merge has
        succeeded, so a merge that raises leaves the tree as it was.
        """
        if self.last_right is not None and bucket.span_left != self.last_right + 1:
            raise ValueError(
                f"non-sequential bucket: expected span starting at "
                f"{self.last_right + 1}, got {bucket.span_left}"
            )
        j, slot = 0, (self.slots[0] if self.slots else []) + [bucket]
        while len(slot) >= self.r:
            carry = build_coreset(self.cfg, slot, self.rng)
            j += 1
            slot = (self.slots[j] if j < len(self.slots) else []) + [carry]
        self.slots[:j] = [[] for _ in range(j)]
        if j == len(self.slots):
            self.slots.append([])
        self.slots[j] = slot
        self.builds += j
        self.n_ingested += 1
        self.last_right = bucket.span_right

    def summary(self) -> list[Bucket]:
        """All active buckets in span order (oldest stream segment first)."""
        out: list[Bucket] = []
        for slot in reversed(self.slots):
            out.extend(slot)
        return out

    def max_level(self) -> int:
        """Highest nonempty slot index."""
        if self.n_ingested == 0:
            raise ValueError("empty tree has no levels")
        return max(j for j, slot in enumerate(self.slots) if slot)

    def level_counts(self) -> list[int]:
        return [len(slot) for slot in self.slots]

    def bucket_count(self) -> int:
        return sum(len(slot) for slot in self.slots)

    def stored_points(self) -> int:
        return sum(b.n_points for slot in self.slots for b in slot)

    def total_weight(self) -> float:
        return float(sum(b.total_weight() for b in self.summary()))
