"""Invariants of the cached structures under random query schedules.

Each example streams unit-weight buckets and queries a drawn number of
times (0, 1 or 2) after each one.  Every answer must carry exactly the
ingested weight and span [1, N], and the cache may only hold keys in
prefixsum(N) plus N.  For the recursive cache, after every update each
nonempty level of a node has a child holding exactly that level's buckets,
and no other child exists.  Through the driver, for every structure and the
online clusterer, the weight an answer carries is the number of points
pushed, however the stream is split between pushes and queries.  A
query with no update since the last one returns that answer's bytes and
reduces nothing, for `cc` and for `rcc` at every order.  Through
`summary()` those structures take the path a twin asked `coreset()` takes,
and a repeat returns the same bytes.  Every bucket a structure holds or
answers with refuses writes, so sharing one between a tree, a cache and a
child cannot leak an edit.
"""

from contextlib import ExitStack
from dataclasses import FrozenInstanceError
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamkm import (
    Bucket,
    CachedCoresetTree,
    CoresetConfig,
    CoresetTree,
    OnlineClusterer,
    RecursiveCachedTree,
    StreamClusterer,
)
from streamkm import cache, recursive, tree
from streamkm.radix import prefixsum

POINTS_PER_BUCKET = 3


def schedules(max_buckets):
    """Queries made after each bucket, for a drawn stream length."""
    return st.integers(1, max_buckets).flatmap(
        lambda n: st.lists(st.integers(0, 2), min_size=n, max_size=n)
    )


def run(structure, queries, seed, after_update=lambda: None):
    data = np.random.default_rng(seed)
    for n, count in enumerate(queries, 1):
        pts = data.normal(size=(POINTS_PER_BUCKET, 2))
        structure.update(Bucket(pts, np.ones(POINTS_PER_BUCKET), n, n, 0))
        after_update()
        for _ in range(count):
            out = structure.coreset()
            assert out.span == (1, n)
            assert out.total_weight() == pytest.approx(POINTS_PER_BUCKET * n, rel=1e-12)
            assert set(structure.cache_keys()) <= set(prefixsum(n, structure.r)) | {n}


def assert_children_mirror_levels(node):
    levels = {j: len(slot) for j, slot in enumerate(node.tree.slots) if slot}
    assert {j: child.n for j, child in node.children.items()} == (levels if node.order else {})
    for child in node.children.values():
        assert_children_mirror_levels(child)


@pytest.mark.parametrize("r", [2, 3, 5])
@given(queries=schedules(120), seed=st.integers(0, 2**16))
def test_cc_invariants(r, queries, seed):
    run(CachedCoresetTree(CoresetConfig(k=2, m=4, seed=seed), r=r), queries, seed)


@pytest.mark.parametrize("order", [0, 1, 2])
@given(queries=schedules(300), seed=st.integers(0, 2**16))
def test_rcc_invariants(order, queries, seed):
    node = RecursiveCachedTree(CoresetConfig(k=2, m=4, seed=seed), order)
    run(node, queries, seed, lambda: assert_children_mirror_levels(node))


# name -> (structure, attribute that reads 0 when a query merged nothing)
REPEATABLE = {
    **{f"cc/r{r}": (lambda cfg, r=r: CachedCoresetTree(cfg, r=r), "last_query_width")
       for r in (2, 3, 5)},
    **{f"rcc/order{o}": (lambda cfg, o=o: RecursiveCachedTree(cfg, o), "last_query_merge_count")
       for o in range(4)},
}


@pytest.mark.parametrize("name", sorted(REPEATABLE))
@given(queries=schedules(300), seed=st.integers(0, 2**16))
def test_repeat_query_returns_the_cached_answer(name, queries, seed):
    make, merged = REPEATABLE[name]
    structure = make(CoresetConfig(k=2, m=4, seed=seed))
    data = np.random.default_rng(seed)
    with ExitStack() as stack:
        reductions = [
            stack.enter_context(patch.object(mod, "build_coreset", wraps=mod.build_coreset))
            for mod in (tree, cache, recursive)
        ]
        for n, count in enumerate(queries, 1):
            pts = data.normal(size=(POINTS_PER_BUCKET, 2))
            structure.update(Bucket(pts, np.ones(POINTS_PER_BUCKET), n, n, 0))
            first = structure.coreset() if count else None
            for _ in range(count - 1):
                calls, keys = sum(m.call_count for m in reductions), structure.cache_keys()
                again = structure.coreset()
                assert sum(m.call_count for m in reductions) == calls
                assert getattr(structure, merged) == 0
                assert structure.cache_keys() == keys
                assert again.points.tobytes() == first.points.tobytes()
                assert again.weights.tobytes() == first.weights.tobytes()
                assert (again.span, again.level) == (first.span, first.level)


def pool_bytes(buckets):
    return [(b.points.tobytes(), b.weights.tobytes(), b.span, b.level) for b in buckets]


@pytest.mark.parametrize("name", sorted(REPEATABLE))
@given(queries=schedules(200), seed=st.integers(0, 2**16))
def test_summary_skips_only_reductions_no_later_query_reads(name, queries, seed):
    # A twin asked coreset() at the same counts caches every answer.  The
    # first query at each count must take the twin's path, so a skipped
    # entry never turns a later cache hit into a fallback, and the twin's
    # every reduction is either made or counted as skipped.
    make, _ = REPEATABLE[name]
    cfg = CoresetConfig(k=2, m=4, seed=seed)
    structure, twin = make(cfg), make(cfg)
    data = np.random.default_rng(seed)
    for n, count in enumerate(queries, 1):
        pts = data.normal(size=(POINTS_PER_BUCKET, 2))
        for s in (structure, twin):
            s.update(Bucket(pts, np.ones(POINTS_PER_BUCKET), n, n, 0))
        first = None
        for _ in range(count):
            parts = structure.summary()
            assert [b.span_left for b in parts] == [1] + [b.span_right + 1 for b in parts[:-1]]
            assert parts[-1].span_right == n
            assert sum(b.total_weight() for b in parts) == pytest.approx(
                POINTS_PER_BUCKET * n, rel=1e-12
            )
            assert set(structure.cache_keys()) <= set(prefixsum(n, structure.r)) | {n}
            if first is not None:
                assert pool_bytes(parts) == first
                continue
            first = pool_bytes(parts)
            twin.coreset()
            assert structure.last_query_path == twin.last_query_path
            assert structure.last_query_width == twin.last_query_width
            assert getattr(structure, "last_query_merge_count", None) == getattr(
                twin, "last_query_merge_count", None
            )
            assert structure.query_builds + structure.query_skips == twin.query_builds


DRIVEN = {
    "ct": lambda cfg: CoresetTree(cfg, 2, rng=np.random.default_rng(cfg.seed)),
    "cc": lambda cfg: CachedCoresetTree(cfg, 2, seed=cfg.seed),
    "rcc": lambda cfg: RecursiveCachedTree(cfg, 1, seed=cfg.seed),
}


SHARING = {
    "ct": DRIVEN["ct"],
    "cc": DRIVEN["cc"],
    **{f"rcc/order{o}": (lambda cfg, o=o: RecursiveCachedTree(cfg, o, seed=cfg.seed))
       for o in range(3)},
}


def held_buckets(structure):
    """The buckets a structure holds, found without querying it: a tree's
    summary, a cache's tree and entries, and every `rcc` child's."""
    if isinstance(structure, CoresetTree):
        return structure.summary()
    held = structure.tree.summary() + list(structure.cache.values())
    for child in getattr(structure, "children", {}).values():
        held += held_buckets(child)
    return held


def assert_read_only(bucket):
    for array in (bucket.points, bucket.weights):
        with pytest.raises(ValueError):
            array[...] = 0.0
    with pytest.raises(FrozenInstanceError):
        bucket.points = bucket.points.copy()
    with pytest.raises(FrozenInstanceError):
        bucket.level = 0


@pytest.mark.parametrize("name", sorted(SHARING))
@given(queries=schedules(120), seed=st.integers(0, 2**16))
def test_buckets_are_read_only(name, queries, seed):
    structure = SHARING[name](CoresetConfig(k=2, m=4, seed=seed))
    data = np.random.default_rng(seed)
    for n, count in enumerate(queries, 1):
        pts = data.normal(size=(POINTS_PER_BUCKET, 2))
        structure.update(Bucket(pts, np.ones(POINTS_PER_BUCKET), n, n, 0))
        for bucket in held_buckets(structure):
            assert_read_only(bucket)
        for _ in range(count):
            for bucket in structure.summary() + held_buckets(structure):
                assert_read_only(bucket)


@pytest.mark.parametrize("algo", ["ct", "cc", "rcc", "online"])
@given(pushes=st.lists(st.integers(0, 40), min_size=1, max_size=10), seed=st.integers(0, 2**16))
def test_driver_weight_equals_points_seen(algo, pushes, seed):
    cfg = CoresetConfig(k=2, m=4, seed=seed)
    if algo == "online":
        impl = OnlineClusterer(cfg, refine_runs=1, lloyd_iters=2)
        push, driver, first_query = impl.push, impl.driver, impl.warmup
    else:
        impl = driver = StreamClusterer(DRIVEN[algo](cfg), cfg, runs=1, lloyd_iters=2)
        push, first_query = impl.push, 1
    data = np.random.default_rng(seed)
    total = 0
    for count in pushes:
        for p in data.normal(size=(count, 2)):
            push(p)
        total += count
        if total >= first_query:
            assert driver.points_seen == total
            assert impl.query().weights.sum() == pytest.approx(total, rel=1e-12)
