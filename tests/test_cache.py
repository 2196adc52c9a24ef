import math

import numpy as np
import pytest

from streamkm import Bucket, CachedCoresetTree, CoresetConfig, CoresetTree, RecursiveCachedTree
from streamkm.radix import decompose, prefixsum


def base_bucket(rng, i, n=6, d=2):
    return Bucket(rng.normal(size=(n, d)), np.ones(n), i, i, 0)


def nonzero_digits(n, r):
    return len(decompose(n, r))


class TestQueryPaths:
    def setup_method(self):
        self.cfg = CoresetConfig(k=2, m=12, seed=0)

    def test_update_leaves_cache_alone(self):
        cc = CachedCoresetTree(self.cfg, r=2)
        rng = np.random.default_rng(1)
        cc.update(base_bucket(rng, 1))
        cc.coreset()
        keys_before = cc.cache_keys()
        cc.update(base_bucket(rng, 2))
        assert cc.cache_keys() == keys_before
        assert cc.n == 2

    def test_r2_trace_levels(self):
        # query-every-bucket, r=2: at N=3 the answer merges the cached
        # level-1 summary of [1,2] with the raw bucket [3,3] -> level 2
        cc = CachedCoresetTree(self.cfg, r=2)
        rng = np.random.default_rng(2)
        cc.update(base_bucket(rng, 1))
        assert cc.coreset().level == 0
        cc.update(base_bucket(rng, 2))
        b2 = cc.coreset()
        assert (b2.level, b2.span) == (1, (1, 2))
        cc.update(base_bucket(rng, 3))
        b3 = cc.coreset()
        assert (b3.level, b3.span) == (2, (1, 3))
        assert cc.last_query_path == "cache-hit"
        assert cc.last_query_width == 2

    def test_single_term_count_uses_tree_only(self):
        cc = CachedCoresetTree(self.cfg, r=3)
        rng = np.random.default_rng(3)
        for i in (1, 2):
            cc.update(base_bucket(rng, i))
        out = cc.coreset()  # N=2 = 2*3^0, major 0
        assert cc.last_query_path == "tree-only"
        assert out.span == (1, 2)
        assert cc.cache_keys() == [2]

    def test_worked_example_cache_keys_47(self):
        cc = CachedCoresetTree(self.cfg, r=3)
        rng = np.random.default_rng(4)
        for i in range(1, 48):
            cc.update(base_bucket(rng, i))
            cc.coreset()
        assert cc.cache_keys() == [27, 45, 47]

    def test_repeat_query_returns_cached_untouched(self):
        cc = CachedCoresetTree(self.cfg, r=2)
        rng = np.random.default_rng(5)
        for i in (1, 2, 3):
            cc.update(base_bucket(rng, i))
        a = cc.coreset()
        builds = cc.builds
        b = cc.coreset()  # same N, no update in between
        assert cc.last_query_path == "cached"
        assert cc.builds == builds
        assert np.array_equal(a.points, b.points)
        # the answer is read-only, so writing to it cannot corrupt the cache
        with pytest.raises(ValueError):
            b.points[0, 0] = 1e9
        assert cc.coreset().points.tobytes() == a.points.tobytes()

    def test_query_empty_error(self):
        with pytest.raises(ValueError):
            CachedCoresetTree(self.cfg, r=2).coreset()


class TestCacheDiscipline:
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_query_every_bucket_invariants(self, r):
        cfg = CoresetConfig(k=2, m=10, seed=1)
        cc = CachedCoresetTree(cfg, r=r)
        rng = np.random.default_rng(r)
        n_max = 300
        for i in range(1, n_max + 1):
            # before bucket i arrives, its prefix sums must be cached
            assert set(prefixsum(i, r)) <= set(cc.cache_keys())
            cc.update(base_bucket(rng, i, n=4))
            out = cc.coreset()
            assert out.span == (1, i)
            assert out.total_weight() == pytest.approx(4.0 * i, rel=1e-9)
            # cache pruned to prefixsum(i) plus i itself
            assert set(cc.cache_keys()) == set(prefixsum(i, r)) | {i}
            assert len(cc.cache_keys()) <= math.ceil(math.log(max(i, 2), r)) + 1
            # a query merges at most r buckets when the cache is warm
            assert cc.last_query_width <= r
            assert cc.last_query_path in ("tree-only", "cache-hit")
            # level bound: ceil(log_r i) + nonzero-digit count - 1, and the
            # weaker 2*ceil(log_r i) - 1 corollary away from the i=1 edge
            sharp = math.ceil(math.log(i, r) - 1e-9) + nonzero_digits(i, r) - 1
            assert out.level <= sharp
            if i >= 2:
                assert out.level <= 2 * math.ceil(math.log(i, r) - 1e-9) - 1

    def test_fallback_degrades_to_plain_tree(self):
        cfg = CoresetConfig(k=2, m=10, seed=2)
        cc = CachedCoresetTree(cfg, r=2)
        rng = np.random.default_rng(9)
        for i in range(1, 12):
            cc.update(base_bucket(rng, i, n=4))
        cc.cache.clear()  # simulate a cold cache
        out = cc.coreset()
        assert cc.last_query_path == "fallback"
        assert cc.last_query_width == len(cc.tree.summary())
        assert out.span == (1, 11)
        assert out.total_weight() == pytest.approx(44.0, rel=1e-9)
        # fallback result still warms the cache for the next query
        assert 11 in cc.cache_keys()

    def test_sparse_queries_still_answer_full_span(self):
        cfg = CoresetConfig(k=2, m=10, seed=3)
        cc = CachedCoresetTree(cfg, r=3)
        rng = np.random.default_rng(10)
        for i in range(1, 101):
            cc.update(base_bucket(rng, i, n=4))
            if i % 17 == 0:
                out = cc.coreset()
                assert out.span == (1, i)
                assert out.total_weight() == pytest.approx(4.0 * i, rel=1e-9)


class TestDeterminism:
    def test_same_seed_same_stream_same_answers(self):
        cfg = CoresetConfig(k=2, m=10, seed=4)
        outs = []
        for _ in range(2):
            cc = CachedCoresetTree(cfg, r=2)
            rng = np.random.default_rng(11)
            acc = []
            for i in range(1, 33):
                cc.update(base_bucket(rng, i, n=4))
                acc.append(cc.coreset())
            outs.append(acc)
        for a, b in zip(*outs):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)
            assert a.level == b.level


class TestSkippedReductions:
    """summary() at a count r does not divide leaves the candidate unreduced."""

    def setup_method(self):
        self.cfg = CoresetConfig(k=2, m=12, seed=6)

    def test_query_every_bucket_r2(self):
        cc = CachedCoresetTree(self.cfg, r=2)
        rng = np.random.default_rng(6)
        for i in range(1, 65):
            cc.update(base_bucket(rng, i))
            parts = cc.summary()
            # an odd count above 1 gets the entry under i - 1 and bucket i
            assert len(parts) == (2 if i % 2 and i > 1 else 1)
            assert (i in cc.cache_keys()) == (i % 2 == 0)
        # every even count reduces but the powers of two, which are tree-only
        assert (cc.query_builds, cc.query_skips) == (26, 31)

    def test_repeat_at_a_skipped_count_caches_every_later_answer(self):
        cc = CachedCoresetTree(self.cfg, r=2)
        rng = np.random.default_rng(7)
        for i in range(1, 65):
            cc.update(base_bucket(rng, i))
            parts = cc.summary()
            if i == 33:
                builds, skips = cc.query_builds, cc.query_skips
                assert all(a is b for a, b in zip(cc.summary(), parts, strict=True))
                assert (cc.query_builds, cc.query_skips) == (builds, skips)
                assert 33 not in cc.cache_keys()
            elif i > 33:
                assert len(parts) == 1 and i in cc.cache_keys()
        # 11 reductions below 33, then every count but 64 (tree-only)
        assert (cc.query_builds, cc.query_skips) == (11 + 30, 16)


def test_structure_matches_plain_tree_when_cache_disabled_every_query():
    # with the cache emptied before each query, the candidate set equals the
    # plain tree's active buckets, so CC degrades to CT and never worse
    cfg = CoresetConfig(k=2, m=10, seed=5)
    cc = CachedCoresetTree(cfg, r=2)
    ct = CoresetTree(cfg, r=2, rng=np.random.default_rng(cfg.seed))
    rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
    for i in range(1, 40):
        pts_a = rng_a.normal(size=(4, 2))
        pts_b = rng_b.normal(size=(4, 2))
        cc.update(Bucket(pts_a, np.ones(4), i, i, 0))
        ct.update(Bucket(pts_b, np.ones(4), i, i, 0))
        cc.cache.clear()
        cc.coreset()
        assert cc.last_query_width == len(ct.summary())


def _respan(b, left, right):
    return Bucket(b.points, b.weights, left, right, b.level)


def _extra_slot_bucket(s):
    s.tree.slots[1].append(s.tree.slots[1][0])


def _short_slot_bucket(s):
    s.tree.slots[1][0] = _respan(s.tree.slots[1][0], 5, 5)


def _gapped_cache_entry(s):
    s.cache[4] = _respan(s.cache[4], 1, 3)


@pytest.mark.parametrize(
    "make, corrupt, match",
    [
        (lambda cfg: CachedCoresetTree(cfg, r=2), _extra_slot_bucket, "digit invariant"),
        (lambda cfg: CachedCoresetTree(cfg, r=2), _short_slot_bucket, "last ingested"),
        (lambda cfg: CachedCoresetTree(cfg, r=2), _gapped_cache_entry, "does not abut"),
        (lambda cfg: RecursiveCachedTree(cfg, 1), _gapped_cache_entry, "does not abut"),
    ],
    ids=["digit", "last-right", "cc-abut", "rcc-abut"],
)
def test_corrupted_structure_raises(make, corrupt, match):
    # Six buckets queried one by one leave major(6) = 4 cached, with buckets
    # 5-6 in the tree (slot 1 for r=2, the order-0 child for rcc).  The
    # checks must be raised errors, so they also hold under python -O.
    s = make(CoresetConfig(k=2, m=8, seed=13))
    rng = np.random.default_rng(13)
    for i in range(1, 7):
        s.update(base_bucket(rng, i, n=4))
        s.coreset()
    assert 4 in s.cache
    del s.cache[6]
    corrupt(s)
    with pytest.raises(RuntimeError, match=match):
        s.coreset()
