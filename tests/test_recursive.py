import numpy as np
import pytest

from streamkm import (
    Bucket,
    CachedCoresetTree,
    CoresetConfig,
    RecursiveCachedTree,
    order_for_horizon,
)
from streamkm.radix import prefixsum


def base_bucket(rng, i, n=4, d=2):
    return Bucket(rng.normal(size=(n, d)), np.ones(n), i, i, 0)


class TestInit:
    def test_merge_degrees(self):
        cfg = CoresetConfig(k=2, m=8)
        assert RecursiveCachedTree(cfg, 0).r == 2
        assert RecursiveCachedTree(cfg, 1).r == 4
        assert RecursiveCachedTree(cfg, 2).r == 16
        assert RecursiveCachedTree(cfg, 3).r == 256

    def test_order_bounds(self):
        cfg = CoresetConfig(k=2, m=8)
        with pytest.raises(ValueError):
            RecursiveCachedTree(cfg, -1)
        with pytest.raises(ValueError):
            RecursiveCachedTree(cfg, 7)

    def test_order_for_horizon(self):
        # degrees should track sqrt(horizon): 65536 buckets -> r = 256
        assert order_for_horizon(65536) == 3
        assert order_for_horizon(256) == 2
        assert order_for_horizon(4) == 0
        with pytest.raises(ValueError):
            order_for_horizon(0)


class TestUpdate:
    def test_carry_at_exactly_r(self):
        cfg = CoresetConfig(k=2, m=32, seed=0)
        node = RecursiveCachedTree(cfg, 1)  # r = 4
        rng = np.random.default_rng(1)
        for i in range(1, 5):
            node.update(base_bucket(rng, i))
        assert node.level_counts() == [0, 1]
        assert node.tree.slots[1][0].span == (1, 4)
        # child at level 0 was dropped on the flush
        assert 0 not in node.children

    @pytest.mark.parametrize("order", [1, 2])
    def test_child_mirrors_list(self, order):
        cfg = CoresetConfig(k=2, m=16, seed=1)
        node = RecursiveCachedTree(cfg, order)
        rng = np.random.default_rng(order)
        for i in range(1, 301):
            node.update(base_bucket(rng, i))
            for lvl, lst in enumerate(node.tree.slots):
                child = node.children.get(lvl)
                if not lst:
                    assert child is None or child.n == 0
                    continue
                assert child is not None and child.n == len(lst)
                # the child ingested exactly the buckets currently listed
                assert lst[0].span_left <= lst[-1].span_right

    def test_query_every_bucket_span_weight(self):
        cfg = CoresetConfig(k=2, m=16, seed=2)
        node = RecursiveCachedTree(cfg, 2)
        rng = np.random.default_rng(3)
        for i in range(1, 120):
            node.update(base_bucket(rng, i))
            out = node.coreset()
            assert out.span == (1, i)
            assert out.total_weight() == pytest.approx(4.0 * i, rel=1e-9)


class TestQuery:
    def test_empty_error(self):
        with pytest.raises(ValueError):
            RecursiveCachedTree(CoresetConfig(k=2, m=8), 1).coreset()

    def test_single_bucket_passthrough(self):
        cfg = CoresetConfig(k=2, m=32, seed=3)
        node = RecursiveCachedTree(cfg, 1)
        rng = np.random.default_rng(4)
        b = base_bucket(rng, 1)
        node.update(b)
        out = node.coreset()
        assert np.array_equal(out.points, b.points)
        assert out.level == 0

    def test_trace_order1_n6(self):
        # r=4: major(6,4)=4 is cached, so the query merges the cached [1,4]
        # summary with the order-0 child's coreset of buckets 5..6
        cfg = CoresetConfig(k=2, m=16, seed=4)
        node = RecursiveCachedTree(cfg, 1)
        rng = np.random.default_rng(5)
        for i in range(1, 7):
            node.update(base_bucket(rng, i))
            out = node.coreset()
        assert out.span == (1, 6)
        assert sorted(node.cache_keys()) == [4, 6]
        assert node.last_query_merge_count <= 2 * (1 + 1)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_merge_count_bound(self, order):
        cfg = CoresetConfig(k=2, m=8, seed=5)
        node = RecursiveCachedTree(cfg, order)
        rng = np.random.default_rng(6)
        for i in range(1, 260):
            node.update(base_bucket(rng, i))
            node.coreset()
            assert node.last_query_merge_count <= 2 * (order + 1)

    def test_cache_eviction_matches_prefixsum(self):
        cfg = CoresetConfig(k=2, m=8, seed=6)
        node = RecursiveCachedTree(cfg, 1)
        rng = np.random.default_rng(7)
        for i in range(1, 80):
            node.update(base_bucket(rng, i))
            node.coreset()
            assert set(node.cache_keys()) == set(prefixsum(i, 4)) | {i}


class TestOrderZeroEquivalence:
    def test_matches_degree2_cache_bucket_for_bucket(self):
        cfg = CoresetConfig(k=2, m=10, seed=7)
        rcc = RecursiveCachedTree(cfg, 0)
        cc = CachedCoresetTree(cfg, r=2)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        for i in range(1, 200):
            pts = rng_a.normal(size=(4, 2))
            rcc.update(Bucket(pts, np.ones(4), i, i, 0))
            cc.update(Bucket(rng_b.normal(size=(4, 2)), np.ones(4), i, i, 0))
            a, b = rcc.coreset(), cc.coreset()
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)
            assert (a.span, a.level) == (b.span, b.level)

    def test_order2_query_runs_cc_coreset_at_order0_nodes(self, monkeypatch):
        entered = []
        original = CachedCoresetTree.coreset

        def counting(self):
            entered.append(self)
            return original(self)

        monkeypatch.setattr(CachedCoresetTree, "coreset", counting)
        node = RecursiveCachedTree(CoresetConfig(k=2, m=8, seed=10), 2)
        rng = np.random.default_rng(11)
        for i in range(1, 40):
            node.update(base_bucket(rng, i))
            entered.clear()
            node.coreset()
            assert entered, f"the query at N={i} never entered CachedCoresetTree.coreset"
            assert all(type(n) is RecursiveCachedTree and n.order == 0 for n in entered)


class TestMemory:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_child_regime_bucket_bound(self, order):
        # within its designed ingest budget (r^2 buckets, the most a child
        # ever sees), a node keeps at most 6 * r buckets including children
        cfg = CoresetConfig(k=2, m=8, seed=8)
        node = RecursiveCachedTree(cfg, order)
        rng = np.random.default_rng(9)
        budget = min(node.r**2 - 1, 2000)
        for i in range(1, budget + 1):
            node.update(base_bucket(rng, i))
            assert node.bucket_count() <= 6 * node.r

    def test_stored_points_counts_everything(self):
        cfg = CoresetConfig(k=2, m=8, seed=9)
        node = RecursiveCachedTree(cfg, 1)
        rng = np.random.default_rng(10)
        for i in range(1, 30):
            node.update(base_bucket(rng, i))
        node.coreset()
        assert node.stored_points() > 0
        assert node.bucket_count() > 0
