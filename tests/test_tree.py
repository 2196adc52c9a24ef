import math

import numpy as np
import pytest

from streamkm import Bucket, CoresetConfig, CoresetTree


def feed(tree, count, rng, n=8, d=2, start=1):
    for i in range(start, start + count):
        tree.update(Bucket(rng.normal(size=(n, d)), np.ones(n), i, i, 0))


def base_r_digits(n, r):
    out = []
    while n:
        n, digit = divmod(n, r)
        out.append(digit)
    return out


class TestTraces:
    """States after specific bucket counts for a 3-way tree."""

    def setup_method(self):
        self.cfg = CoresetConfig(k=2, m=8, seed=1)
        self.rng = np.random.default_rng(0)

    def test_after_4(self):
        t = CoresetTree(self.cfg, r=3)
        feed(t, 4, self.rng)
        assert [b.span for b in t.summary()] == [(1, 3), (4, 4)]
        assert [b.level for b in t.summary()] == [1, 0]

    def test_after_6(self):
        t = CoresetTree(self.cfg, r=3)
        feed(t, 6, self.rng)
        assert [b.span for b in t.summary()] == [(1, 3), (4, 6)]
        assert t.level_counts()[0] == 0

    def test_after_9(self):
        t = CoresetTree(self.cfg, r=3)
        feed(t, 9, self.rng)
        buckets = t.summary()
        assert len(buckets) == 1
        assert buckets[0].span == (1, 9)
        assert t.max_level() == 2

    def test_empty_coreset(self):
        t = CoresetTree(self.cfg, r=3)
        assert t.summary() == []
        with pytest.raises(ValueError):
            t.max_level()


class TestInvariants:
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_digit_invariant_and_bounds(self, r):
        cfg = CoresetConfig(k=2, m=8, seed=2)
        rng = np.random.default_rng(r)
        t = CoresetTree(cfg, r=r)
        for i in range(1, 401):
            t.update(Bucket(rng.normal(size=(6, 2)), np.ones(6), i, i, 0))
            digits = base_r_digits(i, r)
            counts = t.level_counts()
            assert counts[: len(digits)] == digits
            assert all(c == 0 for c in counts[len(digits) :])
            assert t.max_level() <= int(math.log(i, r) + 1e-9)
            # spans partition [1, i]
            spans = [b.span for b in t.summary()]
            assert spans[0][0] == 1 and spans[-1][1] == i
            assert all(b[0] == a[1] + 1 for a, b in zip(spans, spans[1:]))
            # slot j summarizes r**j buckets and levels match slots here
            for j, slot in enumerate(t.slots):
                for b in slot:
                    assert b.span_right - b.span_left + 1 == r**j
                    assert b.level == j

    def test_max_level_digit_oracle_r2(self):
        cfg = CoresetConfig(k=2, m=4, seed=3)
        t = CoresetTree(cfg, r=2)
        feed(t, 7, np.random.default_rng(5), n=4)
        assert t.max_level() == 2  # 7 = (111)_2

    def test_weight_conservation(self):
        cfg = CoresetConfig(k=2, m=8, seed=4)
        rng = np.random.default_rng(6)
        t = CoresetTree(cfg, r=3)
        total = 0.0
        for i in range(1, 101):
            w = rng.uniform(0.5, 2.0, 6)
            total += w.sum()
            t.update(Bucket(rng.normal(size=(6, 2)), w, i, i, 0))
            assert t.total_weight() == pytest.approx(total, rel=1e-9)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_amortized_merge_counter(self, r):
        cfg = CoresetConfig(k=2, m=8, seed=5)
        rng = np.random.default_rng(7)
        t = CoresetTree(cfg, r=r)
        n = 1000
        feed(t, n, rng, n=4)
        assert t.builds <= n / (r - 1) + math.log(n, r)

    def test_non_sequential_span_rejected(self):
        cfg = CoresetConfig(k=2, m=8, seed=6)
        t = CoresetTree(cfg, r=2)
        rng = np.random.default_rng(8)
        t.update(Bucket(rng.normal(size=(4, 2)), np.ones(4), 1, 1, 0))
        with pytest.raises(ValueError):
            t.update(Bucket(rng.normal(size=(4, 2)), np.ones(4), 3, 3, 0))

    def test_bad_merge_degree(self):
        with pytest.raises(ValueError):
            CoresetTree(CoresetConfig(k=2, m=8), r=1)

    def test_accepts_prereduced_buckets(self):
        # nested structures feed higher-level buckets; only spans must chain
        cfg = CoresetConfig(k=2, m=8, seed=7)
        rng = np.random.default_rng(9)
        t = CoresetTree(cfg, r=2)
        t.update(Bucket(rng.normal(size=(8, 2)), np.ones(8), 1, 4, 2))
        t.update(Bucket(rng.normal(size=(8, 2)), np.ones(8), 5, 8, 2))
        merged = t.summary()[0]
        assert merged.span == (1, 8)
        assert merged.level == 3


class TestAtomicUpdate:
    def test_raising_merge_leaves_tree_unchanged(self):
        # bucket 4 completes a carry: its slot-0 merge succeeds, then the
        # slot-1 merge overflows, so neither may be committed
        cfg = CoresetConfig(k=2, m=8, seed=8)
        rng = np.random.default_rng(10)
        t = CoresetTree(cfg, r=2)
        for i, scale in enumerate([2e153, 1.0, 2e153], 1):
            t.update(Bucket(rng.normal(size=(8, 5)) * scale, np.ones(8), i, i, 0))

        def state():
            return [[b.span for b in slot] for slot in t.slots], t.n_ingested, t.last_right

        before = state()
        assert before == ([[(3, 3)], [(1, 2)]], 3, 3)
        with pytest.raises(ValueError, match="overflow"), np.errstate(over="ignore"):
            t.update(Bucket(rng.normal(size=(8, 5)), np.ones(8), 4, 4, 0))
        assert state() == before
        assert t.builds == 1
