import numpy as np
import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamkm import CoresetConfig, OnlineClusterer, clustering_cost
from streamkm.data import DriftConfig, drift_stream


def make_online(k=2, m=20, alpha=1.2, eps=0.1, warmup=None, seed=0, **kw):
    cfg = CoresetConfig(k=k, m=m, seed=seed)
    return OnlineClusterer(cfg, alpha=alpha, eps=eps, warmup=warmup, seed=seed, **kw)


class TestConstruction:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            make_online(alpha=1.0)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            make_online(eps=0.0)
        with pytest.raises(ValueError):
            make_online(eps=1.0)

    def test_warmup_at_least_k(self):
        with pytest.raises(ValueError):
            make_online(k=5, m=100, warmup=3)


class TestInitialize:
    def test_exact_cover_gives_zero_phi(self):
        oc = make_online(k=2, warmup=2)
        oc.initialize([[0.0, 0.0], [10.0, 0.0]])
        assert oc.phi_prev == 0.0
        assert oc.phi_now == 0.0

    def test_phi_matches_direct_cost(self):
        rng = np.random.default_rng(1)
        s0 = np.concatenate([rng.normal(0, 1, (5, 2)), rng.normal(50, 1, (5, 2))])
        oc = make_online(k=2, warmup=10)
        oc.initialize(s0)
        assert oc.phi_now == pytest.approx(clustering_cost(s0, oc.centers))
        assert oc.phi_prev == oc.phi_now

    def test_too_few_warmup_points(self):
        oc = make_online(k=3, m=60)
        with pytest.raises(ValueError):
            oc.initialize([[1.0, 1.0], [2.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_non_finite_warmup_rejected(self, bad):
        oc = make_online(k=2, warmup=4)
        with pytest.raises(ValueError, match="not finite"):
            oc.initialize([[0.0, 0.0], [1.0, 0.0], [bad, 0.0], [3.0, 0.0]])
        assert not oc.initialized
        assert oc.driver.points_seen == 0
        # through ingest, the rejected set is dropped and a new one starts
        oc.push([0.0, 0.0])
        with pytest.raises(ValueError, match="not finite"):
            for p in ([1.0, 0.0], [bad, 0.0], [3.0, 0.0]):
                oc.push(p)
        for i in range(4):
            oc.push([float(i), 1.0])
        assert oc.initialized
        assert oc.driver.points_seen == 4

    def test_ingest_buffers_until_warmup(self):
        oc = make_online(k=2, warmup=4)
        for i in range(3):
            oc.push([float(i), 0.0])
            assert not oc.initialized
        oc.push([3.0, 0.0])
        assert oc.initialized


class TestUpdate:
    def test_uninitialized_error(self):
        oc = make_online()
        with pytest.raises(RuntimeError):
            oc.update([1.0, 1.0])
        with pytest.raises(RuntimeError):
            oc.query()

    def test_point_on_center_leaves_phi(self):
        oc = make_online(k=2, warmup=2)
        oc.initialize([[0.0, 0.0], [10.0, 0.0]])
        j = int(np.argmin(np.abs(oc.centers[:, 0])))  # the center at origin
        w_before = oc.center_weights[j]
        oc.update([0.0, 0.0])
        assert oc.phi_now == 0.0
        assert np.array_equal(oc.centers[j], [0.0, 0.0])
        assert oc.center_weights[j] == w_before + 1

    def test_centroid_move_and_phi_increment(self):
        oc = make_online(k=2, warmup=2)
        oc.initialize([[0.0, 0.0], [100.0, 0.0]])
        j = int(np.argmin(np.abs(oc.centers[:, 0])))
        oc.update([2.0, 0.0])
        assert oc.phi_now == pytest.approx(4.0)  # distance before the move
        assert np.allclose(oc.centers[j], [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_non_finite_point_rejected(self, bad):
        oc = make_online(k=2, m=10, warmup=4)
        for p in np.random.default_rng(3).normal(size=(6, 2)):
            oc.push(p)
        centers, phi, seen = oc.centers.copy(), oc.phi_now, oc.driver.points_seen
        with pytest.raises(ValueError, match="not finite"):
            oc.push([bad, 0.0])
        assert np.array_equal(oc.centers, centers)
        assert oc.phi_now == phi
        assert oc.driver.points_seen == seen
        oc.push([50.0, 50.0])  # a far point still trips the fallback
        oc.query()
        assert oc.last_fell_back
        assert np.all(np.isfinite(oc.centers))

    def test_dropped_batch_leaves_no_trace(self):
        # merging the two buckets of huge points overflows, so the driver
        # drops the second batch; the centers must forget its points too
        oc = make_online(k=3, m=30, warmup=6)
        data = np.random.default_rng(0)
        pts = np.concatenate([data.normal(size=(60, 5)) * 1e153, data.normal(size=(90, 5))])
        dropped = 0
        for p in pts:
            try:
                oc.push(p)
            except ValueError:
                dropped += 1
                assert oc.initialized and oc.driver.points_seen % oc.cfg.m == 0
            if oc.initialized:
                assert oc.center_weights.sum() == oc.driver.points_seen
        assert dropped == 1
        assert oc.driver.points_seen == len(pts) - oc.cfg.m
        assert np.isfinite(oc.phi_now) and np.all(np.isfinite(oc.centers))
        assert oc.query().weights.sum() == oc.driver.points_seen

    def test_batching_contract(self):
        m = 16
        oc = make_online(k=2, m=m, warmup=4)
        oc.initialize(np.random.default_rng(2).normal(size=(4, 2)))
        assert oc.cc.n == 0
        for i in range(m):
            oc.update([float(i), 0.0])
            # 4 warmup points sit in the partial bucket, so the flush
            # happens after m - 4 updates and exactly once so far
        assert oc.cc.n == 1
        assert len(oc.driver._partial) == 4


class TestQuery:
    def test_no_fallback_right_after_init(self):
        oc = make_online(k=2, warmup=4)
        oc.initialize(np.random.default_rng(3).normal(size=(4, 2)))
        builds_before = oc.cc.builds
        out = oc.query()
        assert oc.last_fell_back is False
        assert oc.cc.builds == builds_before  # no coreset work on the fast path
        assert out.k == len(oc.centers)

    def test_fallback_iff_threshold(self):
        rng = np.random.default_rng(4)
        stream = np.concatenate(
            [rng.normal(0, 1, (200, 2)), rng.normal(60, 1, (200, 2))]
        )
        oc = make_online(k=2, m=20, alpha=1.2, warmup=4, seed=5)
        for i, p in enumerate(stream, 1):
            oc.push(p)
            if i % 25 == 0 and oc.initialized:
                should_fall = oc.phi_now > oc.alpha * oc.phi_prev
                phi_prev_before = oc.phi_prev
                oc.query()
                assert oc.last_fell_back == should_fall
                if should_fall:
                    assert oc.phi_now == pytest.approx(oc.phi_prev / (1 - oc.eps))
                    assert oc.phi_now > oc.phi_prev
                else:
                    assert oc.phi_prev == phi_prev_before
        assert oc.fallback_count >= 1

    def test_phi_upper_bounds_true_cost(self):
        # The bound relies on the coreset's lower accuracy beating the
        # configured eps; m = 40*k keeps the in-sample optimism of centers
        # fitted on the coreset well inside the 1/(1-eps) cushion.
        cfg = DriftConfig(
            total_points=5000,
            drift=np.full(2, 0.05),
            n_centers=10,
            points_per_step=50,
            std=1.0,
            seed=6,
        )
        stream = drift_stream(cfg)
        oc = make_online(k=5, m=200, alpha=1.2, warmup=10, seed=7)
        for i, p in enumerate(stream, 1):
            oc.push(p)
            if i % 500 == 0:
                oc.query()
                true_cost = clustering_cost(stream[:i], oc.centers)
                assert oc.phi_now >= true_cost * (1 - 1e-6)

    def test_phi_monotone_between_queries(self):
        rng = np.random.default_rng(8)
        oc = make_online(k=2, m=20, warmup=4, seed=9)
        for p in rng.normal(size=(4, 2)):
            oc.push(p)
        last = oc.phi_now
        for p in rng.normal(size=(50, 2)) * 5:
            oc.push(p)
            assert oc.phi_now >= last
            last = oc.phi_now


@st.composite
def online_streams(draw):
    """A stream drawn around few or many distinct points (so an answer often
    has fewer than k centers), random query points and a low or high
    fallback threshold."""
    k, d = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    base = data.normal(size=(draw(st.integers(1, 3 * k)), d)) * scale
    n = draw(st.integers(2 * k, 300))
    noise = draw(st.sampled_from([0.0, 1e-9, 0.1]))
    pts = base[data.integers(0, len(base), size=n)] + data.normal(size=(n, d)) * noise * scale
    asks = data.random(n) < draw(st.sampled_from([0.02, 0.1, 0.5]))
    cfg = CoresetConfig(k=k, m=draw(st.integers(k, 3 * k)), seed=draw(st.integers(0, 99)))
    return cfg, draw(st.sampled_from([1.01, 1.2, 2.0])), pts, asks


class TestAgainstReference:
    """Bit equality with the reference step, which builds a CenterSet per
    point and runs a full distance pass (tests/oracles.py)."""

    def run_both(self, cfg, alpha, pts, asks):
        got = OnlineClusterer(cfg, alpha=alpha)
        ref = oracles.OnlineReference(cfg, alpha=alpha)
        short = 0  # fallback answers with fewer than k centers
        for p, ask in zip(pts, asks):
            got.push(p)
            ref.push(p)
            if ask and ref.initialized:
                have, want = got.query(), ref.query()
                assert got.last_fell_back == ref.last_fell_back
                assert oracles.same_bits(have.centers, want.centers)
                assert oracles.same_bits(have.weights, want.weights)
                short += ref.last_fell_back and want.k < cfg.k
            assert oracles.same_bits(got.phi_now, ref.phi_now)
            assert oracles.same_bits(got.phi_prev, ref.phi_prev)
            assert got.fallback_count == ref.fallback_count
        return ref.fallback_count, short

    @given(stream=online_streams())
    def test_random_streams(self, stream):
        self.run_both(*stream)

    def test_answer_with_fewer_than_k_centers(self):
        # two distinct warmup points for k=5, then a third: the estimate
        # leaves 0, the query falls back, and the pool has 3 distinct points
        pts = np.array([[0.0, 0.0], [10.0, 0.0]] * 5 + [[0.0, 7.0]] * 3 + [[10.0, 1.0]] * 40)
        asks = np.ones(len(pts), dtype=bool)
        fallbacks, short = self.run_both(CoresetConfig(k=5, m=8, seed=3), 1.2, pts, asks)
        assert fallbacks >= 2 and short >= 1
