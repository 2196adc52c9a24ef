import numpy as np
import pytest

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
        oc.ingest([0.0, 0.0])
        with pytest.raises(ValueError, match="not finite"):
            for p in ([1.0, 0.0], [bad, 0.0], [3.0, 0.0]):
                oc.ingest(p)
        for i in range(4):
            oc.ingest([float(i), 1.0])
        assert oc.initialized
        assert oc.driver.points_seen == 4

    def test_ingest_buffers_until_warmup(self):
        oc = make_online(k=2, warmup=4)
        for i in range(3):
            oc.ingest([float(i), 0.0])
            assert not oc.initialized
        oc.ingest([3.0, 0.0])
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
            oc.ingest(p)
        centers, phi, seen = oc.centers.copy(), oc.phi_now, oc.driver.points_seen
        with pytest.raises(ValueError, match="not finite"):
            oc.ingest([bad, 0.0])
        assert np.array_equal(oc.centers, centers)
        assert oc.phi_now == phi
        assert oc.driver.points_seen == seen
        oc.ingest([50.0, 50.0])  # a far point still trips the fallback
        oc.query()
        assert oc.last_fell_back
        assert np.all(np.isfinite(oc.centers))

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
            oc.ingest(p)
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
            oc.ingest(p)
            if i % 500 == 0:
                oc.query()
                true_cost = clustering_cost(stream[:i], oc.centers)
                assert oc.phi_now >= true_cost * (1 - 1e-6)

    def test_phi_monotone_between_queries(self):
        rng = np.random.default_rng(8)
        oc = make_online(k=2, m=20, warmup=4, seed=9)
        for p in rng.normal(size=(4, 2)):
            oc.ingest(p)
        last = oc.phi_now
        for p in rng.normal(size=(50, 2)) * 5:
            oc.ingest(p)
            assert oc.phi_now >= last
            last = oc.phi_now
