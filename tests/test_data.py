import math

import numpy as np
import pytest

from streamkm.data import DriftConfig, drift_stream, gaussian_mixture, read_csv_stream
from streamkm.schedule import QuerySchedule, schedule_queries


class TestCsv:
    def test_reads_in_order(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n5.5,6.5\n")
        pts = read_csv_stream(f)
        assert np.array_equal(pts, [[1, 2], [3, 4], [5.5, 6.5]])

    def test_whitespace_separated(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("1 2\n3 4\n")
        assert read_csv_stream(f).shape == (2, 2)

    def test_shuffle_deterministic_permutation(self, tmp_path):
        f = tmp_path / "pts.csv"
        rows = "\n".join(f"{i},{i}" for i in range(50))
        f.write_text(rows + "\n")
        a = read_csv_stream(f, shuffle_seed=3)
        b = read_csv_stream(f, shuffle_seed=3)
        assert np.array_equal(a, b)
        plain = read_csv_stream(f)
        assert not np.array_equal(a, plain)
        assert sorted(a[:, 0].tolist()) == plain[:, 0].tolist()

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match=":2:"):
            read_csv_stream(f)

    @pytest.mark.parametrize("field", ["nan", "inf", "-Infinity"])
    def test_non_finite_reports_line(self, tmp_path, field):
        f = tmp_path / "bad.csv"
        f.write_text(f"1,2\n\n3,4\n5,{field}\n7,8\n")  # blank line 2 still counts
        with pytest.raises(ValueError, match=r"bad\.csv:4: non-finite"):
            read_csv_stream(f)

    def test_non_numeric_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match=":2:"):
            read_csv_stream(f)


class TestMixture:
    def test_zero_spread_lands_on_centers(self):
        pts, centers = gaussian_mixture(4, 100, 3, 0.0, seed=0, return_centers=True)
        from streamkm import clustering_cost

        assert clustering_cost(pts, centers) == pytest.approx(0.0, abs=1e-18)

    def test_shapes_and_determinism(self):
        a = gaussian_mixture(5, 200, 4, 1.0, seed=1)
        b = gaussian_mixture(5, 200, 4, 1.0, seed=1)
        assert a.shape == (200, 4)
        assert np.array_equal(a, b)

    def test_per_cluster_mean_clt(self):
        k, n, d, spread = 5, 20000, 2, 2.0
        pts, centers = gaussian_mixture(k, n, d, spread, seed=2, return_centers=True)
        # assign by nearest true center; empirical means within 3 sigma/sqrt(n/k)
        from streamkm.kmeans import assign_to_centers

        idx, _ = assign_to_centers(pts, centers)
        tol = 3 * spread / np.sqrt(n / k * 0.5)
        for j in range(k):
            assert np.linalg.norm(pts[idx == j].mean(axis=0) - centers[j]) < tol * np.sqrt(d)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            gaussian_mixture(0, 10, 2, 1.0, seed=0)


class TestDrift:
    def test_total_points_exact(self):
        cfg = DriftConfig(total_points=1200, drift=np.zeros(2), n_centers=4,
                          points_per_step=100, std=1.0, seed=3)
        assert drift_stream(cfg).shape == (1200, 2)
        # steps * centers * points-per-step when divisible
        cfg2 = DriftConfig(total_points=800, drift=np.zeros(2), n_centers=4,
                           points_per_step=100, std=1.0, seed=3)
        assert drift_stream(cfg2).shape == (800, 2)

    def test_centers_move_with_drift(self):
        drift = np.array([1.0, 0.0])
        cfg = DriftConfig(total_points=4000, drift=drift, n_centers=2,
                          points_per_step=100, std=0.5, seed=4)
        pts, track = drift_stream(cfg, return_center_track=True)
        steps = len(track)
        moved = track[-1] - track[0]
        assert np.allclose(moved, drift * (steps - 1))
        # late-stream points sit roughly drift*steps past early-stream ones
        early = pts[:200].mean(axis=0)
        late = pts[-200:].mean(axis=0)
        assert late[0] - early[0] == pytest.approx(steps - 1, abs=1.0)

    def test_zero_drift_is_stationary(self):
        cfg = DriftConfig(total_points=2000, drift=np.zeros(2), n_centers=3,
                          points_per_step=100, std=1.0, seed=5)
        pts, track = drift_stream(cfg, return_center_track=True)
        assert np.array_equal(track[0], track[-1])

    def test_steps_are_shuffled(self):
        # Each step holds every center's points in one permutation, so a
        # stretch of the stream is not a run from a single center.
        cfg = DriftConfig(total_points=800, drift=np.zeros(2), n_centers=4,
                          points_per_step=100, std=0.01, seed=6)
        pts, track = drift_stream(cfg, return_center_track=True)
        labels = np.argmin(((pts[:, None, :] - track[0][None]) ** 2).sum(axis=2), axis=1)
        for step in labels.reshape(2, 400):
            assert np.bincount(step, minlength=4).tolist() == [100] * 4
            assert len(set(step[:40].tolist())) == 4
            assert np.count_nonzero(np.diff(step)) > 100

    @pytest.mark.parametrize("counts", [{"n_centers": 0}, {"points_per_step": 0}])
    def test_counts_validated(self, counts):
        with pytest.raises(ValueError):
            DriftConfig(total_points=100, **counts)

    def test_empty_stream(self):
        # like gaussian_mixture with n=0: a (0, d) array the caller can reject
        cfg = DriftConfig(total_points=0, drift=np.zeros(3))
        pts, track = drift_stream(cfg, return_center_track=True)
        assert pts.shape == (0, 3) and track.shape == (0, 20, 3)


class TestSchedule:
    def test_fixed(self):
        s = QuerySchedule.fixed(100)
        assert schedule_queries(s, 350) == [100, 200, 300]

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            QuerySchedule.fixed(0)
        with pytest.raises(ValueError):
            QuerySchedule("fixed", interval=5, rate=0.1)
        with pytest.raises(ValueError):
            QuerySchedule("nope", interval=5)

    def test_poisson_mean_interarrival(self):
        s = QuerySchedule.poisson(0.01, seed=6)
        idx = schedule_queries(s, 2_000_000)
        gaps = np.diff([0] + idx)
        assert abs(gaps.mean() - 100.0) / 100.0 < 0.1

    def test_poisson_deterministic_and_sorted(self):
        s = QuerySchedule.poisson(0.05, seed=7)
        a = schedule_queries(s, 10000)
        b = schedule_queries(s, 10000)
        assert a == b
        assert a == sorted(set(a))
        assert all(1 <= i <= 10000 for i in a)

    def test_poisson_rate_validation(self):
        with pytest.raises(ValueError):
            QuerySchedule.poisson(0.0)

    @pytest.mark.parametrize("rate", [1.5, 1e3, 1e308])
    def test_poisson_rate_at_most_one(self, rate):
        # a schedule holds one query per point at most, so its mean gap is >= 1
        with pytest.raises(ValueError, match="at most 1.*--query-interval 1"):
            QuerySchedule.poisson(rate)

    def test_poisson_rate_one_allowed(self):
        idx = schedule_queries(QuerySchedule.poisson(1.0, seed=3), 500)
        assert idx == sorted(set(idx)) and 1 <= idx[0] and idx[-1] <= 500

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_poisson_rate_must_be_finite(self, rate):
        # an infinite rate draws zero gaps forever; NaN cannot become an index
        with pytest.raises(ValueError, match="rate must be finite and positive"):
            QuerySchedule.poisson(rate)
