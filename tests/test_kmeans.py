import math

import numpy as np
import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import brute_force_2means

from streamkm import (
    CenterSet,
    SequentialKMeans,
    best_of_runs,
    clustering_cost,
    kmeans_pp,
    lloyd_refine,
    sequential_update,
)
from streamkm.kmeans import _TILE, assign_to_centers


def squared_distance(x, y) -> float:
    """The library's squared distance from point x to a lone center y."""
    return float(assign_to_centers([x], [y])[1][0])


def two_cluster_instance(seed=123, n_per=10, gap=100.0):
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [rng.normal(0.0, 1.0, (n_per, 2)), rng.normal([gap, 0.0], 1.0, (n_per, 2))]
    )
    return pts, np.ones(len(pts))


class TestSquaredDistance:
    def test_identical(self):
        assert squared_distance([0, 0], [0, 0]) == 0.0

    def test_3_4_5(self):
        assert squared_distance([0, 0], [3, 4]) == 25.0

    def test_hand_3d(self):
        assert squared_distance([1, 1, 1], [2, 3, 5]) == 21.0

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = rng.normal(size=(2, 4))
            assert squared_distance(x, y) == squared_distance(y, x)
            # |x|^2 + |x|^2 - 2 x.x cancels only to rounding error
            assert squared_distance(x, x) == pytest.approx(0.0, abs=1e-12)
            if not np.array_equal(x, y):
                assert squared_distance(x, y) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_distance([1, 2], [1, 2, 3])


class TestClusteringCost:
    def test_point_on_center(self):
        assert clustering_cost([[5, 5]], [[5, 5]], [3.0]) == 0.0

    def test_exact_cover(self):
        pts = [[0, 0], [2, 0]]
        assert clustering_cost(pts, [[0, 0], [2, 0]]) == 0.0

    def test_hand_arithmetic(self):
        cost = clustering_cost([[0, 0], [4, 0]], [[1, 0]], [2.0, 1.0])
        assert cost == pytest.approx(11.0)

    def test_empty_points(self):
        assert clustering_cost(np.empty((0, 2)), [[0, 0]]) == 0.0

    def test_empty_centers_error(self):
        with pytest.raises(ValueError):
            clustering_cost([[1, 2]], np.empty((0, 2)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(30, 3))
        w = rng.uniform(0.5, 2.0, 30)
        centers = rng.normal(size=(4, 3))
        base = clustering_cost(pts, centers, w)
        perm = rng.permutation(30)
        assert clustering_cost(pts[perm], centers, w[perm]) == pytest.approx(base)
        assert clustering_cost(pts, centers[::-1], w) == pytest.approx(base)

    def test_monotone_in_points_and_linear_in_weights(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(20, 2))
        w = np.ones(20)
        centers = rng.normal(size=(3, 2))
        c_all = clustering_cost(pts, centers, w)
        c_sub = clustering_cost(pts[:15], centers, w[:15])
        assert c_all >= c_sub
        assert clustering_cost(pts, centers, 3.5 * w) == pytest.approx(3.5 * c_all)


class TestKmeansPP:
    def test_single_point(self):
        rng = np.random.default_rng(0)
        c = kmeans_pp([[7.0, 7.0]], [1.0], 1, rng)
        assert np.array_equal(c, [[7.0, 7.0]])

    def test_n_equals_k_exact_cover(self):
        rng = np.random.default_rng(1)
        pts = np.array([[0.0, 0], [5, 0], [9, 3]])
        c = kmeans_pp(pts, np.ones(3), 3, rng)
        assert clustering_cost(pts, c) == 0.0
        assert len(c) == 3

    def test_fewer_distinct_than_k(self):
        pts = np.array([[1.0, 1], [1, 1], [2, 2]])
        c = kmeans_pp(pts, np.ones(3), 3, np.random.default_rng(2))
        assert len(c) == 2  # only two distinct locations exist
        assert clustering_cost(pts, c) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            kmeans_pp(np.empty((0, 2)), np.empty(0), 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans_pp([[1.0, 1]], [1.0], 0, np.random.default_rng(0))

    def test_two_cluster_mean_quality_after_refine(self):
        # Seeding alone concentrates near 2x the optimum (centers are data
        # points, not centroids); with Lloyd refinement the mean lands well
        # inside 1.1x of the enumerated optimum.
        pts, w = two_cluster_instance()
        opt = brute_force_2means(pts, w)
        costs = []
        for s in range(200):
            rng = np.random.default_rng(s)
            c = lloyd_refine(pts, kmeans_pp(pts, w, 2, rng), w)[0].centers
            costs.append(clustering_cost(pts, c, w))
        assert np.mean(costs) <= 1.1 * opt

    def test_theorem_bound_in_expectation(self):
        # mean seeding cost <= 8(ln k + 2) * OPT on tiny instances
        bound = 8.0 * (math.log(2) + 2.0)
        rng_inst = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng_inst.integers(5, 11))
            pts = rng_inst.normal(size=(n, 2)) * rng_inst.uniform(0.5, 5.0)
            w = np.ones(n)
            opt = brute_force_2means(pts, w)
            mean = np.mean(
                [
                    clustering_cost(pts, kmeans_pp(pts, w, 2, np.random.default_rng(s)), w)
                    for s in range(200)
                ]
            )
            assert mean <= bound * opt + 1e-12


class TestLloyd:
    def test_fixed_point(self):
        pts = np.array([[0.0, 0], [2, 0], [10, 0], [12, 0]])
        centroids = np.array([[1.0, 0], [11.0, 0]])
        out = lloyd_refine(pts, centroids)[0].centers
        assert np.allclose(out, centroids)

    def test_single_center_converges_to_centroid(self):
        pts = np.array([[0.0, 0], [2.0, 0]])
        out = lloyd_refine(pts, [[0.5, 0.0]])[0].centers
        assert np.allclose(out, [[1.0, 0.0]])
        assert clustering_cost(pts, out) == pytest.approx(2.0)

    def test_cost_nonincreasing_per_iteration(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 2))
        w = rng.uniform(0.5, 2.0, 50)
        centers = kmeans_pp(pts, w, 4, rng)
        prev = clustering_cost(pts, centers, w)
        for _ in range(10):
            centers = lloyd_refine(pts, centers, w, max_iters=1)[0].centers
            cur = clustering_cost(pts, centers, w)
            assert cur <= prev * (1 + 1e-12)
            prev = cur

    def test_empty_cluster_keeps_center(self):
        pts = np.array([[0.0, 0], [1.0, 0]])
        # far-away center never wins a point and must not move
        out = lloyd_refine(pts, [[0.4, 0.0], [99.0, 0.0]], max_iters=5)[0].centers
        assert np.allclose(out[1], [99.0, 0.0])

    @pytest.mark.parametrize("max_iters", [0, 50])
    def test_cost_and_weights_at_any_iteration_count(self, max_iters):
        # converged (50) or stopped before any step (0), a run has a cost
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(40, 2))
        w = rng.uniform(0.5, 2.0, 40)
        start = kmeans_pp(pts, w, 3, rng)
        kept = start.copy()
        out, cost = lloyd_refine(pts, start, w, max_iters=max_iters)
        assert np.array_equal(start, kept)  # refines a copy
        assert max_iters or np.array_equal(out.centers, start)
        assert isinstance(cost, float) and cost == clustering_cost(pts, out.centers, w)
        assert out.weights.sum() == pytest.approx(w.sum())


class TestBestOfRuns:
    def test_runs_one_matches_single_run(self):
        pts, w = two_cluster_instance(seed=5)
        rng = np.random.default_rng(17)
        out, cost = best_of_runs(pts, w, 2, rng, runs=1, lloyd_iters=20)
        sub_seed = int(np.random.default_rng(17).integers(0, 2**63, size=1)[0])
        rng_single = np.random.default_rng(sub_seed)
        expect, expect_cost = lloyd_refine(pts, kmeans_pp(pts, w, 2, rng_single), w, max_iters=20)
        assert np.array_equal(out.centers, expect.centers)
        assert np.array_equal(out.weights, expect.weights) and cost == expect_cost

    def test_min_contract(self):
        pts, w = two_cluster_instance(seed=6)
        rng = np.random.default_rng(99)
        sub_seeds = np.random.default_rng(99).integers(0, 2**63, size=5)
        best, best_cost = best_of_runs(pts, w, 2, rng, runs=5)
        assert best_cost == clustering_cost(pts, best.centers, w)
        for s in sub_seeds:
            r = np.random.default_rng(int(s))
            c = lloyd_refine(pts, kmeans_pp(pts, w, 2, r), w, max_iters=20)[0].centers
            assert best_cost <= clustering_cost(pts, c, w) + 1e-12

    def test_reaches_brute_force_optimum(self):
        pts, w = two_cluster_instance(seed=7)
        opt = brute_force_2means(pts, w)
        best = best_of_runs(pts, w, 2, np.random.default_rng(3), runs=5)[0]
        assert clustering_cost(pts, best.centers, w) == pytest.approx(opt, rel=1e-9)

    def test_runs_zero_error(self):
        with pytest.raises(ValueError):
            best_of_runs([[1.0, 1]], [1.0], 1, np.random.default_rng(0), runs=0)

    def test_negative_lloyd_iters_error(self):
        with pytest.raises(ValueError, match="Lloyd iterations must be >= 0"):
            best_of_runs([[1.0, 1]], [1.0], 1, np.random.default_rng(0), lloyd_iters=-1)
        with pytest.raises(ValueError, match="Lloyd iterations must be >= 0"):
            lloyd_refine([[1.0, 1]], [[1.0, 1]], max_iters=-1)

    def test_overflow_error(self):
        # squared distances of 1e200 coordinates overflow, so no run has a cost
        pts = np.random.default_rng(1).normal(size=(20, 2)) * 1e200
        with pytest.raises(ValueError, match="finite cost"):
            best_of_runs(pts, np.ones(20), 2, np.random.default_rng(0), runs=2)


@st.composite
def pools(draw):
    """A weighted pool with repeated points (often fewer distinct than k)."""
    n = draw(st.integers(1, 80))
    d = draw(st.integers(1, 20))
    distinct = draw(st.integers(1, n))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = data.normal(size=(distinct, d)) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
    pts = base[data.integers(0, distinct, size=n)]
    w = data.uniform(0.1, 5.0, size=n) if draw(st.booleans()) else np.ones(n)
    return pts, w, draw(st.integers(1, 20)), draw(st.integers(0, 2**32 - 1))


class TestStart:
    """best_of_runs(start=c): a Lloyd run from c joins the seeded runs."""

    @given(pools(), st.data())
    def test_cheaper_of_seeded_and_start(self, pool, data):
        pts, w, k, seed = pool
        start = pts[data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=k))]
        seeded, seeded_cost = best_of_runs(pts, w, k, np.random.default_rng(seed), runs=2)
        warm, warm_cost = lloyd_refine(pts, start, w)
        got, cost = best_of_runs(pts, w, k, np.random.default_rng(seed), runs=2, start=start)
        assert cost <= warm_cost and cost == min(seeded_cost, warm_cost)
        want = warm if warm_cost < seeded_cost else seeded
        assert got.centers.tobytes() == want.centers.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()

    def test_tie_keeps_the_seeded_run(self):
        pts, w = two_cluster_instance(seed=8)
        seeded, cost = best_of_runs(pts, w, 2, np.random.default_rng(4), runs=2)
        swapped = seeded.centers[::-1]  # the same converged answer, centers reordered
        assert lloyd_refine(pts, swapped, w)[1] == cost
        got = best_of_runs(pts, w, 2, np.random.default_rng(4), runs=2, start=swapped)
        assert got[0].centers.tobytes() == seeded.centers.tobytes() and got[1] == cost


def assert_reference_answer(got, cost, pts, w, want):
    """got holds the reference centers want bit for bit, with the weights and
    the cost of one reference assignment of the weighted pool to them."""
    assert got.centers.shape == want.shape and got.centers.tobytes() == want.tobytes()
    assign, _ = oracles.assign_to_centers(pts, want)
    weights = np.bincount(assign, weights=w, minlength=len(want))
    assert got.weights.tobytes() == weights.tobytes()
    assert cost == oracles.clustering_cost(pts, want, w)


class TestAgainstReference:
    """Bit equality with one independent seeding, Lloyd loop and cost pass
    per run (tests/oracles.py)."""

    @pytest.mark.parametrize("runs", [1, 5])
    @pytest.mark.parametrize("lloyd_iters", [0, 1, 20])
    @given(pool=pools())
    def test_best_of_runs(self, runs, lloyd_iters, pool):
        pts, w, k, seed = pool
        got, cost = best_of_runs(pts, w, k, np.random.default_rng(seed), runs, lloyd_iters)
        want = oracles.best_of_runs(pts, w, k, np.random.default_rng(seed), runs, lloyd_iters)
        assert_reference_answer(got, cost, pts, w, want)

    @given(pool=pools())
    def test_kmeans_pp_and_generator_state(self, pool):
        pts, w, k, seed = pool
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = kmeans_pp(pts, w, k, rng), oracles.kmeans_pp(pts, w, k, ref_rng)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(np.unique(got, axis=0)) == len(got) <= min(k, len(np.unique(pts, axis=0)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("lloyd_iters", [0, 1, 20])
    @given(pool=pools(), weighted=st.booleans())
    def test_lloyd_refine(self, lloyd_iters, pool, weighted):
        pts, w, k, seed = pool
        start = oracles.kmeans_pp(pts, w, k, np.random.default_rng(seed))
        given_w = w if weighted else None
        got, cost = lloyd_refine(pts, start, given_w, max_iters=lloyd_iters)
        want = oracles.lloyd_refine(pts, start, given_w, max_iters=lloyd_iters)
        assert_reference_answer(got, cost, pts, w if weighted else np.ones(len(pts)), want)


def rows_per_tile(k: int) -> int:
    return max(1, _TILE // k)


@st.composite
def kernel_values(draw, n, k):
    """n points and k centers in d dimensions at one scale, up to 1e150;
    optionally many points duplicate a center or one another."""
    d = draw(st.integers(1, 20))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6, 1e150]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = data.normal(size=(n, d)) * scale
    centers = data.normal(size=(k, d)) * scale
    if n and draw(st.booleans()):
        pts[data.integers(0, n, size=n // 2 + 1)] = centers[data.integers(0, k, size=n // 2 + 1)]
    if n > 1 and draw(st.booleans()):
        pts[1::2] = pts[0]
    return pts, centers


class TestKernelAgainstReference:
    """The tiled nearest-center kernel gives the bytes of the full (n, k)
    matrix it replaced (tests/oracles.py), across tile boundaries."""

    @pytest.mark.parametrize(
        "n, k",
        [(0, 5), (1, 5), (0, 1), (1, 1), (7, 1), (rows_per_tile(1) + 1, 1)]
        + [(q * rows_per_tile(k) + r, k) for k in (20, 200) for q in (1, 2) for r in (0, 1, 2)]
        + [(n, _TILE + 1) for n in (0, 1, 2, 3)],
    )
    @given(data=st.data())
    def test_same_bytes(self, n, k, data):
        pts, centers = data.draw(kernel_values(n, k))
        idx, d2 = assign_to_centers(pts, centers)
        want_idx, want_d2 = oracles.assign_to_centers(pts, centers)
        assert idx.dtype == want_idx.dtype and oracles.same_bits(idx, want_idx)
        assert d2.dtype == want_d2.dtype and oracles.same_bits(d2, want_d2)

    def test_empty_center_set_error(self):
        with pytest.raises(ValueError):
            assign_to_centers(np.zeros((3, 2)), np.empty((0, 2)))


class TestSequential:
    def test_first_k_points_seed(self):
        s = SequentialKMeans(2)
        s.push([1.0, 0.0])
        s.push([5.0, 0.0])
        cs = s.query()
        assert np.array_equal(cs.centers, [[1, 0], [5, 0]])
        assert np.array_equal(cs.weights, [1, 1])

    def test_point_on_center(self):
        s = SequentialKMeans(1)
        s.push([3.0, 3.0])
        s.push([3.0, 3.0])
        cs = s.query()
        assert np.array_equal(cs.centers, [[3, 3]])
        assert cs.weights[0] == 2.0

    def test_centroid_moves(self):
        cs = CenterSet(np.array([[0.0, 0.0]]), np.array([1.0]))
        sequential_update(cs, [2.0, 0.0])
        assert np.allclose(cs.centers, [[1.0, 0.0]])
        assert cs.weights[0] == 2.0

    def test_weighted_move(self):
        cs = CenterSet(np.array([[1.0, 0.0]]), np.array([3.0]))
        sequential_update(cs, [5.0, 0.0])
        assert np.allclose(cs.centers, [[2.0, 0.0]])
        assert cs.weights[0] == 4.0

    def test_uninitialized_error(self):
        with pytest.raises(RuntimeError):
            SequentialKMeans(2).query()
        with pytest.raises(ValueError):
            sequential_update(CenterSet(np.empty((0, 2)), np.empty(0)), [1.0, 1.0])

    def test_update_before_seeding_error(self):
        with pytest.raises(RuntimeError, match="0 are"):
            SequentialKMeans(3).update([9.0, 9.0])
        s = SequentialKMeans(3)
        s.push([0.0, 0.0])
        s.push([1.0, 0.0])
        with pytest.raises(RuntimeError, match="2 are"):
            s.update([9.0, 9.0])  # used to move the second seed to [5, 4.5]
        s.push([2.0, 2.0])
        assert np.array_equal(s.query().centers, [[0, 0], [1, 0], [2, 2]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_non_finite_point_rejected(self, bad):
        s = SequentialKMeans(2)
        with pytest.raises(ValueError, match="not finite"):
            s.push([bad, 0.0])  # while seeding
        s.push([0.0, 0.0])
        s.push([1.0, 1.0])
        before = s.query()
        with pytest.raises(ValueError, match="not finite"):
            s.push([bad, 0.0])  # a MacQueen step
        after = s.query()
        assert np.array_equal(after.centers, before.centers)
        assert np.array_equal(after.weights, before.weights)

    def test_nearest_tie_lowest_index(self):
        cs = CenterSet(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]))
        sequential_update(cs, [1.0, 0.0])  # equidistant; first center moves
        assert np.allclose(cs.centers[0], [0.5, 0.0])
        assert np.allclose(cs.centers[1], [2.0, 0.0])


@st.composite
def macqueen_streams(draw):
    """Weighted centers and points for MacQueen steps: copies of a center,
    midpoints of two centers (exact ties), midpoints nudged by 1e-12 (near
    ties), plain points, and now and then a point that is not finite."""
    k, d = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    centers = data.normal(size=(k, d)) * scale
    if draw(st.booleans()):
        centers[data.integers(0, k, size=k // 2)] = centers[0]  # duplicate centers
    weights = data.uniform(1.0, 5.0, size=k) if draw(st.booleans()) else np.ones(k)
    n = draw(st.integers(1, 60))
    a, b = centers[data.integers(0, k, size=n)], centers[data.integers(0, k, size=n)]
    kind = data.integers(0, 5, size=n)
    pts = data.normal(size=(n, d)) * scale
    pts[kind == 0] = a[kind == 0]
    mid = (a + b) / 2.0
    pts[kind == 1] = mid[kind == 1]
    pts[kind == 2] = mid[kind == 2] * (1.0 + 1e-12 * data.normal(size=(n, d)))[kind == 2]
    bad = data.random(n) < 0.05
    pts[bad, 0] = data.choice([np.nan, np.inf, 1e200], size=int(bad.sum()))
    return centers, weights, pts


class TestStepAgainstReference:
    """Bit equality of the spare-row MacQueen step with one full distance
    pass per point (tests/oracles.py), accepts and rejects alike."""

    @given(stream=macqueen_streams())
    def test_sequential_update(self, stream):
        centers, weights, pts = stream
        ref = CenterSet(centers.copy(), weights.copy())
        rows = np.concatenate((centers, centers[:1]))
        got = CenterSet(rows[:-1], weights.copy())
        for i, p in enumerate(pts):
            with np.errstate(all="ignore"):
                try:
                    want = oracles.sequential_update(ref, p)
                except ValueError:
                    with pytest.raises(ValueError, match="not finite"):
                        sequential_update(got, p, rows)
                else:
                    # the owner's spare row and the copying call alike
                    d2 = sequential_update(got, p, rows if i % 2 else None)
                    assert oracles.same_bits(d2, want)
            assert oracles.same_bits(got.centers, ref.centers)
            assert oracles.same_bits(got.weights, ref.weights)

    @given(stream=macqueen_streams())
    def test_sequential_kmeans(self, stream):
        centers, _, pts = stream
        got, ref = SequentialKMeans(len(centers)), oracles.SequentialKMeans(len(centers))
        for p in np.concatenate((centers, pts)):
            with np.errstate(all="ignore"):
                try:
                    ref.update(p)
                except ValueError:
                    with pytest.raises(ValueError, match="not finite"):
                        got.push(p)
                else:
                    got.push(p)
            if ref._seeded:
                want, have = ref.center_set(), got.query()
                assert oracles.same_bits(have.centers, want.centers)
                assert oracles.same_bits(have.weights, want.weights)
