import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamkm import (
    Bucket,
    CachedCoresetTree,
    CoresetConfig,
    StreamClusterer,
    build_coreset,
    clustering_cost,
)


def make_bucket(rng, span_left, span_right, n=20, level=0, d=2, shift=0.0):
    pts = rng.normal(size=(n, d)) + shift
    return Bucket(pts, rng.uniform(0.5, 2.0, n), span_left, span_right, level)


class TestBucket:
    def test_weight_positive_enforced(self):
        with pytest.raises(ValueError):
            Bucket([[1.0, 2.0]], [0.0], 1, 1, 0)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="weights must be finite"):
            Bucket([[1.0, 2.0], [3.0, 4.0]], [1.0, np.nan], 1, 1, 0)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError, match="points must be finite"):
            Bucket([[1.0, np.nan]], [1.0], 1, 1, 0)

    def test_span_order_enforced(self):
        with pytest.raises(ValueError):
            Bucket([[1.0, 2.0]], [1.0], 3, 2, 0)

    def test_total_weight(self):
        b = Bucket([[1.0, 0], [2, 0]], [1.5, 2.5], 1, 1, 0)
        assert b.total_weight() == pytest.approx(4.0)


class TestUnion:
    """build_coreset's union of its inputs, seen on the pass-through path."""

    CFG = CoresetConfig(k=2, m=50, seed=0)

    def union(self, inputs):
        return build_coreset(self.CFG, inputs, np.random.default_rng(0))

    def test_single_identity(self):
        rng = np.random.default_rng(0)
        b = make_bucket(rng, 1, 3, level=1)
        u = self.union([b])
        assert np.array_equal(u.points, b.points)
        assert np.array_equal(u.weights, b.weights)
        assert u.span == (1, 3)
        assert u.level == 2

    def test_two_adjacent(self):
        rng = np.random.default_rng(1)
        a = make_bucket(rng, 1, 3, n=5, level=1)
        b = make_bucket(rng, 4, 6, n=7, level=1)
        u = self.union([b, a])  # order independent
        assert np.array_equal(u.points, np.concatenate([a.points, b.points]))
        assert u.span == (1, 6)
        assert u.level == 2
        assert u.n_points == 12
        assert u.total_weight() == pytest.approx(a.total_weight() + b.total_weight())

    def test_gap_rejected(self):
        rng = np.random.default_rng(2)
        pair = [make_bucket(rng, 1, 2), make_bucket(rng, 4, 5)]
        for inputs in (pair, pair[::-1]):
            with pytest.raises(ValueError, match="disjoint and contiguous"):
                self.union(inputs)

    def test_overlap_rejected(self):
        rng = np.random.default_rng(3)
        pair = [make_bucket(rng, 1, 3), make_bucket(rng, 3, 5)]
        for inputs in (pair, pair[::-1]):
            with pytest.raises(ValueError, match="disjoint and contiguous"):
                self.union(inputs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one input"):
            self.union([])


class TestBuildCoreset:
    def test_small_input_passes_through(self):
        cfg = CoresetConfig(k=2, m=50, seed=0)
        rng = np.random.default_rng(4)
        b = make_bucket(rng, 1, 1, n=10, level=0)
        out = build_coreset(cfg, [b], np.random.default_rng(0))
        assert np.array_equal(out.points, b.points)
        assert np.array_equal(out.weights, b.weights)
        assert out.level == 1

    def test_level_and_span_arithmetic(self):
        cfg = CoresetConfig(k=2, m=8, seed=0)
        rng = np.random.default_rng(5)
        a = make_bucket(rng, 1, 3, n=30, level=0)
        b = make_bucket(rng, 4, 6, n=30, level=0)
        out = build_coreset(cfg, [a, b], np.random.default_rng(1))
        assert out.level == 1
        assert out.span == (1, 6)
        assert out.n_points == 8
        mixed = build_coreset(cfg, [out, make_bucket(rng, 7, 7, level=2)], np.random.default_rng(2))
        assert mixed.level == 3  # 1 + max(1, 2)

    def test_weight_conservation(self):
        cfg = CoresetConfig(k=3, m=10, seed=0)
        rng = np.random.default_rng(6)
        inputs = [make_bucket(rng, i, i, n=40) for i in range(1, 5)]
        total = math.fsum(b.total_weight() for b in inputs)
        out = build_coreset(cfg, inputs, np.random.default_rng(3))
        assert out.total_weight() == pytest.approx(total, rel=1e-9)
        assert np.all(out.weights > 0)

    def test_points_are_subset_of_inputs(self):
        cfg = CoresetConfig(k=2, m=5, seed=0)
        rng = np.random.default_rng(7)
        b = make_bucket(rng, 1, 1, n=50)
        out = build_coreset(cfg, [b], np.random.default_rng(4))
        in_rows = {tuple(row) for row in b.points}
        assert all(tuple(row) in in_rows for row in out.points)

    def test_deterministic_under_seed(self):
        cfg = CoresetConfig(k=2, m=6, seed=0)
        rng = np.random.default_rng(8)
        inputs = [make_bucket(rng, i, i, n=30) for i in (1, 2)]
        a = build_coreset(cfg, inputs, np.random.default_rng(42))
        b = build_coreset(cfg, inputs, np.random.default_rng(42))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_span_validation(self):
        cfg = CoresetConfig(k=2, m=6, seed=0)
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="disjoint and contiguous"):
            build_coreset(cfg, [make_bucket(rng, 1, 2), make_bucket(rng, 5, 6)],
                          np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one input"):
            build_coreset(cfg, [], np.random.default_rng(0))

    def test_cost_preservation_on_clustered_data(self):
        # 1000 points in 10 tight clusters reduced to m=200: the cost of a
        # fixed random center set changes by under 15% (median over 50 seeds).
        rng = np.random.default_rng(10)
        centers = rng.uniform(0, 100, size=(10, 2))
        pts = np.concatenate([c + rng.normal(0, 1.0, (100, 2)) for c in centers])
        buckets = [
            Bucket(pts[i * 100 : (i + 1) * 100], np.ones(100), i + 1, i + 1, 0)
            for i in range(10)
        ]
        probe = rng.uniform(0, 100, size=(10, 2))
        raw_cost = clustering_cost(pts, probe)
        cfg = CoresetConfig(k=10, m=200, seed=0)
        errors = []
        for s in range(50):
            cs = build_coreset(cfg, buckets, np.random.default_rng(s))
            cs_cost = clustering_cost(cs.points, probe, cs.weights)
            errors.append(abs(cs_cost - raw_cost) / raw_cost)
        assert np.median(errors) <= 0.15


class TestLightweightReduction:
    """The one-pass draw from q(x) = w/(2W) + w*||x - mu||^2 / (2 * sum w*||x - mu||^2)."""

    def test_total_weight_exact(self):
        # integer weights sum exactly in float64, whatever the order
        rng = np.random.default_rng(11)
        inputs = [
            Bucket(rng.normal(size=(60, 3)), rng.integers(1, 9, 60).astype(float), i, i, 0)
            for i in (1, 2, 3)
        ]
        out = build_coreset(CoresetConfig(k=2, m=25), inputs, np.random.default_rng(5))
        assert out.total_weight() == sum(b.total_weight() for b in inputs)

    def test_at_most_m_distinct_positive(self):
        # a coarse integer grid makes many duplicate coordinates, so some
        # draws repeat a point and would collect no weight
        rng = np.random.default_rng(12)
        b = Bucket(rng.integers(0, 3, size=(200, 2)).astype(float), np.ones(200), 1, 1, 0)
        for s in range(20):
            out = build_coreset(CoresetConfig(k=2, m=30), [b], np.random.default_rng(s))
            assert out.n_points <= 30
            assert len(np.unique(out.points, axis=0)) == out.n_points
            assert np.all(out.weights > 0)
            assert out.total_weight() == 200

    def test_identical_points_collapse(self):
        b = Bucket(np.full((50, 3), 2.5), np.ones(50), 1, 1, 0)
        out = build_coreset(CoresetConfig(k=2, m=10), [b], np.random.default_rng(6))
        assert np.array_equal(out.points, [[2.5, 2.5, 2.5]])
        assert np.array_equal(out.weights, [50.0])

    def test_inclusion_frequency_tracks_q(self):
        # with m = 1 a point is kept exactly with probability q(x)
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0], [-4.0, 1.0]])
        weights = np.array([4.0, 1.0, 2.0, 1.0, 0.5])
        mu = weights @ points / weights.sum()
        spread = weights * ((points - mu) ** 2).sum(axis=1)
        q = 0.5 * weights / weights.sum() + 0.5 * spread / spread.sum()
        b = Bucket(points, weights, 1, 1, 0)
        cfg = CoresetConfig(k=1, m=1)
        rng = np.random.default_rng(7)
        draws = 8000
        hits = np.zeros(len(points))
        for _ in range(draws):
            out = build_coreset(cfg, [b], rng)
            hits[np.flatnonzero((points == out.points[0]).all(axis=1))] += 1
        # 4 binomial standard deviations at the largest q
        assert np.allclose(hits / draws, q, atol=4 * math.sqrt(0.25 / draws))

    @pytest.mark.parametrize("scale, error", [
        (1e152, None),
        (1e153, "squared distances overflow float64"),
        (1e200, "squared distances overflow float64"),
    ])
    def test_overflow_named(self, scale, error):
        cfg = CoresetConfig(k=3, m=30, seed=0)
        d = StreamClusterer(CachedCoresetTree(cfg, 2, seed=0), cfg, query_seed=1)
        pts = np.random.default_rng(0).normal(size=(200, 5)) * scale
        if error is None:
            for p in pts:
                d.push(p)
            assert np.all(np.isfinite(d.query().centers))
        else:
            with pytest.raises(ValueError, match=error), np.errstate(over="ignore"):
                for p in pts:
                    d.push(p)


def distinct_rows(points) -> bool:
    """No two rows share their coordinates, -0.0 counted as 0.0."""
    return len({row.tobytes() for row in np.asarray(points) + 0.0}) == len(points)


class TestDuplicateDraws:
    """A drawn point keeps itself, and exact duplicate draws fold into the
    first; only the undrawn points go through the nearest-representative pass."""

    @pytest.mark.parametrize("d", [5, 20])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
    def test_exact_duplicates_give_distinct_representatives(self, d, scale):
        # 15 distinct rows of non-integer coordinates, so the distances round
        rng = np.random.default_rng(d)
        for s in range(20):
            base = rng.uniform(-scale, scale, size=(15, d))
            points = base[rng.integers(0, 15, 300)]
            weights = rng.integers(1, 5, 300).astype(float)
            b = Bucket(points, weights, 1, 1, 0)
            out = build_coreset(CoresetConfig(k=2, m=40), [b], np.random.default_rng(s))
            assert distinct_rows(out.points)
            assert out.total_weight() == weights.sum()

    def test_signed_zeros_are_one_coordinate(self):
        base = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [3.0, 3.0]])
        points = np.tile(base, (10, 1))
        for s in range(10):
            out = build_coreset(CoresetConfig(k=1, m=20), [Bucket(points, np.ones(50), 1, 1, 0)],
                                np.random.default_rng(s))
            assert out.n_points <= 3 and distinct_rows(out.points)
            assert out.total_weight() == 50

    def test_near_duplicate_draws_keep_their_own_weight(self):
        # 1000 + 1e-9 and 1000 lie within rounding of each other: the full
        # expanded-form pass hands the drawn 1000 to the earlier draw and
        # drops it, while the library keeps both
        b = Bucket([[1000.0 + 1e-9], [1000.0], [2000.0]], [1.0, 2.0, 4.0], 1, 1, 0)
        cfg = CoresetConfig(k=1, m=2)
        got = build_coreset(cfg, [b], np.random.default_rng(1))
        want = oracles.build_coreset(cfg, [b], np.random.default_rng(1))
        assert oracles.same_bits(got.points, [[1000.0 + 1e-9], [1000.0]])
        assert oracles.same_bits(got.weights, [5.0, 2.0])
        assert oracles.same_bits(want.points, [[1000.0 + 1e-9]])
        assert oracles.same_bits(want.weights, [7.0])

    @pytest.mark.parametrize("noise", [1e-9, 1e-6])
    def test_every_representative_keeps_its_own_weight(self, noise):
        # near-duplicate rows around 1e3: every input row is distinct, so
        # each representative is one input point and holds at least its weight
        rng = np.random.default_rng(13)
        for s in range(10):
            base = rng.uniform(999.0, 1001.0, size=(10, 5))
            points = base[rng.integers(0, 10, 200)] + rng.normal(0.0, noise, (200, 5))
            weights = rng.uniform(0.5, 2.0, 200)
            own = {row.tobytes(): w for row, w in zip(points, weights)}
            assert len(own) == 200
            out = build_coreset(CoresetConfig(k=2, m=60), [Bucket(points, weights, 1, 1, 0)],
                                np.random.default_rng(s))
            assert out.n_points == 60
            assert all(w >= own[row.tobytes()] for row, w in zip(out.points, out.weights))


@st.composite
def reductions(draw):
    """Contiguous buckets of generic floats, of a small integer grid or of a
    few repeated rows at up to 1e5, with a summary size and a draw seed."""
    d = draw(st.integers(1, 20))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 60), min_size=1, max_size=4))
    n = sum(sizes)
    kind = draw(st.sampled_from(["generic", "grid", "repeated"]))
    if kind == "generic":
        points = data.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e5]))
    elif kind == "grid":
        points = data.integers(-2, 3, size=(n, d)).astype(float)
    else:
        base = data.uniform(-1e5, 1e5, size=(draw(st.integers(1, 10)), d))
        points = base[data.integers(0, len(base), n)]
    weights = data.uniform(0.5, 2.0, n) if draw(st.booleans()) else np.ones(n)
    cuts = np.cumsum([0] + sizes)
    buckets = [
        Bucket(points[lo:hi], weights[lo:hi], i, i, draw(st.integers(0, 3)))
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]), 1)
    ]
    return CoresetConfig(k=1, m=draw(st.integers(1, n))), buckets, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100)
@given(case=reductions())
def test_build_coreset_matches_full_pass_reference(case):
    """Bit equality with the reduction that assigns every point, drawn or
    not (tests/oracles.py), away from near-duplicate draws."""
    cfg, buckets, seed = case
    got = build_coreset(cfg, buckets, np.random.default_rng(seed))
    want = oracles.build_coreset(cfg, buckets, np.random.default_rng(seed))
    assert oracles.same_bits(got.points, want.points)
    assert oracles.same_bits(got.weights, want.weights)
    assert (got.span, got.level) == (want.span, want.level)


class TestCoresetConfig:
    def test_default_m(self):
        assert CoresetConfig(k=7).m == 140

    def test_m_smaller_than_k_rejected(self):
        with pytest.raises(ValueError):
            CoresetConfig(k=10, m=5)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            CoresetConfig(k=0)
