import re

import numpy as np
import pytest

import streamkm.driver
import streamkm.kmeans
import streamkm.online
from streamkm import (
    CachedCoresetTree,
    CoresetConfig,
    CoresetTree,
    OnlineClusterer,
    RecursiveCachedTree,
    StreamClusterer,
    best_of_runs,
    clustering_cost,
)
from streamkm.bench import _FACTORIES, ALGORITHMS, BenchOptions, batch_reference


def make_driver(structure_kind="ct", k=2, m=5, seed=0, r=2):
    cfg = CoresetConfig(k=k, m=m, seed=seed)
    if structure_kind == "ct":
        s = CoresetTree(cfg, r, rng=np.random.default_rng(seed))
    elif structure_kind == "cc":
        s = CachedCoresetTree(cfg, r, seed=seed)
    else:
        s = RecursiveCachedTree(cfg, 1, seed=seed)
    return StreamClusterer(s, cfg, query_seed=seed + 1)


class TestPush:
    def test_buffer_below_m(self):
        d = make_driver(m=5)
        rng = np.random.default_rng(0)
        for p in rng.normal(size=(4, 2)):
            d.push(p)
        assert d.buckets_delivered == 0
        assert d.points_seen == 4

    def test_flush_at_m(self):
        d = make_driver(m=5)
        rng = np.random.default_rng(1)
        for p in rng.normal(size=(5, 2)):
            d.push(p)
        assert d.buckets_delivered == 1
        assert len(d._partial) == 0

    def test_integer_division(self):
        d = make_driver(m=5)
        rng = np.random.default_rng(2)
        for p in rng.normal(size=(12, 2)):
            d.push(p)
        assert d.buckets_delivered == 2
        assert len(d._partial) == 2
        assert d.points_seen == 5 * d.buckets_delivered + len(d._partial)

    def test_buffer_arithmetic_every_push(self):
        d = make_driver(m=7)
        rng = np.random.default_rng(3)
        for i, p in enumerate(rng.normal(size=(40, 2)), 1):
            d.push(p)
            assert d.points_seen == 7 * d.buckets_delivered + len(d._partial)
            assert len(d._partial) < 7

    def test_dimension_mismatch(self):
        d = make_driver()
        d.push([1.0, 2.0])
        with pytest.raises(ValueError):
            d.push([1.0, 2.0, 3.0])


    def test_inf_point_rejected_at_flush(self):
        d = make_driver(m=5)
        pts = np.random.default_rng(4).normal(size=(5, 2))
        pts[2, 1] = np.inf
        for p in pts[:4]:
            d.push(p)
        with pytest.raises(ValueError, match="points must be finite"):
            d.push(pts[4])

    def test_rejected_flush_drops_the_batch(self):
        # the batch holding the inf is dropped whole; the next 25 points
        # flush five buckets numbered from 1 as if it never arrived
        d = make_driver(m=5)
        pts = np.random.default_rng(4).normal(size=(30, 2))
        pts[2, 1] = np.inf
        for i, p in enumerate(pts):
            if i == 4:
                with pytest.raises(ValueError, match="points must be finite"):
                    d.push(p)
            else:
                d.push(p)
        assert len(d._partial) == 0
        assert d.points_seen == 25
        assert d.buckets_delivered == 5
        assert d.structure.n_ingested == 5
        parts = d.structure.summary()
        assert (parts[0].span_left, parts[-1].span_right) == (1, 5)
        assert sum(b.total_weight() for b in parts) == 25


    @pytest.mark.parametrize("kind", ["ct", "cc"])
    def test_overflowing_merge_drops_the_batch(self, kind):
        # 60 points scaled by 1e153, then 90 normal ones: every merge that
        # overflows raises, the batch that set it off is dropped, and no
        # slot is left holding r buckets
        d = make_driver(kind, k=3, m=30)
        tree = d.structure if kind == "ct" else d.structure.tree
        data = np.random.default_rng(5)
        pts = np.concatenate([data.normal(size=(60, 5)) * 1e153, data.normal(size=(90, 5))])
        raised = 0
        for p in pts:
            try:
                with np.errstate(over="ignore"):
                    d.push(p)
            except ValueError as err:
                assert "overflow" in str(err)
                raised += 1
                assert all(len(slot) < tree.r for slot in tree.slots)
            assert d.points_seen == 30 * d.buckets_delivered + len(d._partial)
            assert tree.n_ingested == (tree.last_right or 0) == d.buckets_delivered
        assert raised >= 1
        with np.errstate(over="ignore"):
            assert d.query().weights.sum() == pytest.approx(d.points_seen)

    @pytest.mark.parametrize("order", [1, 2])
    def test_overflowing_child_merge_drops_the_batch(self, order):
        # the same stream through a recursive cache: the merge that overflows
        # is a child's, and the batch must leave no node a bucket ahead
        cfg = CoresetConfig(k=3, m=30, seed=0)
        d = StreamClusterer(RecursiveCachedTree(cfg, order, seed=0), cfg, query_seed=1)
        data = np.random.default_rng(5)
        pts = np.concatenate([data.normal(size=(60, 5)) * 1e153, data.normal(size=(90, 5))])

        def check_mirrors(node):
            for level, child in node.children.items():
                assert child.n == len(node.tree.slots[level])
                check_mirrors(child)

        raised = 0
        for p in pts:
            try:
                with np.errstate(over="ignore"):
                    d.push(p)
            except ValueError as err:
                assert "overflow" in str(err)
                raised += 1
            assert d.points_seen == 30 * d.buckets_delivered + len(d._partial)
            assert d.structure.n == (d.structure.tree.last_right or 0) == d.buckets_delivered
            check_mirrors(d.structure)
        assert raised >= 1
        with np.errstate(over="ignore"):
            assert d.query().weights.sum() == pytest.approx(d.points_seen)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_push_rejects_a_point_that_is_not_a_vector(algo):
    """Every algorithm's push names the shape of a scalar, a (1, d) row or a
    (d, 1) column and keeps no trace of it: pushed before seeding, at the
    end of warmup and just before a flush, the bad points leave the run's
    answer and stored points bit for bit those of a run without them."""
    cfg = CoresetConfig(k=3, m=10, seed=0)
    pts = np.random.default_rng(6).normal(size=(45, 2))
    runs = [_FACTORIES[algo](cfg, np.random.SeedSequence(7), BenchOptions()) for _ in range(2)]
    for i, p in enumerate(pts):
        if i in (0, 5, 9, 29):
            for bad in (np.float64(1.0), p[None], p[:, None]):
                with pytest.raises(ValueError, match=re.escape(f"shape {bad.shape}")):
                    runs[0].push(bad)
        for run in runs:
            run.push(p)
    got, want = runs[0].query(), runs[1].query()
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert runs[0].stored_points() == runs[1].stored_points()


class TestQuery:
    @pytest.mark.parametrize("kind", ["ct", "cc", "rcc"])
    def test_non_finite_partial_rejected(self, kind):
        d = make_driver(kind, m=10)
        pts = np.random.default_rng(5).normal(size=(15, 2))
        pts[12, 0] = np.nan
        for p in pts:
            d.push(p)
        with pytest.raises(ValueError, match="partial batch points must be finite"):
            d.query()

    def test_zero_points_error(self):
        with pytest.raises(ValueError):
            make_driver().query()

    def test_partial_only_equals_batch(self):
        # everything still buffered: query must equal batch best-of-runs
        cfg = CoresetConfig(k=2, m=100, seed=4)
        d = StreamClusterer(CoresetTree(cfg, 2, rng=np.random.default_rng(4)), cfg,
                            query_seed=77)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 2))
        for p in pts:
            d.push(p)
        got = d.query()
        expect = best_of_runs(pts, np.ones(30), 2, np.random.default_rng(77), runs=5)[0]
        assert np.array_equal(got.centers, expect.centers)
        assert np.array_equal(got.weights, expect.weights)

    def test_k1_returns_global_centroid(self):
        for kind in ("ct", "cc", "rcc"):
            d = make_driver(kind, k=1, m=8, seed=6)
            rng = np.random.default_rng(6)
            pts = rng.normal(size=(50, 2)) + [5.0, -3.0]
            for p in pts:
                d.push(p)
            cs = d.query()
            # k=1 Lloyd converges to the weighted centroid of the summary;
            # weight conservation puts it near the true mean
            assert np.allclose(cs.centers[0], pts.mean(axis=0), atol=0.5)

    @pytest.mark.parametrize("kind", ["ct", "cc", "rcc"])
    def test_no_points_lost(self, kind):
        d = make_driver(kind, k=2, m=5, seed=7)
        rng = np.random.default_rng(8)
        for p in rng.normal(size=(43, 2)):
            d.push(p)
        if kind == "ct":
            parts = d.structure.summary()
        else:
            parts = [d.structure.coreset()]
        total = sum(b.total_weight() for b in parts) + len(d._partial)
        assert total == pytest.approx(43.0, rel=1e-9)

    def test_determinism(self):
        runs = []
        for _ in range(2):
            d = make_driver("cc", k=2, m=5, seed=9)
            rng = np.random.default_rng(10)
            outs = []
            for i, p in enumerate(rng.normal(size=(60, 2)), 1):
                d.push(p)
                if i % 20 == 0:
                    outs.append(d.query().centers)
            runs.append(outs)
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_stored_points_accounting(self):
        d = make_driver("cc", k=2, m=5, seed=11)
        rng = np.random.default_rng(12)
        for p in rng.normal(size=(23, 2)):
            d.push(p)
        assert d.stored_points() == d.structure.stored_points() + 3


def pool_of(driver):
    """The weighted pool a query of this driver clusters."""
    parts = driver.structure.summary()
    points = [b.points for b in parts] + [np.array(driver._partial).reshape(-1, driver._dim)]
    weights = [b.weights for b in parts] + [np.ones(len(driver._partial))]
    return np.concatenate(points), np.concatenate(weights)


def emerging_stream(seed, n_half, d=5, spread=2.0, k=10):
    """n_half points from the first k/2 of k Gaussians, then n_half from all k."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 100.0, size=(k, d))
    labels = np.concatenate([rng.integers(k // 2, size=n_half), rng.integers(k, size=n_half)])
    return centers[labels] + rng.normal(0.0, spread, size=(2 * n_half, d))


class TestWarmStart:
    """The first answer is best_of_runs with the driver's runs; every later
    one is the cheaper of one fresh seeded run and Lloyd from the last answer."""

    @pytest.mark.parametrize("kind", ["ct", "cc", "rcc"])
    def test_first_answer_is_best_of_runs(self, kind):
        d = make_driver(kind, k=3, m=20, seed=15)
        for p in np.random.default_rng(15).normal(size=(107, 3)):
            d.push(p)
        got, cost = d.query_with_cost()
        points, weights = pool_of(d)  # on cc and rcc, the repeat path's pool
        want, want_cost = best_of_runs(points, weights, 3, np.random.default_rng(16), runs=5)
        assert got.centers.tobytes() == want.centers.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes() and cost == want_cost

    @pytest.mark.parametrize("kind", ["ct", "cc", "rcc"])
    def test_later_answer_starts_from_the_last(self, kind):
        d = make_driver(kind, k=3, m=20, seed=17)
        pts = np.random.default_rng(17).normal(size=(150, 3))
        for p in pts[:90]:
            d.push(p)
        first = d.query()
        rng = np.random.default_rng(18)
        replay = best_of_runs(*pool_of(d), 3, rng, runs=5)[0]
        assert first.centers.tobytes() == replay.centers.tobytes()
        for p in pts[90:]:
            d.push(p)
        got, cost = d.query_with_cost()
        want, want_cost = best_of_runs(*pool_of(d), 3, rng, runs=1, start=first.centers)
        assert got.centers.tobytes() == want.centers.tobytes() and cost == want_cost

    def test_repeat_query_never_costs_more(self):
        d = make_driver("cc", k=4, m=20, seed=19)
        for p in np.random.default_rng(19).normal(size=(160, 2)):
            d.push(p)
        costs = [d.query_with_cost()[1] for _ in range(4)]  # the repeat path: one pool
        assert d.structure.last_query_path == "cached"
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_emerging_clusters(self, seed):
        # Lloyd from the last answer alone stays stuck with the first five
        # clusters' centers (10-24x batch on these seeds); the fresh run
        # finds the other five.
        k, m = 10, 200
        pts = emerging_stream(seed, 8000, k=k)
        batch = batch_reference(pts, k, seed=0)
        for kind in ("ct", "cc"):
            d = make_driver(kind, k=k, m=m, seed=seed)
            for i, p in enumerate(pts, 1):
                d.push(p)
                if i % m == 0:
                    answer = d.query()
            assert clustering_cost(pts, answer.centers) <= 1.5 * batch, kind


class TestAssignmentPasses:
    """An answer, its weights and its cost come from best_of_runs' own
    assignments: the driver and online's warmup make no pass of their own."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Every assign_to_centers call made through kmeans, driver or online."""
        calls = []
        real = streamkm.kmeans.assign_to_centers

        def counting(points, centers):
            calls.append(len(points))
            return real(points, centers)

        for module in (streamkm.kmeans, streamkm.driver, streamkm.online):
            if hasattr(module, "assign_to_centers"):
                monkeypatch.setattr(module, "assign_to_centers", counting)
        return calls

    @pytest.mark.parametrize("kind", ["ct", "cc"])
    def test_query_makes_only_best_of_runs_passes(self, kind, passes, monkeypatch):
        inside = []
        real = streamkm.driver.best_of_runs

        def counted(*args, **kwargs):
            before = len(passes)
            answer = real(*args, **kwargs)
            inside.append(len(passes) - before)
            return answer

        monkeypatch.setattr(streamkm.driver, "best_of_runs", counted)
        d = make_driver(kind, k=3, m=20, seed=13)
        for p in np.random.default_rng(13).normal(size=(107, 3)):
            d.push(p)
        passes.clear()
        for _ in range(2):  # on cc the second query takes the repeat path
            d.query_with_cost()
        assert len(inside) == 2 and min(inside) >= 1
        assert len(passes) == sum(inside)

    def test_online_warmup_makes_one_pass(self, passes):
        oc = OnlineClusterer(CoresetConfig(k=3, m=20, seed=14), warmup=9)
        oc.initialize(np.random.default_rng(14).normal(size=(9, 2)))
        assert passes == [9]
