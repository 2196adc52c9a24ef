"""Acceptance suite: one test per criterion, each printing a PASS line
(run with -s to see them).  Two sub-criteria assert bounds that are
mathematically out of reach for any implementation with this structure;
they are kept as stated, fail with an explanation, and have green
companions asserting the provable form.
"""

import math
import time

import numpy as np
import pytest
from oracles import base_r_digits, brute_force_2means

from streamkm import (
    Bucket,
    CachedCoresetTree,
    CoresetConfig,
    CoresetTree,
    OnlineClusterer,
    RecursiveCachedTree,
    clustering_cost,
    kmeans_pp,
)
from streamkm.bench import BenchOptions, batch_reference, run_benchmark
from streamkm.cli import main as cli_main
from streamkm.data import drift_stream, DriftConfig, gaussian_mixture
from streamkm.radix import decompose, major, minor, partsum, prefixsum


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def base_bucket(rng, i, n=4, d=2):
    return Bucket(rng.normal(size=(n, d)), np.ones(n), i, i, 0)


# --------------------------------------------------------------------------
# 1. radix laws, exhaustive to 1e5
# --------------------------------------------------------------------------
def test_criterion_01_radix_laws():
    t0 = time.perf_counter()
    limit = 100_000
    for r in (2, 3, 5, 10):
        ps_prev: set[int] = set()
        for n in range(1, limit + 1):
            ps = prefixsum(n, r)
            ps_set = set(ps)
            ma = major(n, r)
            assert ma + minor(n, r) == n
            assert ma == 0 or ma in ps_set
            if n > 1:
                # prefixsum(n) only ever extends prefixsum(n-1) by n-1
                assert ps_set <= ps_prev | {n - 1}
            ps_prev = ps_set
    for n in range(1, limit + 1):
        assert partsum(n) == prefixsum(n, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"radix laws took {elapsed:.1f}s, budget 5s"
    report("criterion 1", f"radix laws exact on n<=1e5, r in 2/3/5/10 ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 2. coreset tree invariants over 1e4 updates
# --------------------------------------------------------------------------
def test_criterion_02_tree_invariants():
    t0 = time.perf_counter()
    n_updates = 10_000
    for r in (2, 3, 5):
        cfg = CoresetConfig(k=2, m=40, seed=7)
        rng = np.random.default_rng(r)
        tree = CoresetTree(cfg, r=r)
        total_weight = 0.0
        for i in range(1, n_updates + 1):
            tree.update(Bucket(rng.normal(size=(40, 2)), np.ones(40), i, i, 0))
            total_weight += 40.0
            counts = tree.level_counts()
            digits = base_r_digits(i, r)
            assert counts[: len(digits)] == digits, f"digit invariant at N={i}"
            assert all(c == 0 for c in counts[len(digits):])
            assert tree.max_level() <= int(math.log(i, r) + 1e-9)
            buckets = tree.summary()
            assert buckets[0].span_left == 1 and buckets[-1].span_right == i
            assert all(
                b.span_left == a.span_right + 1 for a, b in zip(buckets, buckets[1:])
            )
            got = sum(b.total_weight() for b in buckets)
            assert abs(got - total_weight) <= 1e-9 * total_weight
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"tree invariants took {elapsed:.1f}s, budget 30s"
    report(
        "criterion 2",
        f"digit/level/span/weight invariants over {n_updates} updates, "
        f"r in 2/3/5 ({elapsed:.1f}s)",
    )


# --------------------------------------------------------------------------
# 3. cache-key correctness and query structure under query-every-bucket
# --------------------------------------------------------------------------
def test_criterion_03_cache_structure():
    for r in (2, 3, 5):
        cfg = CoresetConfig(k=2, m=10, seed=11)
        cc = CachedCoresetTree(cfg, r=r)
        rng = np.random.default_rng(r)
        for i in range(1, 2001):
            assert set(prefixsum(i, r)) <= set(cc.cache_keys()), (
                f"r={r}: prefixsum({i}) missing from cache before bucket {i}"
            )
            cc.update(base_bucket(rng, i))
            out = cc.coreset()
            assert len(cc.cache_keys()) <= math.ceil(math.log(max(i, 2), r)) + 1
            assert cc.last_query_width <= r
            # level bound in the form the inductive proof establishes
            chi = len(decompose(i, r))
            assert out.level <= math.ceil(math.log(i, r) - 1e-9) + chi - 1
            assert out.level <= max(2 * math.ceil(math.log(i, r) - 1e-9) - 1, 0)
    report(
        "criterion 3",
        "cache keys cover prefixsum(N), size <= ceil(log_r N)+1, merge width "
        "<= r, level <= ceil(log_r N)+chi(N)-1, for N<=2000, r in 2/3/5",
    )


def test_criterion_03_level_bound_literal_form():
    """Literal form: returned level <= ceil(2*log_r N) - 1.

    This form is unsatisfiable at N=1 (bound -1, but levels are >= 0) and
    fails at (r=5, N=2) and (r=5, N=11) for any implementation whose cache
    entries are reduced to m points: ceil(2x)-1 can undercut the
    proof-backed bound ceil(x)+chi-1 because ceil(2x) != 2*ceil(x).  The
    provable form is asserted green in test_criterion_03.
    """
    violations = []
    for r in (2, 3, 5):
        cfg = CoresetConfig(k=2, m=10, seed=11)
        cc = CachedCoresetTree(cfg, r=r)
        rng = np.random.default_rng(r)
        for i in range(1, 2001):
            cc.update(base_bucket(rng, i))
            out = cc.coreset()
            bound = math.ceil(2 * math.log(i, r) - 1e-9) - 1
            if out.level > bound:
                violations.append((r, i, out.level, bound))
    assert not violations, (
        "level exceeds ceil(2*log_r N)-1 at (r, N, level, bound): "
        f"{violations}; the bound's N=1 instance (-1) is unreachable for any "
        "bucket and the r=5 cases trace to ceil(2x) < 2*ceil(x)"
    )


# --------------------------------------------------------------------------
# 4. worked example: r=3 driven to N=47
# --------------------------------------------------------------------------
def test_criterion_04_worked_example_47():
    cfg = CoresetConfig(k=2, m=10, seed=13)
    cc = CachedCoresetTree(cfg, r=3)
    rng = np.random.default_rng(4)
    for i in range(1, 48):
        cc.update(base_bucket(rng, i))
        cc.coreset()
    assert cc.cache_keys() == [27, 45, 47]
    report("criterion 4", "r=3 query-every-bucket at N=47 caches exactly {27,45,47}")


# --------------------------------------------------------------------------
# 5. recursive cache: memory, order-0 equivalence, merge counts
# --------------------------------------------------------------------------
@pytest.mark.parametrize("order", [0, 1, 2])
def test_criterion_05_memory_bound(order):
    """Total buckets (node + live descendants) <= 6 * r after each update.

    Holds for orders 0 and 2 on 2000-bucket update-only streams.  For
    order 1 it fails at exactly N=1023 = (33333) base 4: the five lists
    hold 15 buckets and the five mirroring degree-2 children hold 2 each,
    25 > 24.  The 6r constant comes from an induction over nodes that
    ingest fewer than r^2 buckets (child regime, where it does hold; see
    the companion bound in the recursive-structure tests); a top-level
    node on a longer stream accrues one list plus one child per extra
    level.
    """
    cfg = CoresetConfig(k=2, m=10, seed=17)
    node = RecursiveCachedTree(cfg, order)
    rng = np.random.default_rng(order)
    worst = (0, 0)
    for i in range(1, 2001):
        node.update(base_bucket(rng, i))
        count = node.bucket_count()
        if count > worst[0]:
            worst = (count, i)
        assert count <= 6 * node.r, (
            f"order {order}: {count} buckets at N={i} exceeds 6*r = {6 * node.r}"
        )
    report(
        "criterion 5 (memory)",
        f"order {order}: bucket count <= {6 * node.r} over 2000 updates "
        f"(peak {worst[0]} at N={worst[1]})",
    )


def test_criterion_05_order0_matches_cc():
    cfg = CoresetConfig(k=2, m=10, seed=19)
    rcc = RecursiveCachedTree(cfg, 0)
    cc = CachedCoresetTree(cfg, r=2)
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    for i in range(1, 2001):
        rcc.update(base_bucket(rng_a, i))
        cc.update(base_bucket(rng_b, i))
        a, b = rcc.coreset(), cc.coreset()
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)
        assert (a.span, a.level) == (b.span, b.level)
    report("criterion 5 (order 0)", "RCC(0) matches CC(r=2) bucket-for-bucket, N<=2000")


@pytest.mark.parametrize("order", [0, 1, 2])
def test_criterion_05_query_merge_count(order):
    cfg = CoresetConfig(k=2, m=10, seed=23)
    node = RecursiveCachedTree(cfg, order)
    rng = np.random.default_rng(6 + order)
    worst = 0
    for i in range(1, 2001):
        node.update(base_bucket(rng, i))
        node.coreset()
        worst = max(worst, node.last_query_merge_count)
        assert node.last_query_merge_count <= 2 * (order + 1)
    report(
        "criterion 5 (merge count)",
        f"order {order}: query merges <= {2 * (order + 1)} buckets (peak {worst})",
    )


# --------------------------------------------------------------------------
# 6. online cost bound on 20 seeded streams
# --------------------------------------------------------------------------
def test_criterion_06_online_upper_bound():
    checked = 0
    for seed in range(20):
        cfg = DriftConfig(
            total_points=10_000,
            drift=np.full(2, 0.05),
            n_centers=10,
            points_per_step=50,
            std=1.0,
            seed=seed,
        )
        stream = drift_stream(cfg)
        oc = OnlineClusterer(
            CoresetConfig(k=5, m=200, seed=seed),
            alpha=1.2,
            eps=0.1,
            warmup=10,
            seed=seed + 1000,
        )
        for i, p in enumerate(stream, 1):
            oc.push(p)
            if i % 500 == 0:
                should_fall = oc.phi_now > oc.alpha * oc.phi_prev
                oc.query()
                assert oc.last_fell_back == should_fall
                true_cost = clustering_cost(stream[:i], oc.centers)
                assert oc.phi_now >= true_cost * (1 - 1e-6), (
                    f"seed {seed}, point {i}: phi_now={oc.phi_now} below exact "
                    f"SSQ {true_cost}"
                )
                checked += 1
    report(
        "criterion 6",
        f"phi_now >= exact SSQ at all {checked} queries over 20 streams of 1e4 "
        "points; fallback fires iff phi_now > alpha*phi_prev",
    )


# --------------------------------------------------------------------------
# 7. seeding quality against the enumeration oracle
# --------------------------------------------------------------------------
def test_criterion_07_seeding_quality():
    bound = 8.0 * (math.log(2) + 2.0)
    inst_rng = np.random.default_rng(29)
    for inst in range(30):
        n = int(inst_rng.integers(5, 11))
        scale = inst_rng.uniform(0.5, 4.0)
        pts = inst_rng.normal(size=(n, 2)) * scale
        pts[n // 2 :] += inst_rng.uniform(2.0, 12.0, size=2)
        w = np.ones(n)
        opt = brute_force_2means(pts, w)
        mean_cost = np.mean(
            [
                clustering_cost(pts, kmeans_pp(pts, w, 2, np.random.default_rng(s)), w)
                for s in range(200)
            ]
        )
        assert mean_cost <= bound * opt + 1e-12, (
            f"instance {inst}: mean {mean_cost} > {bound} * {opt}"
        )
    report(
        "criterion 7",
        f"mean seeding cost <= 8(ln 2 + 2) = {bound:.2f} x enumerated optimum "
        "on 30 instances x 200 seeds",
    )


# --------------------------------------------------------------------------
# 8 & 9. end-to-end quality and query-cost separation on one dataset
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def mixture_50k():
    return gaussian_mixture(10, 50_000, 5, 2.0, seed=42)


def test_criterion_08_end_to_end_quality(mixture_50k):
    t0 = time.perf_counter()
    points = mixture_50k
    k, m, q = 10, 200, 500
    schedule = list(range(q, len(points) + 1, q))
    batch = batch_reference(points, k, seed=0, runs=5)
    opts = BenchOptions(timing=False, rcc_order=2, exact_ssq=True)

    finals = {}
    for algo in ("ct", "cc", "rcc", "online", "seq"):
        ssqs = []
        for run in range(9):
            cfg = CoresetConfig(k=k, m=m, seed=100 + run)
            metrics = run_benchmark(
                algo, points, schedule, cfg, seed=100 + run, opts=opts
            )
            ssqs.append(metrics.final_ssq)
        finals[algo] = float(np.median(ssqs))

    for algo in ("ct", "cc", "rcc", "online"):
        assert finals[algo] <= 1.5 * batch, (
            f"{algo}: median SSQ {finals[algo]:.0f} > 1.5 x batch {batch:.0f}"
        )
    assert finals["seq"] >= finals["cc"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s, budget 300s"
    ratios = {a: round(finals[a] / batch, 3) for a in finals}
    report(
        "criterion 8",
        f"median-of-9 SSQ vs batch best-of-5: {ratios} "
        f"(all streaming trees <= 1.5x, seq >= cc; {elapsed:.0f}s)",
    )


def test_criterion_09_query_cost_separation(mixture_50k):
    # Same data and seed as criterion 8, queried at every bucket boundary so
    # the cache discipline the separation relies on actually holds.
    points = mixture_50k
    k, m, r = 10, 200, 2
    cfg = CoresetConfig(k=k, m=m, seed=100)
    ct = CoresetTree(cfg, r=r, rng=np.random.default_rng(100))
    cc = CachedCoresetTree(cfg, r=r, seed=100)
    n_buckets = len(points) // m
    ct_widths, cc_widths = [], []
    for i in range(1, n_buckets + 1):
        chunk = points[(i - 1) * m : i * m]
        ct.update(Bucket(chunk, np.ones(m), i, i, 0))
        cc.update(Bucket(chunk.copy(), np.ones(m), i, i, 0))
        ct_widths.append(len(ct.summary()))
        cc.coreset()
        cc_widths.append(cc.last_query_width)
        assert cc_widths[-1] <= r
    # the run advanced far past r^3 buckets: the tree's peak per-query merge
    # width must be at least twice the cache's
    assert n_buckets >= r**3
    assert max(ct_widths) >= 2 * max(cc_widths)
    # tree query width tracks the digit sum, which grows with log_r N
    assert max(ct_widths) == max(sum(base_r_digits(i, r)) for i in range(1, n_buckets + 1))
    report(
        "criterion 9",
        f"per-query merge width over {n_buckets} buckets: cc <= {r}, "
        f"ct peaks at {max(ct_widths)} (>= 2x cc's {max(cc_widths)})",
    )


# --------------------------------------------------------------------------
# 10. CLI determinism
# --------------------------------------------------------------------------
def test_criterion_10_cli_determinism(tmp_path):
    args = [
        "--algo", "cc", "--gen", "mixture", "--gen-n", "3000", "--gen-d", "2",
        "--gen-clusters", "5", "--gen-spread", "1.5", "--k", "5", "--m", "50",
        "--query-interval", "500", "--runs", "2", "--seed", "9",
        "--best-of", "3", "--lloyd-iters", "10", "--timing", "off",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "first")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first" / "results.csv").read_bytes()
    second = (tmp_path / "second" / "results.csv").read_bytes()
    assert first == second
    assert (tmp_path / "first" / "summary.json").read_bytes() == (
        tmp_path / "second" / "summary.json"
    ).read_bytes()
    report("criterion 10", "identical CLI invocations produce byte-identical CSV/JSON")
