"""Output checks computed with the benchmark's own code, never with streamkm.

Each check returns an error message, or None when the output passes.
``self_test`` feeds corrupted answers to the checks and confirms that each
one is rejected, so a check that silently passes everything shows up.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.cluster.vq import kmeans2

QUALITY_FACTOR = 1.5  # final SSQ may be at most this multiple of the batch reference
WEIGHT_RTOL = 1e-9
PHI_RTOL = 1e-6


def exact_ssq(points: np.ndarray, centers: np.ndarray, chunk: int = 4096) -> float:
    """Sum of squared distances to the nearest center, by explicit differences."""
    total = 0.0
    for lo in range(0, len(points), chunk):
        block = points[lo : lo + chunk]
        best = np.full(len(block), np.inf)
        for c in centers:
            diff = block - c
            np.minimum(best, np.einsum("ij,ij->i", diff, diff), out=best)
        total += float(best.sum())
    return total


def batch_reference(points: np.ndarray, k: int, seed: int, runs: int = 6, iters: int = 20) -> float:
    """Lowest exact SSQ over `runs` scipy k-means++/Lloyd clusterings of all points."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    best = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an emptied cluster is re-seeded, not an error
        for _ in range(runs):
            centers, _ = kmeans2(points, k, iter=iters, minit="++", seed=rng)
            best = min(best, exact_ssq(points, centers))
    return best


def check_answer(centers, weights, k: int, d: int, seen: int) -> str | None:
    """k finite centers of dimension d whose weights sum to the points seen."""
    centers = np.asarray(centers)
    if centers.shape != (k, d):
        return f"centers have shape {centers.shape}, expected {(k, d)}"
    if not np.all(np.isfinite(centers)):
        return "non-finite center coordinates"
    total = float(np.sum(weights))
    if abs(total - seen) > WEIGHT_RTOL * seen:
        return f"center weights sum to {total!r}, {seen} points ingested"
    return None


def check_quality(ssq: float, reference: float) -> str | None:
    if not ssq <= QUALITY_FACTOR * reference:
        return f"final SSQ {ssq:.6g} exceeds {QUALITY_FACTOR} x batch {reference:.6g}"
    return None


def check_phi(phi_now: float, ssq: float) -> str | None:
    """The online cost bound must not fall below the exact cost of its centers."""
    if not phi_now >= (1.0 - PHI_RTOL) * ssq:
        return f"phi_now {phi_now:.9g} below exact prefix SSQ {ssq:.9g}"
    return None


def _ceil_log(n: int, r: int) -> int:
    e, p = 0, 1
    while p < n:
        p *= r
        e += 1
    return e


def space_bound(seen: int, m: int, r: int, cached: bool) -> int:
    """Most points a degree-r tree (plus its query cache) may hold after `seen` points.

    The tree holds one m-point bucket per unit of the base-r digit sum of the
    bucket count; the cache holds at most ceil(log_r N) + 1 summaries; the
    driver holds the partial bucket.
    """
    buckets, partial = divmod(seen, m)
    digits, n = 0, buckets
    while n:
        n, digit = divmod(n, r)
        digits += digit
    bound = m * digits + partial
    if cached and buckets:
        bound += m * (_ceil_log(buckets, r) + 1)
    return bound


def check_space(stored: int, seen: int, m: int, r: int, cached: bool) -> str | None:
    bound = space_bound(seen, m, r, cached)
    if stored > bound:
        return f"{stored} stored points after {seen} points exceed the bound {bound}"
    return None


def self_test() -> list[str]:
    """Feed each check a correct and a corrupted answer; list what went wrong."""
    rng = np.random.default_rng(0)
    k, d, m, r = 3, 2, 10, 2
    true = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    points = true[rng.integers(k, size=300)] + rng.normal(0.0, 1.0, size=(300, d))
    reference = batch_reference(points, k, seed=0)
    weights = np.full(k, len(points) / k)
    shifted = true + 25.0
    seen = 137  # 13 buckets (binary 1101: digit sum 3) plus 7 points
    bound = space_bound(seen, m, r, cached=True)
    cases = [
        ("correct centers", check_quality(exact_ssq(points, true), reference), False),
        ("shifted centers", check_quality(exact_ssq(points, shifted), reference), True),
        ("correct weights", check_answer(true, weights, k, d, len(points)), False),
        ("weights off by one point",
         check_answer(true, weights - np.eye(k)[0], k, d, len(points)), True),
        ("stored points at the bound", check_space(bound, seen, m, r, True), False),
        ("stored points above the bound", check_space(bound + 1, seen, m, r, True), True),
        ("bound arithmetic", None if bound == m * 3 + 7 + m * 5 else f"bound {bound}", False),
    ]
    problems = []
    for label, error, should_fail in cases:
        if (error is not None) != should_fail:
            problems.append(f"self-test {label}: {'accepted' if should_fail else error}")
    return problems
