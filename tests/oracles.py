"""Independent reference computations shared by the test modules."""

import numpy as np

from streamkm.kmeans import assign_to_centers, clustering_cost


def brute_force_2means(points, weights):
    """Exact 2-means by enumerating every bipartition, centers at centroids.

    Uses the identity sum_w ||x - centroid||^2 = sum_w ||x||^2 -
    ||sum_w x||^2 / sum_w so all partitions evaluate vectorized; point 0 is
    pinned to the first part to skip mirrored partitions.
    """
    points = np.asarray(points, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = len(points)
    wx = weights[:, None] * points
    wss = weights * np.einsum("ij,ij->i", points, points)
    tot_w, tot_wx, tot_wss = weights.sum(), wx.sum(axis=0), wss.sum()

    best = np.inf
    all_masks = np.arange(1, 2 ** (n - 1), dtype=np.uint32)
    for lo in range(0, len(all_masks), 1 << 16):
        masks = all_masks[lo : lo + (1 << 16)]
        bits = ((masks[:, None] >> np.arange(n - 1)) & 1).astype(np.float64)
        a_w = bits @ weights[1:]
        a_wx = bits @ wx[1:]
        a_wss = bits @ wss[1:]
        b_w, b_wx, b_wss = tot_w - a_w, tot_wx - a_wx, tot_wss - a_wss
        cost = (
            a_wss
            - np.einsum("ij,ij->i", a_wx, a_wx) / np.where(a_w > 0, a_w, 1)
            + b_wss
            - np.einsum("ij,ij->i", b_wx, b_wx) / b_w
        )
        best = min(best, float(cost.min()))
    return best


def base_r_digits(n, r):
    """Digits of n in base r, least significant first (includes zeros)."""
    out = []
    while n:
        n, d = divmod(n, r)
        out.append(d)
    return out


# Reference final clustering: one independent D^2 seeding and one Lloyd loop
# per run, each followed by a fresh cost pass.  The library's stacked
# versions must reproduce these bit for bit.


def _draw(prob: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn proportionally to prob (not necessarily normalized)."""
    cum = np.cumsum(prob)
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, len(prob) - 1)


def d2_sample(points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of up to k seeds: first drawn by weight, the rest by
    weight times squared distance to the seeds chosen so far.

    Stops early once every point coincides with a chosen seed, so the
    result never contains duplicate coordinates.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    n = len(points)
    if n == 0:
        raise ValueError("cannot sample seeds from an empty point set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def d2_to(idx: int) -> np.ndarray:
        diff = points - points[idx]
        return np.einsum("ij,ij->i", diff, diff)

    chosen = [_draw(weights, rng)]
    closest = d2_to(chosen[-1])
    while len(chosen) < k:
        prob = weights * closest
        if prob.sum() <= 0.0:
            break  # every remaining point duplicates a chosen seed
        chosen.append(_draw(prob, rng))
        np.minimum(closest, d2_to(chosen[-1]), out=closest)
    return np.array(chosen, dtype=np.intp)


def kmeans_pp(points, weights, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-sampling seeding; returns up to k distinct centers drawn from the set."""
    idx = d2_sample(points, weights, k, rng)
    return np.atleast_2d(np.asarray(points, dtype=np.float64))[idx].copy()


def lloyd_refine(points, centers, weights=None, max_iters: int = 20) -> np.ndarray:
    """Weighted Lloyd iterations from the given centers.

    Stops after max_iters or as soon as assignments repeat; a cluster that
    loses all points keeps its previous center.  Cost never increases.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64)).copy()
    if weights is None:
        weights = np.ones(len(points))
    weights = np.asarray(weights, dtype=np.float64)
    k = len(centers)
    weighted_points = points * weights[:, None]
    prev_assign = None
    for _ in range(max_iters):
        assign, _ = assign_to_centers(points, centers)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        wsum = np.bincount(assign, weights=weights, minlength=k)
        sums = np.stack(
            [
                np.bincount(assign, weights=weighted_points[:, j], minlength=k)
                for j in range(points.shape[1])
            ],
            axis=1,
        )
        occupied = wsum > 0
        centers[occupied] = sums[occupied] / wsum[occupied, None]
    return centers


def best_of_runs(
    points,
    weights,
    k: int,
    rng: np.random.Generator,
    runs: int = 5,
    lloyd_iters: int = 20,
) -> np.ndarray:
    """Best of several independent seed-then-refine runs, by cost on the inputs."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    sub_seeds = rng.integers(0, 2**63, size=runs)
    best_centers = None
    best_cost = np.inf
    for seed in sub_seeds:
        sub_rng = np.random.default_rng(int(seed))
        centers = kmeans_pp(points, weights, k, sub_rng)
        if lloyd_iters > 0:
            centers = lloyd_refine(points, centers, weights, max_iters=lloyd_iters)
        cost = clustering_cost(points, centers, weights)
        if cost < best_cost:
            best_cost = cost
            best_centers = centers
    if best_centers is None:
        raise ValueError("no run reached a finite cost; squared distances overflow float64")
    return best_centers
