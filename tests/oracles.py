"""Independent reference computations shared by the test modules."""

import math

import numpy as np

from streamkm.coreset import Bucket
from streamkm.kmeans import CenterSet
from streamkm.online import OnlineClusterer


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


# Reference nearest-center kernel: the full (n, k) squared-distance matrix
# with its four full-size temporaries.  The library's tiled kernel must
# reproduce it bit for bit, and every reference below runs on it.


def sq_dists_to_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) matrix of squared distances; small negatives from the GEMM
    expansion are clipped to zero."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if points.shape[1] != centers.shape[1]:
        raise ValueError(
            f"dimension mismatch: points d={points.shape[1]}, centers d={centers.shape[1]}"
        )
    p2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = p2[:, None] + c2[None, :] - 2.0 * (points @ centers.T)
    return np.maximum(d2, 0.0)


def assign_to_centers(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center index and squared distance per point.

    Ties go to the lowest center index (argmin semantics), which keeps
    assignments deterministic.
    """
    d2 = sq_dists_to_centers(points, centers)
    idx = np.argmin(d2, axis=1)
    return idx, d2[np.arange(len(d2)), idx]


def clustering_cost(points, centers, weights=None) -> float:
    """Sum over points of weight times squared distance to the nearest center.

    An empty point set costs 0; an empty center set is an error.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if centers.size == 0:
        raise ValueError("clustering_cost requires at least one center")
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        return 0.0
    points = np.atleast_2d(points)
    _, d2 = assign_to_centers(points, centers)
    if weights is None:
        return float(np.sum(d2))
    return float(np.dot(np.asarray(weights, dtype=np.float64), d2))


# Reference final clustering: one independent D^2 seeding and one Lloyd loop
# per run, each followed by a fresh cost pass.  The library's seeding, its
# one-assignment Lloyd loop and its best-of-runs wrapper must reproduce these
# bit for bit.


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


# Reference reduction: the lightweight-coreset draw, then one full
# nearest-representative pass over every input point, drawn or not.  The
# library assigns only the undrawn points, and must reproduce this bit for
# bit except where two drawn points lie within rounding of each other: there
# the expanded-form pass can hand one of them to the other.


def build_coreset(cfg, inputs, rng: np.random.Generator) -> Bucket:
    """Reduce contiguous buckets to at most m weighted representatives; a
    representative that collects no weight (a duplicate draw) is dropped."""
    ordered = sorted(inputs, key=lambda b: b.span_left)
    points = np.concatenate([b.points for b in ordered])
    weights = np.concatenate([b.weights for b in ordered])
    level = 1 + max(b.level for b in ordered)
    span_l, span_r = ordered[0].span_left, ordered[-1].span_right
    if len(points) <= cfg.m:
        return Bucket(points, weights, span_l, span_r, level)
    total = weights.sum()
    diff = points - weights @ points / total
    spread = weights * np.einsum("ij,ij->i", diff, diff)
    q = weights / total
    if spread.sum() > 0.0:
        q = 0.5 * q + 0.5 * spread / spread.sum()
    keys = rng.exponential(size=len(points)) / q
    seeds = points[np.sort(np.argpartition(keys, cfg.m - 1)[: cfg.m])]
    assign, _ = assign_to_centers(points, seeds)
    agg = np.bincount(assign, weights=weights, minlength=cfg.m)
    return Bucket(seeds[agg > 0], agg[agg > 0], span_l, span_r, level)


def same_bits(x, y) -> bool:
    """Equal bytes: tells -0.0 from 0.0 and needs no tolerance."""
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


# Reference MacQueen step: one full squared-distance pass per point through
# sq_dists_to_centers, on a CenterSet built for the call.  The library's
# spare-row step must reproduce it bit for bit.


class SequentialKMeans:
    """One-pass streaming clusterer.

    The first k stream points become the centers (weight 1 each); every
    later point takes one sequential_update step.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._state: CenterSet | None = None
        self._seeded = 0

    @property
    def initialized(self) -> bool:
        return self._seeded >= self.k

    def update(self, p) -> None:
        if self._seeded < self.k:
            p = np.asarray(p, dtype=np.float64)
            if not math.isfinite(p @ p):
                raise ValueError("point is not finite or its squared norm overflows")
            if self._state is None:
                self._state = CenterSet(np.zeros((self.k, p.shape[0])), np.zeros(self.k))
            self._state.centers[self._seeded] = p
            self._state.weights[self._seeded] = 1.0
            self._seeded += 1
            return
        sequential_update(self._state, p)

    def center_set(self) -> CenterSet:
        """Current centers; before k points arrive, the seeded prefix."""
        if self._seeded == 0:
            raise RuntimeError("no points seen yet")
        s = self._seeded
        return CenterSet(self._state.centers[:s].copy(), self._state.weights[:s].copy())

    def stored_points(self) -> int:
        return self.k


def sequential_update(state: CenterSet, p) -> float:
    """Single MacQueen step on an initialized CenterSet, in place.

    The nearest center moves to the weighted centroid (w*c + p) / (w + 1)
    and its weight grows by one.  Returns the squared distance from p to
    that center before the move.  A point whose squared distance is not
    finite (a NaN or inf coordinate, or one so large that it overflows) is
    rejected before any center moves.
    """
    p = np.asarray(p, dtype=np.float64)
    if state.centers is None or len(state.centers) == 0:
        raise ValueError("sequential update requires an initialized center set")
    d2 = sq_dists_to_centers(p[None, :], state.centers)[0]
    j = int(np.argmin(d2))
    if not math.isfinite(d2[j]):
        raise ValueError(f"point is not finite or its squared distance overflows (d2={d2[j]})")
    w = state.weights[j]
    state.centers[j] = (w * state.centers[j] + p) / (w + 1.0)
    state.weights[j] = w + 1.0
    return float(d2[j])


class OnlineReference(OnlineClusterer):
    """OnlineClusterer with the reference step: centers and weights are plain
    attributes, replaced at each recomputation, and every point builds a
    CenterSet for the step."""

    def initialize(self, s0) -> None:
        """Seed centers from the warmup set and start the cost estimate there.

        The warmup points also enter the background coreset pipeline so a
        later fallback summarizes the stream from its very first point.  A
        set with a point that is not finite, or large enough to overflow a
        squared norm, is rejected whole; ingest() then starts a new one.
        """
        s0 = np.atleast_2d(np.asarray(s0, dtype=np.float64))
        if len(s0) < self.cfg.k:
            raise ValueError(f"warmup set has {len(s0)} points, need >= {self.cfg.k}")
        flat = s0.ravel()
        if not math.isfinite(flat @ flat):
            raise ValueError("warmup points are not finite or their squared norms overflow")
        ones = np.ones(len(s0))
        self.centers = kmeans_pp(s0, ones, self.cfg.k, self._rng)
        assign, _ = assign_to_centers(s0, self.centers)
        self.center_weights = np.bincount(assign, minlength=len(self.centers)).astype(
            np.float64
        )
        cost = clustering_cost(s0, self.centers, ones)
        self.phi_prev = cost
        self.phi_now = cost
        for p in s0:
            self.driver.push(p)

    def update(self, p) -> None:
        """Absorb one point: bump phi_now, move the nearest center, buffer."""
        if self.centers is None:
            raise RuntimeError("clusterer not initialized; feed warmup points first")
        self.phi_now += sequential_update(CenterSet(self.centers, self.center_weights), p)
        self.driver.push(p)

    def query(self) -> CenterSet:
        """Current centers; recomputed from the coreset only past threshold."""
        if self.centers is None:
            raise RuntimeError("clusterer not initialized; feed warmup points first")
        self.last_fell_back = self.phi_now > self.alpha * self.phi_prev
        if self.last_fell_back:
            answer, self.phi_prev = self.driver.query_with_cost()
            self.centers, self.center_weights = answer.centers, answer.weights
            self.phi_now = self.phi_prev / (1.0 - self.eps)
            self.fallback_count += 1
        return CenterSet(self.centers.copy(), self.center_weights.copy())
