"""Weighted k-means primitives.

Point sets are (n, d) float64 arrays with a parallel (n,) array of positive
weights; centers are (k, d) arrays.  Provides the clustering objective,
D^2-sampled seeding, Lloyd refinement, a best-of-several-runs wrapper, and
the one-pass sequential clusterer used as a streaming baseline.

d2_sample draws each run on its own: every step makes one cumulative sum,
one draw from the run's generator and one in-place distance update.
lloyd_refine returns the refined centers, the weight each one gathers
and their weighted cost, all from one assignment to the returned centers: a
converged run's last assignment, or one final pass after max_iters.  So
every caller takes the answer, its weights and its cost from that one
assignment, and none assigns the pool again.

assign_to_centers makes one GEMM for all points, then expands, clips and
takes each row's nearest center over row tiles of 2^15 distances in one
reused buffer, so the pass stays in cache and one (n, k) array is allocated
where there were four.  The elementwise steps keep the full matrix's
operations and order, and the GEMM is not tiled (a row slice of it can round
differently), so every index and squared distance keeps its bits.

sequential_update writes the point into a spare row below the centers, so one
einsum gives every squared norm a full distance pass would, bit for bit.

All randomness flows through an explicit ``numpy.random.Generator`` so that
identical seeds reproduce identical results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CenterSet:
    """k cluster centers plus the accumulated weight each center carries.

    The weights matter only to the sequential/online maintenance paths,
    which move a center to the weighted centroid of it and a new point.
    """

    centers: np.ndarray  # (k, d)
    weights: np.ndarray  # (k,)

    @property
    def k(self) -> int:
        return len(self.centers)


def as_point(p) -> np.ndarray:
    """p as a float64 vector; ValueError, naming its shape, if it is not 1-D."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"a point must be a 1-D vector, got shape {p.shape}")
    return p


# Distances per tile of assign_to_centers' elementwise pass: 2^15 float64s
# (256 KiB), so a tile stays in cache through the pass's steps.
_TILE = 1 << 15


def assign_to_centers(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center index and squared distance per point.

    Squared distances are |p|^2 + |c|^2 - 2 p.c, small negatives clipped to
    zero, with the bits of the full (n, k) matrix (see the module docstring
    for the tiles).  Ties go to the lowest center index (argmin semantics),
    which keeps assignments deterministic.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if points.shape[1] != centers.shape[1]:
        raise ValueError(
            f"dimension mismatch: points d={points.shape[1]}, centers d={centers.shape[1]}"
        )
    n, k = len(points), len(centers)
    if k == 0:
        raise ValueError("cannot assign points to an empty center set")
    p2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centers, centers)
    gram = points @ centers.T
    rows = max(1, _TILE // k)
    tile = np.empty((min(rows, n), k))
    rowsel = np.arange(len(tile))
    idx = np.empty(n, dtype=np.intp)
    d2 = np.empty(n)
    for lo in range(0, n, rows):
        t, g, i = tile[: n - lo], gram[lo : lo + rows], idx[lo : lo + rows]
        np.add(p2[lo : lo + rows, None], c2, out=t)
        g *= 2.0
        t -= g
        np.maximum(t, 0.0, out=t)
        t.argmin(axis=1, out=i)
        d2[lo : lo + rows] = t[rowsel[: len(i)], i]
    return idx, d2


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


def d2_sample(points: np.ndarray, weights: np.ndarray, k: int, rngs) -> list[np.ndarray]:
    """Indices of up to k seeds per generator in rngs, one run each: the
    first seed is drawn by weight, the rest by weight times squared distance
    to the seeds the run has chosen so far.

    Each run draws on its own, one uniform per seed, so row r is what a lone
    run on rngs[r] would draw.  A run stops early, drawing no more, once
    every point coincides with one of its seeds, so no row contains
    duplicate coordinates.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    n = len(points)
    if n == 0:
        raise ValueError("cannot sample seeds from an empty point set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    diff = np.empty_like(points)
    d2, closest, prob, cum = np.empty((4, n))
    out = []
    for rng in rngs:
        closest.fill(np.inf)
        chosen = []
        while len(chosen) < k:
            np.cumsum(prob if chosen else weights, out=cum)
            if chosen and cum[-1] <= 0.0:
                break  # every remaining point duplicates a seed
            idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            chosen.append(min(idx, n - 1))
            if len(chosen) < k:
                np.subtract(points, points[chosen[-1]], out=diff)
                np.einsum("ij,ij->i", diff, diff, out=d2)
                np.multiply(weights, np.minimum(closest, d2, out=closest), out=prob)
        out.append(np.array(chosen, dtype=np.intp))
    return out


def kmeans_pp(points, weights, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-sampling seeding; returns up to k distinct centers drawn from the set."""
    idx = d2_sample(points, weights, k, [rng])[0]
    return np.atleast_2d(np.asarray(points, dtype=np.float64))[idx]


def lloyd_refine(
    points, centers, weights=None, max_iters: int = 20
) -> tuple[CenterSet, float]:
    """Weighted Lloyd iterations from a copy of the given centers.

    Stops after max_iters or as soon as assignments repeat; a cluster that
    loses all points keeps its previous center.  Cost never increases.
    Returns the centers with the weight each one gathers, and their weighted
    cost, both from one last assignment to the returned centers.
    """
    if max_iters < 0:
        raise ValueError(f"Lloyd iterations must be >= 0, got {max_iters}")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64)).copy()
    weights = np.ones(len(points)) if weights is None else np.asarray(weights, dtype=np.float64)
    k, d = centers.shape
    flat_weighted = (points * weights[:, None]).ravel()
    cols = np.arange(d)
    prev_assign = None
    for step in range(max_iters + 1):  # the last pass only assigns
        assign, d2 = assign_to_centers(points, centers)
        wsum = np.bincount(assign, weights=weights, minlength=k)
        if step == max_iters or (prev_assign is not None and np.array_equal(assign, prev_assign)):
            break
        prev_assign = assign
        # one bincount over (center, coordinate) bins, each summed in point order
        bins = (assign[:, None] * d + cols).ravel()
        sums = np.bincount(bins, weights=flat_weighted, minlength=k * d).reshape(k, d)
        occupied = wsum > 0
        centers[occupied] = sums[occupied] / wsum[occupied, None]
    return CenterSet(centers, wsum), float(np.dot(weights, d2))


def best_of_runs(
    points,
    weights,
    k: int,
    rng: np.random.Generator,
    runs: int = 5,
    lloyd_iters: int = 20,
    start: np.ndarray | None = None,
) -> tuple[CenterSet, float]:
    """Best of several independent seed-then-refine runs, by cost on the inputs:
    the winning run's lloyd_refine answer (centers with weights, and cost).
    A Lloyd run from start centers (a previous answer) joins last and wins
    only by a strictly lower cost."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    rngs = [np.random.default_rng(int(seed)) for seed in rng.integers(0, 2**63, size=runs)]
    starts = [points[idx] for idx in d2_sample(points, weights, k, rngs)]
    if start is not None:
        starts.append(start)
    best = (None, np.inf)
    for centers in starts:
        run = lloyd_refine(points, centers, weights, lloyd_iters)
        if run[1] < best[1]:
            best = run
    if best[0] is None:
        raise ValueError("no run reached a finite cost; squared distances overflow float64")
    return best


class SequentialKMeans:
    """One-pass streaming clusterer.

    The first k stream points become the centers (weight 1 each); every
    later point takes one MacQueen step (update).
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._state: CenterSet | None = None
        self._seeded = 0

    def push(self, p) -> None:
        """Stream entry point: seeds with the first k points, then updates."""
        if self._seeded == self.k:
            self.update(p)  # through self, so benchmarks/tracing.py's patch sees each step
            return
        p = as_point(p)
        if not math.isfinite(p @ p):
            raise ValueError("point is not finite or its squared norm overflows")
        if self._state is None:
            self._rows = np.zeros((self.k + 1, p.shape[0]))  # spare row for the step
            self._state = CenterSet(self._rows[:-1], np.zeros(self.k))
        self._state.centers[self._seeded] = p
        self._state.weights[self._seeded] = 1.0
        self._seeded += 1

    def update(self, p) -> None:
        """One MacQueen step on the k centers, once push has seeded them all."""
        if self._seeded < self.k:
            raise RuntimeError(f"update needs all {self.k} centers seeded, {self._seeded} are")
        sequential_update(self._state, p, self._rows)

    def query(self) -> CenterSet:
        """Current centers; before k points arrive, the seeded prefix."""
        if self._seeded == 0:
            raise RuntimeError("no points seen yet")
        s = self._seeded
        return CenterSet(self._state.centers[:s].copy(), self._state.weights[:s].copy())

    def stored_points(self) -> int:
        return self.k


def sequential_update(state: CenterSet, p, rows: np.ndarray | None = None) -> float:
    """Single MacQueen step on an initialized CenterSet, in place.

    The nearest center moves to the weighted centroid (w*c + p) / (w + 1)
    and its weight grows by one.  Returns the squared distance from p to
    that center before the move.  A point that is not a 1-D vector, or whose
    squared distance is not finite (a NaN or inf coordinate, or one so large
    that it overflows), is rejected before any center moves.

    rows is a (k + 1, d) array, its first k rows the view state.centers, its
    spare last row free for p (a copy is made without it): one einsum gives
    |p|^2 and every |c|^2, with the bits assign_to_centers would give.
    """
    centers, k = state.centers, len(state.centers)
    if k == 0:
        raise ValueError("sequential update requires an initialized center set")
    p = as_point(p)
    if rows is None:
        rows = np.concatenate((centers, p[None]))
    rows[k] = p
    sq = np.einsum("ij,ij->i", rows, rows)
    d2 = sq[k] + sq[:k] - 2.0 * (centers @ p)
    np.maximum(d2, 0.0, out=d2)  # before argmin, so near-ties go to the lowest index
    j = int(d2.argmin())
    if not math.isfinite(d2[j]):
        raise ValueError(f"point is not finite or its squared distance overflows (d2={d2[j]})")
    w = state.weights[j]
    centers[j] = (w * centers[j] + p) / (w + 1.0)
    state.weights[j] = w + 1.0
    return float(d2[j])
