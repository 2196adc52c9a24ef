"""Stream sources: CSV ingestion and synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def read_csv_stream(path, shuffle_seed: int | None = None) -> np.ndarray:
    """Numeric rows of a CSV file as an (n, d) array, in file order.

    A shuffle seed applies one uniform in-memory permutation.  Ragged or
    non-numeric rows and nan or inf fields raise with the offending line
    number.  Fields may be separated by commas or whitespace; blank lines
    are skipped.
    """
    rows: list[list[float]] = []
    blanks: list[int] = []  # numbers of the skipped lines
    width: int | None = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                blanks.append(lineno)
                continue
            fields = line.split(",") if "," in line else line.split()
            try:
                row = [float(f) for f in fields]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    points = np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        kept = np.setdiff1d(np.arange(1, len(rows) + len(blanks) + 1), blanks)  # row -> line
        raise ValueError(f"{path}:{kept[np.argmin(finite)]}: non-finite field")
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        points = points[rng.permutation(len(points))]
    return points


def gaussian_mixture(
    k_true: int,
    n: int,
    d: int,
    spread: float,
    seed: int,
    return_centers: bool = False,
):
    """n points around k_true fixed random centers with isotropic noise.

    Cluster assignments are uniform; centers are drawn once from a fixed
    box so the same seed always yields the same instance.
    """
    if k_true < 1:
        raise ValueError(f"k_true must be >= 1, got {k_true}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 100.0, size=(k_true, d))
    labels = rng.integers(k_true, size=n)
    points = centers[labels] + rng.normal(0.0, spread, size=(n, d))
    if return_centers:
        return points, centers
    return points


@dataclass
class DriftConfig:
    """Drifting-cluster stream settings.

    Per step every center moves by the drift vector and then emits
    points_per_step Gaussian points, the step's points in random order;
    steps repeat until total_points are produced.
    """

    total_points: int
    drift: np.ndarray = field(default_factory=lambda: np.zeros(2))
    n_centers: int = 20
    points_per_step: int = 100
    std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.drift = np.asarray(self.drift, dtype=np.float64)
        if self.total_points < 0 or self.n_centers < 1 or self.points_per_step < 1:
            raise ValueError("drift generator counts must be positive; total_points may be 0")

    @property
    def d(self) -> int:
        return len(self.drift)


def drift_stream(cfg: DriftConfig, return_center_track: bool = False):
    """Drifting mixture stream of exactly cfg.total_points points.

    Full steps emit n_centers * points_per_step points each, shuffled so
    no stretch of a step comes from a single center; the final step is
    truncated if total_points is not a multiple of that.
    """
    rng = np.random.default_rng(cfg.seed)
    centers = rng.uniform(0.0, 100.0, size=(cfg.n_centers, cfg.d))
    per_step = cfg.n_centers * cfg.points_per_step
    steps = -(-cfg.total_points // per_step)
    chunks = [np.empty((0, cfg.d))]  # so an empty stream is a (0, d) array
    track = []
    for _ in range(steps):
        centers = centers + cfg.drift
        track.append(centers.copy())
        noise = rng.normal(0.0, cfg.std, size=(per_step, cfg.d))
        step = np.repeat(centers, cfg.points_per_step, axis=0) + noise
        chunks.append(step[rng.permutation(per_step)])
    points = np.concatenate(chunks)[: cfg.total_points]
    if return_center_track:
        return points, np.array(track).reshape(steps, cfg.n_centers, cfg.d)
    return points
