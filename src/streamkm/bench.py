"""Benchmark runner: streams a dataset into one algorithm, fires scheduled
queries, and records quality (SSQ over the retained prefix), timings, and a
memory estimate of 8 bytes per stored dimension."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cache import CachedCoresetTree
from .coreset import CoresetConfig, spawn_seed
from .driver import StreamClusterer
from .kmeans import SequentialKMeans, best_of_runs, clustering_cost
from .online import OnlineClusterer
from .recursive import RecursiveCachedTree
from .tree import CoresetTree

CSV_HEADER = "algo,seed,point_index,ssq,query_ns,update_ns_cum,mem_bytes"


@dataclass
class QueryRecord:
    point_index: int
    ssq: float
    query_ns: int
    update_ns_cum: int
    mem_bytes: int


@dataclass
class RunMetrics:
    algo: str
    seed: int
    records: list[QueryRecord] = field(default_factory=list)
    update_ns_total: int = 0

    @property
    def final_ssq(self) -> float:
        return self.records[-1].ssq if self.records else math.nan

    @property
    def query_ns_total(self) -> int:
        return sum(r.query_ns for r in self.records)


def _driven(make_structure):
    """Factory for a bucket structure behind a StreamClusterer."""

    def make(cfg: CoresetConfig, ss, o) -> StreamClusterer:
        return StreamClusterer(
            make_structure(cfg, ss, o),
            cfg,
            query_seed=spawn_seed(ss, 1),
            runs=o.best_of,
            lloyd_iters=o.lloyd_iters,
        )

    return make


def _online(cfg: CoresetConfig, ss, o) -> OnlineClusterer:
    return OnlineClusterer(
        cfg,
        o.r,
        alpha=o.alpha,
        eps=o.eps,
        warmup=o.warmup,
        seed=ss,
        refine_runs=o.best_of,
        lloyd_iters=o.lloyd_iters,
    )


# name -> factory(cfg, seed sequence, options); every algorithm it makes
# answers push(p), query() -> CenterSet and stored_points().
_FACTORIES = {
    "seq": lambda cfg, ss, o: SequentialKMeans(cfg.k),
    "ct": _driven(lambda cfg, ss, o: CoresetTree(cfg, o.r, rng=np.random.default_rng(ss))),
    "cc": _driven(lambda cfg, ss, o: CachedCoresetTree(cfg, o.r, seed=spawn_seed(ss, 0))),
    "rcc": _driven(
        lambda cfg, ss, o: RecursiveCachedTree(cfg, o.rcc_order, seed=spawn_seed(ss, 0))
    ),
    "online": _online,
}
ALGORITHMS = tuple(_FACTORIES)


@dataclass
class BenchOptions:
    r: int = 2
    rcc_order: int = 3
    alpha: float = 1.2
    eps: float = 0.1
    warmup: int | None = None
    best_of: int = 5
    lloyd_iters: int = 20
    exact_ssq: bool = True
    timing: bool = True


def run_benchmark(
    algo: str,
    points: np.ndarray,
    query_indices: list[int],
    cfg: CoresetConfig,
    seed: int,
    opts: BenchOptions | None = None,
) -> RunMetrics:
    """Stream `points` into `algo`, querying at the given 1-based indices and
    at the last point."""
    if algo not in _FACTORIES:
        raise ValueError(f"unknown algorithm {algo!r}; pick one of {ALGORITHMS}")
    opts = opts or BenchOptions()
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = points.shape
    alg = _FACTORIES[algo](cfg, np.random.SeedSequence(seed), opts)
    qset = set(query_indices) | {n}
    metrics = RunMetrics(algo=algo, seed=seed)
    clock = time.perf_counter_ns if opts.timing else (lambda: 0)

    update_ns = 0
    for i in range(1, n + 1):
        t0 = clock()
        alg.push(points[i - 1])
        update_ns += clock() - t0
        if i in qset:
            t0 = clock()
            centers = alg.query()
            query_ns = clock() - t0
            if opts.exact_ssq:
                ssq = clustering_cost(points[:i], centers.centers)
            else:
                ssq = math.nan
            stored = alg.stored_points()
            metrics.records.append(
                QueryRecord(i, ssq, query_ns, update_ns, stored * d * 8)
            )
    metrics.update_ns_total = update_ns
    return metrics


def batch_reference(points, k: int, seed: int, runs: int = 5, lloyd_iters: int = 20) -> float:
    """SSQ of the offline best-of-runs clustering on the full dataset."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    weights = np.ones(len(points))
    rng = np.random.default_rng(seed)
    return best_of_runs(points, weights, k, rng, runs=runs, lloyd_iters=lloyd_iters)[1]


def format_csv(runs: list[RunMetrics]) -> str:
    lines = [CSV_HEADER]
    for run in runs:
        for rec in run.records:
            lines.append(
                f"{run.algo},{run.seed},{rec.point_index},{rec.ssq!r},"
                f"{rec.query_ns},{rec.update_ns_cum},{rec.mem_bytes}"
            )
    return "\n".join(lines) + "\n"


def summarize(runs: list[RunMetrics]) -> dict:
    """Per-algorithm medians across runs, JSON-ready."""
    by_algo: dict[str, list[RunMetrics]] = {}
    for run in runs:
        by_algo.setdefault(run.algo, []).append(run)
    summary = {}
    for algo, group in sorted(by_algo.items()):
        summary[algo] = {
            "runs": len(group),
            "median_final_ssq": float(np.median([g.final_ssq for g in group])),
            "median_update_ns": int(np.median([g.update_ns_total for g in group])),
            "median_query_ns": int(np.median([g.query_ns_total for g in group])),
            "median_peak_mem_bytes": int(
                np.median([max(r.mem_bytes for r in g.records) for g in group])
            ),
            "queries_per_run": len(group[0].records),
        }
    return summary


def write_outputs(out_dir, runs: list[RunMetrics], config: dict) -> None:
    """Write results.csv and summary.json under out_dir."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(format_csv(runs))
    payload = {"config": config, "algorithms": summarize(runs)}
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
