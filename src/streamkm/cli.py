"""Command-line benchmark front end.

Example:
    streamkm-bench --algo cc --gen mixture --gen-n 50000 --gen-d 5 \
        --gen-clusters 10 --k 10 --m 200 --query-interval 500 \
        --runs 9 --seed 1 --out results/
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bench import ALGORITHMS, BenchOptions, RunMetrics, run_benchmark, write_outputs
from .coreset import CoresetConfig
from .data import DriftConfig, drift_stream, gaussian_mixture, read_csv_stream
from .recursive import MAX_ORDER, order_for_horizon
from .schedule import QuerySchedule, schedule_queries


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="streamkm-bench",
        description="Benchmark streaming k-means algorithms on a point stream.",
    )
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV file of numeric rows")
    src.add_argument("--gen", choices=["mixture", "drift"], help="synthetic stream")
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="shuffle CSV rows with this seed (default: keep order)")
    p.add_argument("--gen-n", type=int, default=50_000, help="points to generate")
    p.add_argument("--gen-d", type=int, default=5, help="generated dimension")
    p.add_argument("--gen-clusters", type=int, default=20, help="true cluster count")
    p.add_argument("--gen-spread", type=float, default=2.0,
                   help="per-cluster standard deviation")
    p.add_argument("--drift-speed", type=float, default=0.05,
                   help="per-step center displacement (drift generator)")
    p.add_argument("--drift-pps", type=int, default=100,
                   help="points per step per center (drift generator)")

    p.add_argument("--k", type=int, default=30, help="clusters to report")
    p.add_argument("--m", type=int, default=None, help="bucket size (default 20*k)")
    p.add_argument("--r", type=int, default=2, help="merge degree for ct/cc")
    p.add_argument("--rcc-depth", type=int, default=3, help="rcc nesting order")
    p.add_argument("--rcc-horizon", type=int, default=None,
                   help="expected bucket count; overrides --rcc-depth so the top "
                        "merge degree tracks sqrt(horizon)")
    p.add_argument("--alpha", type=float, default=1.2, help="online fallback threshold")
    p.add_argument("--eps", type=float, default=0.1, help="online bound reset factor")
    p.add_argument("--warmup", type=int, default=None,
                   help="online warmup points (default 2*k)")
    q = p.add_mutually_exclusive_group()
    q.add_argument("--query-interval", type=int, default=100,
                   help="fixed query interval in points")
    q.add_argument("--poisson-rate", type=float, default=None,
                   help="Poisson query rate (mean interval = 1/rate points)")
    p.add_argument("--runs", type=int, default=9, help="independent runs (median reported)")
    p.add_argument("--best-of", type=int, default=5,
                   help="seedings for the first answer; later: one plus the last answer")
    p.add_argument("--lloyd-iters", type=int, default=20, help="Lloyd iterations per seeding")
    p.add_argument("--no-exact-ssq", action="store_true",
                   help="skip exact SSQ recomputation (emit nan)")
    p.add_argument("--timing", choices=["real", "off"], default="real",
                   help="'off' writes zero ns fields for byte-reproducible output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    return p


def load_points(args) -> np.ndarray:
    if args.input is not None:
        return read_csv_stream(args.input, shuffle_seed=args.shuffle_seed)
    if args.gen == "mixture":
        return gaussian_mixture(
            args.gen_clusters, args.gen_n, args.gen_d, args.gen_spread, args.seed
        )
    drift = np.full(args.gen_d, args.drift_speed / np.sqrt(args.gen_d))
    cfg = DriftConfig(
        total_points=args.gen_n,
        drift=drift,
        n_centers=args.gen_clusters,
        points_per_step=args.drift_pps,
        std=args.gen_spread,
        seed=args.seed,
    )
    return drift_stream(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked for every --algo, also where that algorithm ignores the option
        for flag, value, ok, rule in (
            ("--runs", args.runs, args.runs >= 1, ">= 1"),
            ("--lloyd-iters", args.lloyd_iters, args.lloyd_iters >= 0, ">= 0"),
            ("--best-of", args.best_of, args.best_of >= 1, ">= 1"),
            ("--r", args.r, args.r >= 2, ">= 2"),
            ("--alpha", args.alpha, args.alpha > 1.0, "> 1"),
            ("--eps", args.eps, 0.0 < args.eps < 1.0, "in (0, 1)"),
            ("--rcc-depth", args.rcc_depth, 0 <= args.rcc_depth <= MAX_ORDER,
             f"in [0, {MAX_ORDER}]"),
            ("--warmup", args.warmup, args.warmup is None or args.warmup >= args.k,
             f">= --k ({args.k})"),
            ("--gen-n", args.gen_n, args.gen_n >= 0, ">= 0"),
            ("--gen-d", args.gen_d, args.gen_d >= 1, ">= 1"),
            ("--gen-clusters", args.gen_clusters, args.gen_clusters >= 1, ">= 1"),
            ("--drift-pps", args.drift_pps, args.drift_pps >= 1, ">= 1"),
            ("--gen-spread", args.gen_spread,
             math.isfinite(args.gen_spread) and args.gen_spread >= 0, "finite and >= 0"),
            ("--drift-speed", args.drift_speed, math.isfinite(args.drift_speed), "finite"),
        ):
            if not ok:
                raise ValueError(f"{flag} must be {rule}, got {value}")
        if args.poisson_rate is not None:
            sched = QuerySchedule.poisson(args.poisson_rate, seed=args.seed)
        else:
            sched = QuerySchedule.fixed(args.query_interval)
        points = load_points(args)
        if len(points) == 0:
            raise ValueError("the stream has no points")
        query_indices = schedule_queries(sched, len(points))

        rcc_order = args.rcc_depth
        if args.rcc_horizon is not None:
            rcc_order = order_for_horizon(args.rcc_horizon)
        opts = BenchOptions(
            r=args.r,
            rcc_order=rcc_order,
            alpha=args.alpha,
            eps=args.eps,
            warmup=args.warmup,
            best_of=args.best_of,
            lloyd_iters=args.lloyd_iters,
            exact_ssq=not args.no_exact_ssq,
            timing=args.timing == "real",
        )
        runs: list[RunMetrics] = []
        for run_idx in range(args.runs):
            cfg = CoresetConfig(k=args.k, m=args.m, seed=args.seed + run_idx)
            runs.append(
                run_benchmark(
                    args.algo, points, query_indices, cfg, seed=args.seed + run_idx, opts=opts
                )
            )
        config = {
            "algo": args.algo,
            "k": args.k,
            "m": CoresetConfig(k=args.k, m=args.m).m,
            "r": args.r,
            "rcc_order": rcc_order,
            "alpha": args.alpha,
            "eps": args.eps,
            "schedule": (
                {"mode": "poisson", "rate": args.poisson_rate}
                if args.poisson_rate is not None
                else {"mode": "fixed", "interval": args.query_interval}
            ),
            "n_points": len(points),
            "d": int(points.shape[1]),
            "runs": args.runs,
            "seed": args.seed,
            "source": args.input if args.input else f"gen:{args.gen}",
        }
        write_outputs(args.out, runs, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
