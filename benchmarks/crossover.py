"""One-off reference measurement, not a workload: ct/cc/rcc query latency
against stream length, to see where coreset caching starts to pay.

Run from the repository root (takes several minutes at 1M points):

    python3 benchmarks/crossover.py --points 50000 200000 1000000 --gap 2000
    python3 benchmarks/crossover.py --points 1000000 --gap 0

The stream follows the sparse-poisson mixture law.  --gap is the mean number
of points between queries (Poisson, as in sparse-poisson); --gap 0 queries at
every bucket boundary, as in dense-every-bucket.  Outputs are not checked;
use run.py for checked figures.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from time import perf_counter

os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import adapters  # noqa: E402
from workloads import WORKLOADS, make_points, make_queries  # noqa: E402

ALGOS = ("ct", "cc", "rcc")


def measure(n: int, gap: int, seed: int) -> dict[str, np.ndarray]:
    base = WORKLOADS["sparse-poisson"]
    w = dataclasses.replace(base, n=n, n_queries=n // gap if gap else None)
    points, queries = make_points(w, seed), make_queries(w)
    algos = {name: adapters.build(name, w, seed) for name in ALGOS}
    latencies = {name: [] for name in ALGOS}
    prev = 0
    for stop in queries:  # the algorithms take turns on each stretch, as in run.py
        for name, algo in algos.items():
            for p in points[prev:stop]:
                algo.push(p)
            t0 = perf_counter()
            algo.query()
            latencies[name].append(perf_counter() - t0)
        prev = stop
    return {name: np.array(v) * 1e3 for name, v in latencies.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, nargs="+", default=[50_000, 200_000, 1_000_000])
    parser.add_argument("--gap", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    schedule = f"Poisson, mean gap {args.gap} points" if args.gap else "every bucket"
    print(f"query latency in ms, {schedule}, seed {args.seed}")
    for n in args.points:
        lat = measure(n, args.gap, args.seed)
        cells = "  ".join(f"{a} p50 {np.median(v):7.2f} p90 {np.percentile(v, 90):7.2f}"
                          for a, v in lat.items())
        print(f"{n:>9} points, {len(lat['ct']):>5} queries: {cells}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
