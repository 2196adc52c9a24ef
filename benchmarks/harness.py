"""The benchmark's rounds, checks and metrics; run.py is the entry point.

A round streams the workload into fresh instances of the five algorithms and
answers the scheduled queries.  With --trace 0 a run repeats whole rounds and
reports the end-to-end metrics; with --trace 1 it makes one round in which
every algorithm runs an untraced and a traced instance side by side, and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import streamkm
from streamkm.data import read_csv_stream

import adapters
import checks
from tracing import Tracer
from workloads import WORKLOADS, make_points, make_queries

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3  # the per-stretch and per-query medians need three rounds,
MIN_ROUNDS_STRETCH = 1.2  # but a slower machine stops short of them at 1.2x --seconds
SETUPS_PER_ROUND = 2  # set-ups timed after each round; setup_s is their median
PROBE_SEED, PROBE_BUCKETS = 0, 10
TREE_ALGOS = ("ct", "cc", "rcc", "online")
SITES = {"ct": ("tree",), "cc": ("tree", "cache"), "rcc": ("tree", "cache", "recursive"),
         "online": ("tree", "cache")}
CACHE_ALGOS = ("cc", "rcc", "online")
PATHS = ("cached", "cache-hit", "tree-only", "fallback")


def end_to_end_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a run with --trace 0 prints."""
    spec = [("setup_s", "s", "lower")]
    spec += [(f"{a}.ingest_pts_per_s", "points/s", "higher") for a in ("seq",) + TREE_ALGOS]
    spec += [(f"{a}.query_p50_ms", "ms", "lower") for a in ("ct", "cc", "rcc")]
    spec += [(f"{a}.query_p90_ms", "ms", "lower") for a in TREE_ALGOS]
    spec += [("quality.ssq_ratio_max", "ratio", "lower")]
    spec += [(f"{a}.peak_stored_points", "points", "lower") for a in ("cc", "rcc")]
    return spec


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a run with --trace 1 prints."""
    spec = [("data.read_csv_s", "s", "lower")]
    for a in ("seq",) + TREE_ALGOS:
        spec += [(f"{a}.driver.push_self_s", "s", "lower"),
                 (f"{a}.driver.query_self_s", "s", "lower")]
    spec += [("seq.kmeans.update_s", "s", "lower")]
    for a in TREE_ALGOS:
        spec += [(f"{a}.tree.update_s", "s", "lower"), (f"{a}.tree.merges", "count", "lower")]
        for site in SITES[a]:
            spec += [(f"{a}.coreset.build_calls.{site}", "count", "lower"),
                     (f"{a}.coreset.build_s.{site}", "s", "lower"),
                     (f"{a}.coreset.points_in.{site}", "points", "lower")]
        spec += [(f"{a}.kmeans.d2_sample_s", "s", "lower"),
                 (f"{a}.kmeans.d2_sample_calls", "count", "lower"),
                 (f"{a}.kmeans.best_of_runs_s", "s", "lower"),
                 (f"{a}.kmeans.best_of_runs_calls", "count", "lower"),
                 (f"{a}.kmeans.best_of_runs_points_mean", "points", "lower"),
                 (f"{a}.kmeans.lloyd_s", "s", "lower")]
    for a in CACHE_ALGOS:
        spec += [(f"{a}.cache.queries", "count", "lower")]
        spec += [(f"{a}.cache.path.{p}", "count", "lower" if p == "fallback" else "higher")
                 for p in PATHS]
        spec += [(f"{a}.cache.hit_ratio", "ratio", "higher"),
                 (f"{a}.cache.merge_width_mean", "buckets", "lower"),
                 (f"{a}.cache.coreset_s", "s", "lower")]
    spec += [("rcc.recursive.update_s", "s", "lower"), ("rcc.recursive.coreset_s", "s", "lower"),
             ("rcc.recursive.merge_count_mean", "buckets", "lower"),
             ("online.online.fallbacks", "count", "lower"),
             ("online.online.fallback_s", "s", "lower"),
             ("online.online.update_self_s", "s", "lower"),
             ("check.s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return spec


@dataclass
class AlgoRun:
    """One algorithm's instance in one round, and what it did."""

    bound: object
    push: object
    query: object
    blocks: list[float] = field(default_factory=list)  # ingest seconds per stretch
    latencies: list[float] = field(default_factory=list)
    fell_back: list[bool | None] = field(default_factory=list)  # None: no fallback_count
    peak_stored: int = 0
    final_centers: object = None
    digest: object = field(default_factory=lambda: hashlib.blake2b(digest_size=16))


@dataclass
class PhiBound:
    """How often online's phi_now falls below the exact cost of its answer."""

    checked: int = 0
    violated: int = 0
    worst: float = 0.0  # largest exact SSQ / phi_now

    def observe(self, online, points, centers) -> str | None:
        phi = getattr(online, "phi_now", None)
        if phi is None:
            return None
        ssq = checks.exact_ssq(points, centers)
        problem = checks.check_phi(phi, ssq)
        self.checked += 1
        self.violated += problem is not None
        self.worst = max(self.worst, ssq / phi if phi > 0 else float("inf"))
        return problem


@dataclass
class Run:
    """Counters and findings shared by every round of one run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    check_s: float = 0.0
    phi: PhiBound = field(default_factory=PhiBound)
    probe_problem: str | None = None

    def error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)

    def fail(self, where: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            self.error(f"{where} raised:\n{traceback.format_exc()}")


def advance(name, state: AlgoRun, w, points, prev, stop, is_query, run: Run, full_checks):
    """Ingest points[prev:stop] into one algorithm, then query it if scheduled."""
    push, query, obj = state.push, state.query, state.bound.obj
    t0 = perf_counter()
    for p in points[prev:stop]:
        try:
            push(p)
        except Exception:
            run.fail(f"{name} push")
    state.blocks.append(perf_counter() - t0)
    run.attempted += stop - prev
    answer = None
    if is_query:
        run.attempted += 1
        fallbacks = getattr(obj, "fallback_count", None)
        t0 = perf_counter()
        try:
            answer = query()
        except Exception:
            run.fail(f"{name} query at point {stop}")
        state.latencies.append(perf_counter() - t0)
        after = getattr(obj, "fallback_count", None)
        state.fell_back.append(None if fallbacks is None or after is None else after > fallbacks)
    t0 = perf_counter()
    if answer is not None:
        centers, weights = answer.centers, answer.weights
        state.digest.update(centers.tobytes())
        state.digest.update(weights.tobytes())
        problem = checks.check_answer(centers, weights, w.k, w.d, stop)
        if problem:
            run.error(f"{name} query at point {stop}: {problem}")
        elif full_checks and name == "online":
            run.phi.observe(obj, points[:stop], centers)
        if stop == w.n:
            state.final_centers = centers
    stored = obj.stored_points()
    state.peak_stored = max(state.peak_stored, stored)
    if name in ("ct", "cc"):
        problem = checks.check_space(stored, stop, w.m, w.r, cached=name == "cc")
        if problem:
            run.error(f"{name}: {problem}")
    run.check_s += perf_counter() - t0


def phi_probe(w, run: Run) -> None:
    """One operation with a known fault: online's phi_now bound on a fixed stream.

    The program documents phi_now as an upper bound on the exact cost of
    the centers it returns; it is not one at these settings (see CHANGES.md).
    The probe's stream and seeds do not depend on --seed, so it fails or
    passes the same way in every round of every run.
    """
    t0 = perf_counter()
    points = make_points(w, PROBE_SEED)[: PROBE_BUCKETS * w.m]
    online = adapters.build("online", w, PROBE_SEED)
    probe = PhiBound()
    problem = None
    run.attempted += 1
    try:
        for stop in range(w.m, len(points) + 1, w.m):
            for p in points[stop - w.m : stop]:
                online.push(p)
            problem = problem or probe.observe(online.obj, points[:stop], online.query().centers)
    except Exception:
        run.fail("online phi-bound probe")
    else:
        if problem:
            run.failed += 1
            run.probe_problem = problem
    run.check_s += perf_counter() - t0


def fresh(w, seed: int, tracer: Tracer | None = None) -> dict[str, AlgoRun]:
    """New instances of the five algorithms; traced ones call through spans."""
    states = {}
    for name in adapters.ORDER:
        if tracer is None:
            bound = adapters.build(name, w, seed)
            states[name] = AlgoRun(bound, bound.push, bound.query)
            continue
        with tracer:  # a method bound now is the traced one (SequentialKMeans.update)
            bound = adapters.build(name, w, seed)
        tracer.algo = name
        states[name] = AlgoRun(bound, tracer.wrap(bound.push, "driver.push"),
                               tracer.wrap(bound.query, "driver.query"))
    return states


def run_round(w, points, queries, seed, run: Run, full_checks: bool, tracer=None):
    """Stream the workload into fresh instances of all five algorithms.

    The algorithms take turns, in the fixed order, on each stretch of the
    stream between two stops (bucket boundaries and query points), so each
    one's timings are spread over the whole round rather than measured in
    one contiguous window of a machine whose speed drifts.  With a tracer,
    every algorithm also gets a second, traced instance that takes its turn
    next to the untraced one (first on every other stretch), with the spans
    patched in only for that turn; the two instances then see the same
    machine and their time difference is the tracing overhead.  Returns the
    untraced states, and with a tracer the traced ones too.
    """
    plain = fresh(w, seed)
    traced = fresh(w, seed, tracer) if tracer is not None else {}
    qset = set(queries)
    prev = 0
    for i, stop in enumerate(sorted(qset | set(range(w.m, w.n + 1, w.m)))):
        for name, state in plain.items():
            turns = [(state, contextlib.nullcontext())]
            if tracer is not None:
                tracer.algo = name
                turns.insert(i % 2, (traced[name], tracer))
            for st, patched in turns:
                with patched:
                    advance(name, st, w, points, prev, stop, stop in qset, run,
                            full_checks and st is state)
        prev = stop
    for state in (*plain.values(), *traced.values()):
        state.bound = state.push = state.query = None  # free the structures
    for _ in range(1 + (tracer is not None)):  # keeps the failed share the same in both modes
        phi_probe(w, run)
    return (plain, traced) if tracer is not None else plain


def compare_rounds(reference: dict, other: dict, run: Run) -> None:
    """Later rounds must reproduce the first round's answers bit for bit."""
    for name, res in other.items():
        if res.digest.digest() != reference[name].digest.digest():
            run.error(f"{name}: answers differ from the first round (seeded runs must repeat)")


def set_up(w, csv_path: Path, seed: int, totals: list, reads: list) -> np.ndarray:
    """Load the CSV and construct the five structures, timing both."""
    t0 = perf_counter()
    points = read_csv_stream(csv_path)
    t1 = perf_counter()
    for name in adapters.ORDER:
        adapters.build(name, w, seed)
    totals.append(perf_counter() - t0)
    reads.append(t1 - t0)
    return points


def quality(w, points, rounds: dict, seed: int, run: Run) -> dict[str, float]:
    """Final exact SSQ over the batch reference, per algorithm; checked for all but seq."""
    t0 = perf_counter()
    reference = checks.batch_reference(points, w.k, seed)
    ratios = {}
    for name, state in rounds.items():
        if state.final_centers is None:
            run.error(f"{name}: no final answer")
            continue
        ssq = checks.exact_ssq(points, state.final_centers)
        ratios[name] = ssq / reference
        problem = checks.check_quality(ssq, reference) if name in TREE_ALGOS else None
        if problem:
            run.error(f"{name}: {problem}")
    run.check_s += perf_counter() - t0
    return ratios


def robust(rounds: list[dict], name: str, attr: str) -> np.ndarray:
    """Per stretch (or per query), the median over rounds of its time.

    Every round repeats the same operations, so this keeps one slow or fast
    spell of the machine out of the figures unless it hits most rounds.
    """
    return np.median([getattr(r[name], attr) for r in rounds], axis=0)


def end_to_end_metrics(w, rounds: list[dict], setup: list[float], ratios: dict) -> dict:
    values = {"setup_s": statistics.median(setup)}
    for name in ("seq",) + TREE_ALGOS:
        values[f"{name}.ingest_pts_per_s"] = w.n / float(robust(rounds, name, "blocks").sum())
    for name in TREE_ALGOS:
        latency_ms = robust(rounds, name, "latencies") * 1e3
        if name != "online":
            values[f"{name}.query_p50_ms"] = float(np.percentile(latency_ms, 50))
        values[f"{name}.query_p90_ms"] = float(np.percentile(latency_ms, 90))
    values["quality.ssq_ratio_max"] = max(ratios.get(a, np.inf) for a in TREE_ALGOS)
    for name in ("cc", "rcc"):
        values[f"{name}.peak_stored_points"] = float(rounds[0][name].peak_stored)
    return values


def busy(state: AlgoRun) -> float:
    """Seconds an algorithm spent in ingest and query calls."""
    return sum(state.blocks) + sum(state.latencies)


def per_layer_metrics(tracer, traced: dict, untraced: dict, reads, run: Run) -> dict:
    """Per-layer values from the traced instances; absent sources are left out."""
    values = {"data.read_csv_s": statistics.median(reads), "check.s": run.check_s}
    values["trace.overhead_s"] = sum(busy(traced[a]) - busy(untraced[a]) for a in traced)

    def put(metric, span_name, fn):
        if span_name in tracer.patched or span_name.startswith("driver."):
            values[metric] = fn(tracer.span(span_name))

    def put_count(metric, key, absent_key):
        if absent_key not in tracer.absent:
            values[metric] = float(tracer.counts[(tracer.algo, key)])

    for a in ("seq",) + TREE_ALGOS:
        tracer.algo = a
        put(f"{a}.driver.push_self_s", "driver.push", lambda s: s.self)
        put(f"{a}.driver.query_self_s", "driver.query", lambda s: s.self)
        if a == "seq":
            put("seq.kmeans.update_s", "kmeans.update", lambda s: s.incl)
            continue
        put(f"{a}.tree.update_s", "tree.update", lambda s: s.incl)
        if "tree.update" in tracer.patched:
            put_count(f"{a}.tree.merges", "tree.merges", "tree.merges")
        for site in SITES[a]:
            span = f"coreset.build.{site}"
            put(f"{a}.coreset.build_calls.{site}", span, lambda s: float(s.calls))
            put(f"{a}.coreset.build_s.{site}", span, lambda s: s.incl)
            if span in tracer.patched:
                put_count(f"{a}.coreset.points_in.{site}", f"coreset.points_in.{site}", span)
        put(f"{a}.kmeans.d2_sample_s", "kmeans.d2_sample", lambda s: s.incl)
        put(f"{a}.kmeans.d2_sample_calls", "kmeans.d2_sample", lambda s: float(s.calls))
        put(f"{a}.kmeans.best_of_runs_s", "kmeans.best_of_runs", lambda s: s.incl)
        put(f"{a}.kmeans.best_of_runs_calls", "kmeans.best_of_runs", lambda s: float(s.calls))
        pool = tracer.counts[(a, "kmeans.best_of_runs_points")]
        put(f"{a}.kmeans.best_of_runs_points_mean", "kmeans.best_of_runs",
            lambda s: pool / s.calls if s.calls else 0.0)
        put(f"{a}.kmeans.lloyd_s", "kmeans.lloyd", lambda s: s.incl)
        if a in CACHE_ALGOS and "cache.coreset" in tracer.patched:
            queries = tracer.span("cache.coreset").calls
            values[f"{a}.cache.queries"] = float(queries)
            values[f"{a}.cache.coreset_s"] = tracer.span("cache.coreset").incl
            if "cache.path" not in tracer.absent:
                paths = {p: tracer.counts[(a, f"cache.path.{p}")] for p in PATHS}
                values.update({f"{a}.cache.path.{p}": float(n) for p, n in paths.items()})
                hits = paths["cached"] + paths["cache-hit"]
                values[f"{a}.cache.hit_ratio"] = hits / queries if queries else 0.0
            if "cache.width" not in tracer.absent:
                width = tracer.counts[(a, "cache.width_sum")]
                values[f"{a}.cache.merge_width_mean"] = width / queries if queries else 0.0
    tracer.algo = "rcc"
    put("rcc.recursive.update_s", "recursive.update", lambda s: s.outer)
    put("rcc.recursive.coreset_s", "recursive.coreset", lambda s: s.outer)
    if "recursive.coreset" in tracer.patched and "recursive.merge_count" not in tracer.absent:
        top = tracer.span("recursive.coreset").outer_calls
        merges = tracer.counts[("rcc", "recursive.merge_count_sum")]
        values["rcc.recursive.merge_count_mean"] = merges / top if top else 0.0
    tracer.algo = "online"
    online = traced["online"]
    if None not in online.fell_back:
        values["online.online.fallbacks"] = float(sum(online.fell_back))
        values["online.online.fallback_s"] = sum(
            t for t, fb in zip(online.latencies, online.fell_back) if fb)
    put("online.online.update_self_s", "online.update", lambda s: s.self)
    return values


def layer_accounting(tracer, traced: dict, untraced: dict, overhead: float) -> list[str]:
    """Per algorithm: self time by layer, against the untraced instance's busy time."""
    lines = []
    for a in traced:
        by_layer: dict[str, float] = {}
        for (algo, name), span in tracer.spans.items():
            if algo == a:
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + span.self
        total = sum(by_layer.values())
        gap = total - busy(untraced[a])
        parts = " ".join(f"{k}={v:.3f}" for k, v in sorted(by_layer.items()))
        lines.append(f"  {a:6s} self times {total:8.3f} s, untraced {busy(untraced[a]):8.3f} s, "
                     f"gap {gap:+.3f} s {'within' if abs(gap) <= overhead else 'OUTSIDE'} "
                     f"trace.overhead_s: {parts}")
    return lines


def environment(blas_threads: dict) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": blas_threads}


def main(argv, blas_threads: dict) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(streamkm.__file__).resolve().is_relative_to(SRC):
        print(f"error: streamkm imported from {streamkm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    run = Run()
    for problem in checks.self_test():
        run.error(problem)

    expected = make_points(w, args.seed)
    queries = make_queries(w)
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"input-{w.name}-{args.seed}-{os.getpid()}.csv"
    setup, reads = [], []
    try:
        np.savetxt(csv_path, expected, fmt="%.17g", delimiter=",")
        points = set_up(w, csv_path, args.seed, setup, reads)
        if not np.array_equal(points, expected):
            run.error("read_csv_stream did not return the points that were written")
        start = perf_counter()
        if args.trace:
            tracer = Tracer()
            plain, traced = run_round(w, points, queries, args.seed, run, True, tracer)
            compare_rounds(plain, traced, run)
            rounds = [plain]
        else:
            rounds = [run_round(w, points, queries, args.seed, run, full_checks=True)]
        # Whole rounds only, while the next one should end within --seconds,
        # or within MIN_ROUNDS_STRETCH times that until there are MIN_ROUNDS.
        # Set-ups are repeated between rounds so their samples, too, are
        # spread over the run.
        while True:
            for _ in range(SETUPS_PER_ROUND):
                set_up(w, csv_path, args.seed, setup, reads)
            projected = (perf_counter() - start) * (len(rounds) + 1) / len(rounds)
            limit = args.seconds * (MIN_ROUNDS_STRETCH if len(rounds) < MIN_ROUNDS else 1)
            if args.trace or projected > limit:
                break
            rounds.append(run_round(w, points, queries, args.seed, run, full_checks=False))
            compare_rounds(rounds[0], rounds[-1], run)
    finally:
        csv_path.unlink(missing_ok=True)
    ratios = quality(w, points, rounds[0], args.seed, run)

    if args.trace:
        values = per_layer_metrics(tracer, traced, rounds[0], reads, run)
        spec = per_layer_spec()
        detail = layer_accounting(tracer, traced, rounds[0], values["trace.overhead_s"])
    else:
        values = end_to_end_metrics(w, rounds, setup, ratios)
        spec = end_to_end_spec()
        detail = []
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in spec if name in values}
    absent = [name for name, _, _ in spec if name not in values]

    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "points": w.n, "queries_per_algo": len(queries),
        "environment": environment(blas_threads), "errors": run.errors, "absent": absent,
        "online_fallback_share": sum(map(bool, rounds[0]["online"].fell_back)) / len(queries),
        "final_ssq_over_batch": ratios,
        "query_ms": {a: (robust(rounds, a, "latencies") * 1e3).tolist() for a in TREE_ALGOS},
        "online_phi_bound": {"checked": run.phi.checked, "violated": run.phi.violated,
                             "worst_ssq_over_phi": run.phi.worst, "probe": run.probe_problem},
        "metrics": metrics,
    }
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print(f"workload {w.name}: {w.n} points, {len(queries)} queries per algorithm, "
          f"{len(rounds)} round(s), seed {args.seed}")
    print("environment " + json.dumps(report["environment"]))
    for line in detail:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for name in absent:
        print(f"  {name:42s} absent (the program no longer exposes its source)")
    print(f"online phi_now bound: below the exact cost at {run.phi.violated} of "
          f"{run.phi.checked} queries (worst exact/phi {run.phi.worst:.3f}); "
          f"fixed probe: {run.probe_problem or 'holds'}")
    for problem in run.errors:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


