"""Spans around the calls each streamkm module makes into the others.

While it is entered, the tracer replaces the public functions and methods
named in ``TARGETS`` with timing wrappers; leaving restores the originals.  A function
imported by name into several modules (``build_coreset`` in ``tree``,
``cache`` and ``recursive``) is wrapped once per importing module, so each
call site gets its own span.  Spans are aggregated in memory per
(algorithm, span name): call count, inclusive time, self time (inclusive
minus the child spans it encloses) and, for spans that recurse, the
inclusive time of the outermost calls only.  A target the program no longer
has is left out and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    calls: int = 0
    incl: float = 0.0
    self: float = 0.0
    outer: float = 0.0  # inclusive time of calls not nested in a same-name span
    outer_calls: int = 0


def _points_in(site):
    def after(tracer, args, kwargs, state, dur):
        inputs = args[1] if len(args) > 1 else kwargs["inputs"]
        tracer.count(f"coreset.points_in.{site}", sum(len(b.points) for b in inputs))
    return after


def _pool_size(tracer, args, kwargs, state, dur):
    tracer.count("kmeans.best_of_runs_points", len(args[0]))


def _builds_before(args):
    return getattr(args[0], "builds", None)


def _tree_merges(tracer, args, kwargs, before, dur):
    after = getattr(args[0], "builds", None)
    if before is None or after is None:
        tracer.absent.add("tree.merges")
    else:
        tracer.count("tree.merges", after - before)


def _cache_path(tracer, args, kwargs, state, dur):
    path = getattr(args[0], "last_query_path", None)
    width = getattr(args[0], "last_query_width", None)
    if path is None:
        tracer.absent.add("cache.path")
    else:
        tracer.count(f"cache.path.{path}")
    if width is None:
        tracer.absent.add("cache.width")
    else:
        tracer.count("cache.width_sum", width)


def _merge_count(tracer, args, kwargs, state, dur):
    if tracer.nested("recursive.coreset"):
        return  # only the top-level structure's count describes the query
    count = getattr(args[0], "last_query_merge_count", None)
    if count is None:
        tracer.absent.add("recursive.merge_count")
    else:
        tracer.count("recursive.merge_count_sum", count)


# (module path, owner attribute or "", attribute, span name, before hook, after hook)
TARGETS = (
    ("streamkm.tree", "", "build_coreset", "coreset.build.tree", None, _points_in("tree")),
    ("streamkm.cache", "", "build_coreset", "coreset.build.cache", None, _points_in("cache")),
    ("streamkm.recursive", "", "build_coreset", "coreset.build.recursive", None,
     _points_in("recursive")),
    ("streamkm.coreset", "", "d2_sample", "kmeans.d2_sample", None, None),
    ("streamkm.kmeans", "", "d2_sample", "kmeans.d2_sample", None, None),
    ("streamkm.driver", "", "best_of_runs", "kmeans.best_of_runs", None, _pool_size),
    ("streamkm.online", "", "best_of_runs", "kmeans.best_of_runs", None, _pool_size),
    ("streamkm.kmeans", "", "lloyd_refine", "kmeans.lloyd", None, None),
    ("streamkm.kmeans", "SequentialKMeans", "update", "kmeans.update", None, None),
    ("streamkm.tree", "CoresetTree", "update", "tree.update", _builds_before, _tree_merges),
    ("streamkm.cache", "CachedCoresetTree", "coreset", "cache.coreset", None, _cache_path),
    ("streamkm.recursive", "RecursiveCachedTree", "update", "recursive.update", None, None),
    ("streamkm.recursive", "RecursiveCachedTree", "coreset", "recursive.coreset", None,
     _merge_count),
    ("streamkm.online", "OnlineClusterer", "update", "online.update", None, None),
)


class Tracer:
    def __init__(self):
        self.algo = ""
        self.spans: dict[tuple[str, str], Span] = {}
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.patched: set[str] = set()
        self._stack: list[list] = []  # [span name, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.algo, key)] += n

    def nested(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span(self, name: str) -> Span:
        return self.spans.get((self.algo, name)) or Span()

    def wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                key = (tracer.algo, name)
                span = tracer.spans.get(key)
                if span is None:
                    span = tracer.spans[key] = Span()
                span.calls += 1
                span.incl += dur
                span.self += dur - frame[1]
                if not tracer.nested(name):
                    span.outer += dur
                    span.outer_calls += 1
                if after is not None:
                    after(tracer, args, kwargs, state, dur)

        return traced

    def __enter__(self):
        """Patch the spans in; __exit__ restores the program's own functions."""
        for module_name, owner_name, attr, name, before, after in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.absent.add(name)
                continue
            setattr(owner, attr, self.wrap(original, name, before, after))
            self._undo.append((owner, attr, original))
            self.patched.add(name)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False
