"""One table that binds each algorithm to the library's public API.

Method names are looked up in order, so a structure that gains the uniform
``push``/``query`` pair is driven through it and today's names
(``update``/``ingest``, ``center_set``) keep working until then.  Diagnostic
counters (``last_query_path``, ``fallback_count`` and the like) are read with
``getattr(obj, name, None)`` everywhere, so one the program drops is reported
as absent instead of failing the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import streamkm

ORDER = ("seq", "ct", "cc", "rcc", "online")


def _child_seed(ss: np.random.SeedSequence, idx: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(ss.entropy, spawn_key=tuple(ss.spawn_key) + (idx,))


def _driver(structure, cfg, ss):
    return streamkm.StreamClusterer(structure, cfg, query_seed=_child_seed(ss, 1))


@dataclass(frozen=True)
class Binding:
    make: Callable  # (workload, cfg, seed sequence) -> object
    push: tuple[str, ...]
    query: tuple[str, ...]


# Seeding mirrors streamkm-bench, so the same seed gives the same answers there.
BINDINGS = {
    "seq": Binding(
        lambda w, cfg, ss: streamkm.SequentialKMeans(cfg.k),
        push=("push", "update"), query=("query", "center_set"),
    ),
    "ct": Binding(
        lambda w, cfg, ss: _driver(
            streamkm.CoresetTree(cfg, w.r, rng=np.random.default_rng(ss)), cfg, ss
        ),
        push=("push",), query=("query",),
    ),
    "cc": Binding(
        lambda w, cfg, ss: _driver(
            streamkm.CachedCoresetTree(cfg, w.r, seed=_child_seed(ss, 0)), cfg, ss
        ),
        push=("push",), query=("query",),
    ),
    "rcc": Binding(
        lambda w, cfg, ss: _driver(
            streamkm.RecursiveCachedTree(cfg, w.rcc_order, seed=_child_seed(ss, 0)), cfg, ss
        ),
        push=("push",), query=("query",),
    ),
    "online": Binding(
        lambda w, cfg, ss: streamkm.OnlineClusterer(cfg, w.r, seed=ss),
        push=("push", "ingest"), query=("query",),
    ),
}


def _method(obj, names: tuple[str, ...]):
    for name in names:
        fn = getattr(obj, name, None)
        if callable(fn):
            return fn
    raise AttributeError(f"{type(obj).__name__} has none of {names}")


@dataclass
class Bound:
    obj: object
    push: Callable
    query: Callable


def build(name: str, w, seed: int) -> Bound:
    """A fresh, seeded instance of algorithm `name` for workload `w`."""
    cfg = streamkm.CoresetConfig(k=w.k, m=w.m, seed=seed)
    obj = BINDINGS[name].make(w, cfg, np.random.SeedSequence(seed))
    return Bound(obj, _method(obj, BINDINGS[name].push), _method(obj, BINDINGS[name].query))
