"""Byte-level pin of the recursive cache (`rcc`) for orders 0-3.

Each case streams 530 four-point buckets into one `RecursiveCachedTree`
and hashes, after every update, its bucket count, stored points and level
counts, and, after every query, the answer's points, weights, span and
level together with `last_query_merge_count`, the cache keys and the same
space counters.  Three query schedules: a query after every bucket, a
sparse fixed draw of query times, and a query repeated twice at every
seventh bucket.  530 = 2*256 + 18 reaches level 1 at order 3 and level 2
at order 2.  The digests were recorded with Python 3.11.7 and numpy 2.4.6
on x86-64 Linux; see `test_golden.py` for what another platform implies.
"""

import hashlib

import numpy as np
import pytest

from streamkm import Bucket, CoresetConfig, RecursiveCachedTree

N_BUCKETS = 530


def _queries(schedule: str) -> dict[int, int]:
    """Bucket count -> number of back-to-back queries made there."""
    if schedule == "every":
        return {i: 1 for i in range(1, N_BUCKETS + 1)}
    if schedule == "sparse":
        draw = np.random.default_rng(99).random(N_BUCKETS) < 0.04
        return {int(i) + 1: 1 for i in np.flatnonzero(draw)}
    return {i: 2 for i in range(5, N_BUCKETS + 1, 7)}


def rcc_digest(order: int, schedule: str) -> str:
    node = RecursiveCachedTree(CoresetConfig(k=2, m=8, seed=31), order)
    data = np.random.default_rng(order)
    queries = _queries(schedule)
    h = hashlib.sha256()

    def put(*values):
        h.update(repr(values).encode())

    for i in range(1, N_BUCKETS + 1):
        node.update(Bucket(data.normal(size=(4, 2)), np.ones(4), i, i, 0))
        put(node.n, node.bucket_count(), node.stored_points(), node.level_counts())
        for _ in range(queries.get(i, 0)):
            out = node.coreset()
            h.update(out.points.tobytes())
            h.update(out.weights.tobytes())
            put(out.span, out.level, node.last_query_merge_count, node.cache_keys(),
                node.bucket_count(), node.stored_points(), node.level_counts())
    return h.hexdigest()


PINNED = {
    "order0/every": "967141aa6b9a0d7dbe223ea98f6c37f2fafde45e5df74a8cbd9fbac216a436df",
    "order0/sparse": "898334a3e947baf904d2f9a0d402153987c850997a045a1af267bb7c8153117a",
    "order0/repeat": "e4e990d15f621893fccf78f77dd770494e20e1a9b8adfe6a0f71661ce232c1cb",
    "order1/every": "8d889072c672401037e78322fdde891562fdfc0436d85c070d9a517c0fdab33e",
    "order1/sparse": "736c764349c92cd307e26a452f5bc20c5e69ac263eee63af9178773d0051ebf7",
    "order1/repeat": "b526632704a95f17bd6de2f54df4ae779281243ff219a5d3e2f112fd6a0adf16",
    "order2/every": "f42f42d51bea8f1c42b722108fbfe7cb14ef77c288b530f3b2b7bb4089026da2",
    "order2/sparse": "83b087176f23e93e8175ef1cec674feaf377a79badcacc660c3ea375ca09d2fe",
    "order2/repeat": "262cab4c1f0c91f90f4e0d223de35995a3feb7f5c63d26c9cc1d208550437633",
    "order3/every": "fb8d9c34471d797a4fb7867363c1d43d8c4f2f1a57e2845bce6b3c01af5b73e6",
    "order3/sparse": "a9e32c10fa916a4657e226944dff3c99bb349414b13cff162381393c010fb011",
    "order3/repeat": "fc515e6e55feeb042854c7513ed2fecde5fda056eea11698e7e3525a6606054a",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_rcc_pinned(case):
    order, schedule = case.split("/")
    assert rcc_digest(int(order[-1]), schedule) == PINNED[case]
