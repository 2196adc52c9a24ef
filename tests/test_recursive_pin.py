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
    "order0/every": "fd9377ef6bddb4d54b7b8805e2c7bcb386c1cccc42499ec00e2477a3ebfb96e0",
    "order0/sparse": "b01c22637cd78c9798ae98027ff9d579a9731918946a5d2868ecece7b432f57c",
    "order0/repeat": "69afb12f89ba982ea22a9644b02f99a671f1dded7c89fb628f3e6c68650ab907",
    "order1/every": "4380e83994fd07940c814de7c764f8abff17d4ca224d1aca7cd697d35c0b8e34",
    "order1/sparse": "309a35bf35c2bf0441950bb7a3e8d53a0c11db42dd27f364862f409a1857ac39",
    "order1/repeat": "31310c8e3c4773438e97ad510724f83c13c7ffb2dfac7d6cc3cc6754f0fbfec4",
    "order2/every": "11007f0cb6153d4e13c2a423e4768d663de55c8602672a8507e3755f57ce8098",
    "order2/sparse": "9305744bf3741cad08323d46ac0b468770f0d572b2c5edc1066ef04147c9cda2",
    "order2/repeat": "7182dfe8616f5005dfcfb1d4527e0634ab64163698b853e32e56ffcf4555f329",
    "order3/every": "b545f3064e6f0cf763092b4787765408ca3ee3f81a334712bd6ae73113f1c821",
    "order3/sparse": "a2351c6a5e5471fdc4610255742a57019f88f305e09a16d95fa6e1d75d49c4a6",
    "order3/repeat": "b965a6d10044cba1b3f4eba04daa6d95f9c4b92ed186783925df8788409add07",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_rcc_pinned(case):
    order, schedule = case.split("/")
    assert rcc_digest(int(order[-1]), schedule) == PINNED[case]
