"""Golden-output regression for the benchmark CLI.

`streamkm-bench --timing off` must write byte-identical results.csv and
summary.json for all five algorithms, on a mixture stream with a fixed
query schedule and on a drift stream with a Poisson schedule.  The SHA-256
digests below were recorded with Python 3.11.7 and numpy 2.4.6 on x86-64
Linux.  The outputs hold floating-point SSQ values, so another numpy or
BLAS build may legitimately differ in the last bits; on such a platform
regenerate the digests from a known-good commit before using this test as
a refactoring gate.
"""

import hashlib

import pytest

from streamkm.cli import main

ALGOS = ("seq", "ct", "cc", "rcc", "online")
COMMON = ["--runs", "2", "--best-of", "2", "--lloyd-iters", "5", "--timing", "off",
          "--seed", "3", "--rcc-depth", "2"]
STREAMS = {
    "mixture-fixed": ["--gen", "mixture", "--gen-n", "1200", "--gen-d", "3",
                      "--gen-clusters", "9", "--k", "4", "--m", "40", "--query-interval", "200"],
    "drift-poisson": ["--gen", "drift", "--gen-n", "1200", "--gen-d", "2", "--gen-clusters", "4",
                      "--drift-pps", "25", "--k", "4", "--m", "40", "--poisson-rate", "0.005"],
}
# "<stream>/<algo>": (sha256 of results.csv, sha256 of summary.json)
GOLDEN = {
    "mixture-fixed/seq": (
        "338d56679526d93c5cf395311cf7c0fe1f3c41461796b046657e96a69b167fca",
        "009c4a66dd82eee23e3ba661cc853a9b7c90bbec5657136f8cf2158005d9d19c",
    ),
    "mixture-fixed/ct": (
        "e4b801d978925eacc432cdea283fb86c84daa7a9865226a1374321baa5b0411b",
        "a14e1da03ba84b4861b016eb17382eb115f22506fbec8f4aed204713df8e2e21",
    ),
    "mixture-fixed/cc": (
        "d1f5fca95b782198662b337148145f3f35ebc75abb6c292db3fd62c37d22bb54",
        "1c678dae0a03bc7b97e2e7f7ac41fa587cec5cca7d299aa1e558bc46df8977f8",
    ),
    "mixture-fixed/rcc": (
        "b63684c857aa1162814a1a6e7389e2cb4984d35ea3ea341a460671e74638b2d4",
        "6b2b1fdde2445457b08039a07336914ddde79479c11176e9cd9913047af574bb",
    ),
    "mixture-fixed/online": (
        "aea44d9a67e8cd04f9350cbddff1a78b829b274b71cc8e077e72259adbc69ddd",
        "27fd4f65f2cb8e74ab87de2a5f5ed600d61bcf2ddef93d2b6ddd0912313352f6",
    ),
    "drift-poisson/seq": (
        "b80f415ab2fbbc7e8a3c96fdff9b96db2e196e37cd6807a3b7957f58f5149304",
        "36b1c745c593ddc41c8e3b5751e0a1e139feae021b7c3bf526eaf773cf887016",
    ),
    "drift-poisson/ct": (
        "631198537b3f13b7e12bdcdbf2588704345d786b8a4e90ee065d304933b2771c",
        "304b3f9a217279d2d2a40eb49bca11dcf461e47bc153bd72bb45b55ec01295fc",
    ),
    "drift-poisson/cc": (
        "34553ace2d5e7c26abf7f098d13646f453179fb548dbcded7bc92e1c49f155ad",
        "06a899007658eb0632a76e58e712edd26fdb68d1f9a21ba3d2ece54443587517",
    ),
    "drift-poisson/rcc": (
        "c1d3f9a621e05a4c241b866b607d92850119242d7785f9664d8a574764a81504",
        "e13604336b10c9aba270689342d36dc3898f4ea3687bb091fd39b9f2593b552f",
    ),
    "drift-poisson/online": (
        "cd1db18ae678a387a9e14f06fee659d9f72dfa0e3211d9db66b834f8262ad4ee",
        "b9ff637c1df0bc7444c7d5dcdfb473f268c895beee2b1d20c44e93cf8ee23644",
    ),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("algo", ALGOS)
def test_cli_output_matches_golden(tmp_path, stream, algo):
    assert main(["--algo", algo, "--out", str(tmp_path)] + STREAMS[stream] + COMMON) == 0
    got = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("results.csv", "summary.json")
    )
    assert got == GOLDEN[f"{stream}/{algo}"]
