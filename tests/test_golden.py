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
        "b23394e74ab60c4435ce66b534e68e25197d46b3661f7472c1df40edd01fdac5",
        "e4e6a54ce855eae25e4ed43f560df4b945c937ed4c868542ef5eccdaf0527c0e",
    ),
    "drift-poisson/ct": (
        "fe1f2cd90a04cefda08424e1054e2057b8c7e752740abef997eb9a38bb7117f9",
        "ae80d85a922e9dc225f5bdbd301850d43c072129cee1a6f7878f2a172b2f88d4",
    ),
    "drift-poisson/cc": (
        "77c70ba5dd36519cd8f20257b584ca37866a33ef6e56dfc277343d641c0d290c",
        "c18454286bc01fd86827ca1698237fd2cfba6302d3eb6eea1afe5ccc4d1109d4",
    ),
    "drift-poisson/rcc": (
        "5ee15862c8be8bcb42238e4e9e4a613c4d1f049dd15fbce6eead30c073a492b8",
        "684659a2b1cdb7336f3493b854ae8757c2ea440459a633ad481afbf125cfb514",
    ),
    "drift-poisson/online": (
        "3109d5aaa4e298a19109675eb4b4a87d50caeb6c9f33345879be37c892f654b1",
        "c24f5aaa4f700dbdb1457e60fce261d0a8b5a36776871361e54e587e7a6f2a87",
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
