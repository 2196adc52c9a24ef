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
        "a41c8f4bb610375b7a0e8136234a6992b62ef4a821c846ab2623a5814dff8bd5",
        "fd5d9e0ff77b68cc38fa1f00251a78f42646df291b8a0eca9bc71ad344c5aaf9",
    ),
    "mixture-fixed/cc": (
        "632fa5405db74491d4246643511c4679004e78df1ef5686bd9c1e864800940fd",
        "929a441128c8ab839969899e7712710366da80f56de2684321d2e00b17372207",
    ),
    "mixture-fixed/rcc": (
        "b4a9e861ead40bb298988cb0218464626c4bd408141f289da700a44a95237c7c",
        "52f8fd0718058f3399e2eaf12168ed2e909051763d3a8de5f6796f82ac5822b1",
    ),
    "mixture-fixed/online": (
        "6ce936177ccfe1657c8883fac5bb47402d772efd1dca51c79ece2a4d8ae6fd29",
        "3a89cde357962aeacbd1634bb3d8486a388a4ffc5c3b11214c769bdbc70b0967",
    ),
    "drift-poisson/seq": (
        "b80f415ab2fbbc7e8a3c96fdff9b96db2e196e37cd6807a3b7957f58f5149304",
        "36b1c745c593ddc41c8e3b5751e0a1e139feae021b7c3bf526eaf773cf887016",
    ),
    "drift-poisson/ct": (
        "34e4b8fa327a2a0b84f84888a4307b1b1c23df87e81ee2fe5360b87386b0aafb",
        "f5014c6c2a6f8ce58cf308dbb5fe2a5e90db1e7e3eb671c13e181d99af4cad01",
    ),
    "drift-poisson/cc": (
        "589833ee6f2c1bfe388eb6d5c9ad6139a855687e1377b3058b17c1bdf8584cef",
        "d692b8d86cde19243dfeb343da3a068ec1fd6f64332aa9f5141ef1d29272f24c",
    ),
    "drift-poisson/rcc": (
        "05de3f17b6230d3bb8e6825410c6356c2fe4f4f99c163e3e7cd9d4b3f7d59a90",
        "3386c6508ed9159aaf04027e106b7e95492eefe40cb1fb842a0ff8573ec57ff4",
    ),
    "drift-poisson/online": (
        "7ca166a8ae6d93892e820c314b1523c6690aefd0e4d008322697474237d7dc61",
        "3184c8504043c4c2cfc2241c37c3541928b8d627f24e89093c25c94b10e64c00",
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
