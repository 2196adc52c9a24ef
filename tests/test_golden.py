"""Golden-output regression for the benchmark CLI.

`streamkm-bench --timing off` must write byte-identical results.csv and
summary.json for all five algorithms, on a mixture stream with a fixed
query schedule and on a drift stream with a Poisson schedule.  The SHA-256
digests below were recorded with Python 3.11.7 and numpy 2.4.6 on x86-64
Linux.  The outputs hold floating-point SSQ values, so another numpy or
BLAS build may legitimately differ in the last bits; on such a platform
regenerate the digests from a known-good commit before using this test as
a refactoring gate.  Run as a script (`PYTHONPATH=src python
tests/test_golden.py`), this file prints the current digests in GOLDEN's
format, each one that moved marked as such.
"""

import hashlib
from pathlib import Path

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
        "a6350bf40da8afe18878d188040fce33da8fadeefb4e5da1ba610963ccb01ee5",
        "6052e3827fab784aabf3758bd64bc86d3d99fe088aae10ff0ade65973d11592d",
    ),
    "mixture-fixed/cc": (
        "67db4da52da9ae206cca331be00c5b6db9d3736207ca6c69183a3d0d175b42f9",
        "b71b9c4157505ea26987981e586c0f7e5c2f4f67ebca920d695b602c21f14ca8",
    ),
    "mixture-fixed/rcc": (
        "10b2f421eeecccaf742df56235725419e07a4331c4387ccfdeb4a5ab1f663159",
        "eb5529e0f48564008eff96ce418e522bdf5550a21ce4d28c62f5fbdf51cb9451",
    ),
    "mixture-fixed/online": (
        "c40b9913e0dd6b0da6918f28fb8ed0b8f2ed0ee3c593a4bea082cc6926351505",
        "f2e48ac0eeeb708f415bd6d4707bc62c3203d18f645b8426dcaff576ecb11d5c",
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


def digests(out_dir, stream, algo):
    """(results.csv, summary.json) SHA-256 digests of one CLI run into out_dir."""
    assert main(["--algo", algo, "--out", str(out_dir)] + STREAMS[stream] + COMMON) == 0
    return tuple(
        hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        for name in ("results.csv", "summary.json")
    )


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("algo", ALGOS)
def test_cli_output_matches_golden(tmp_path, stream, algo):
    assert digests(tmp_path, stream, algo) == GOLDEN[f"{stream}/{algo}"]


if __name__ == "__main__":
    # Print the current digests as GOLDEN entries, marking the ones that moved:
    #   PYTHONPATH=src python tests/test_golden.py
    import contextlib
    import io
    import tempfile

    print("GOLDEN = {")
    for stream in STREAMS:
        for algo in ALGOS:
            key = f"{stream}/{algo}"
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
                got = digests(out, stream, algo)
            moved = "" if GOLDEN.get(key) == got else "  # moved"
            print(f'    "{key}": ({moved}\n        "{got[0]}",\n        "{got[1]}",\n    ),')
    print("}")
