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
        "093f71222a9eee9da8fc33252ab647be1d8fa7d440e5d4dbe5640292ef23f100",
        "7dd7f98a8131c2aa1169d75d1df824c77a8851d3310f4b3e6e2460a1c5503c0d",
    ),
    "mixture-fixed/rcc": (
        "b1961004748afb22772d54638665fbf99eafa9168e526dca4e66fa22b51bab90",
        "f6b630fdbb6455828f1aa1bc013b38ea91f9b2ffa02504762fc3e4f29ed400f7",
    ),
    "mixture-fixed/online": (
        "07fb545f6c13c4bb36cae4020ee081f2e3746bf48bda7553609fbd5bb11c47b7",
        "241cbd20e87877ada0a077c6909ab6b4cfe90994a3fa561b6b986bfac9cfd19c",
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
        "f61100e45a24d4b9f82cc1b20b482e508bbd5c7d413ae81508e995493dca59eb",
        "85ae9b64558523e734dd4e54aba8ee2c5beede0296a0a2cf4fd64fa12c843bab",
    ),
    "drift-poisson/rcc": (
        "64b3f5921be5a25998e84ee8849e2c58acf5cc73255e377e7244159443dcdf3e",
        "adb92b2f02a15c3a3ff44d0447f86afe49bb095b7ab20eb5ba0edf57b403e1f0",
    ),
    "drift-poisson/online": (
        "a1572fadb13463f81c183abb47c4183040bfb8205a53bdb20fd9c4eb4209b9f9",
        "90fd8f0d2fb7d820cfb0f74a28695b18b44f1d92b612dc38054671d66d95cfa4",
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
