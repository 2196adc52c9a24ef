"""streamkm benchmark: ingest rate, query latency, quality and space of all five
algorithms on one workload, or the per-module breakdown of the same run.

Run from the repository root:

    python3 benchmarks/run.py --workload dense-every-bucket --seed 1 --seconds 30 --trace 0

The input stream is generated from --seed, written to a CSV file and loaded
through streamkm.data.read_csv_stream.  The five algorithms then run in this
one process and thread, taking turns in the order seq, ct, cc, rcc, online on
each stretch of the stream, with a closed loop of queries.  One pass over the
stream is a round; a run makes three rounds, then more while the next one
is expected to end within --seconds.  With --trace 1 the run makes one
round in which every algorithm runs an untraced and a traced instance side by
side, and reports the per-layer metrics instead of the end-to-end ones.  The
last line of standard output is one JSON object with the results; the full
report goes to .bench_out/.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy loads: the benchmark measures one thread.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    os.environ.update(BLAS_THREADS)
    if not (SRC / "streamkm" / "__init__.py").is_file():
        print(f"error: no streamkm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:], BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
