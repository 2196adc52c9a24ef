import json
import math

import numpy as np
import pytest

from streamkm.bench import (
    ALGORITHMS,
    BenchOptions,
    batch_reference,
    format_csv,
    run_benchmark,
    summarize,
    write_outputs,
)
from streamkm.cli import main
from streamkm.coreset import CoresetConfig
from streamkm.data import gaussian_mixture


@pytest.fixture(scope="module")
def small_stream():
    return gaussian_mixture(4, 1500, 2, 1.5, seed=0)


def opts(**kw):
    base = dict(timing=False, best_of=3, lloyd_iters=10)
    base.update(kw)
    return BenchOptions(**base)


class TestRunBenchmark:
    def test_records_per_query(self, small_stream):
        cfg = CoresetConfig(k=4, m=50, seed=1)
        m = run_benchmark("cc", small_stream, [500, 1000], cfg, seed=1, opts=opts())
        # scheduled queries plus the final one
        assert [r.point_index for r in m.records] == [500, 1000, 1500]
        assert all(math.isfinite(r.ssq) and r.ssq > 0 for r in m.records)
        assert all(r.mem_bytes == 2 * 8 * (r.mem_bytes // 16) for r in m.records)

    def test_seq_memory_constant(self, small_stream):
        cfg = CoresetConfig(k=4, m=50, seed=2)
        m = run_benchmark("seq", small_stream, [500, 1000], cfg, seed=2, opts=opts())
        assert {r.mem_bytes for r in m.records} == {4 * 2 * 8}

    def test_ssq_matches_independent_recomputation(self, small_stream):
        from streamkm.bench import _FACTORIES
        from streamkm.kmeans import clustering_cost

        cfg = CoresetConfig(k=4, m=50, seed=3)
        m = run_benchmark("ct", small_stream, [700], cfg, seed=3, opts=opts())
        rec = m.records[0]
        # replay the same run to the same query point
        alg = _FACTORIES["ct"](cfg, np.random.SeedSequence(3), opts())
        for p in small_stream[:700]:
            alg.push(p)
        centers = alg.query().centers
        assert clustering_cost(small_stream[:700], centers) == pytest.approx(rec.ssq)

    def test_exact_ssq_flag(self, small_stream):
        cfg = CoresetConfig(k=4, m=50, seed=4)
        m = run_benchmark("cc", small_stream, [500], cfg, seed=4,
                          opts=opts(exact_ssq=False))
        assert all(math.isnan(r.ssq) for r in m.records)

    def test_unknown_algo(self, small_stream):
        with pytest.raises(ValueError):
            run_benchmark("nope", small_stream, [], CoresetConfig(k=2, m=40), 0, opts())

    @pytest.mark.parametrize("algo", ["seq", "ct", "cc", "rcc", "online"])
    def test_all_algorithms_run(self, small_stream, algo):
        cfg = CoresetConfig(k=4, m=50, seed=5)
        m = run_benchmark(algo, small_stream, [750], cfg, seed=5,
                          opts=opts(rcc_order=1))
        assert len(m.records) == 2
        assert m.records[-1].ssq > 0


class TestBatchReference:
    def test_batch_beats_noise(self, small_stream):
        ssq = batch_reference(small_stream, 4, seed=0, runs=3, lloyd_iters=10)
        # four well-separated clusters with std 1.5 in 2d: near n*d*var
        assert ssq < 3 * len(small_stream) * 2 * 1.5**2


class TestMemoryEstimate:
    @pytest.mark.parametrize("algo", ["ct", "cc", "rcc"])
    def test_peak_memory_grows_with_stream(self, small_stream, algo):
        cfg = CoresetConfig(k=4, m=50, seed=11)
        kw = dict(seed=11, opts=opts(rcc_order=1))
        short = run_benchmark(algo, small_stream[:500], [250, 500], cfg, **kw)
        long = run_benchmark(algo, small_stream, [250, 500, 1000, 1500], cfg, **kw)
        peak = lambda m: max(r.mem_bytes for r in m.records)
        assert peak(long) >= peak(short)


class TestOutputs:
    def test_csv_schema_and_json(self, small_stream, tmp_path):
        cfg = CoresetConfig(k=4, m=50, seed=6)
        runs = [
            run_benchmark("cc", small_stream, [500], cfg, seed=6, opts=opts()),
            run_benchmark("cc", small_stream, [500], CoresetConfig(k=4, m=50, seed=7),
                          seed=7, opts=opts()),
        ]
        text = format_csv(runs)
        lines = text.strip().split("\n")
        assert lines[0] == "algo,seed,point_index,ssq,query_ns,update_ns_cum,mem_bytes"
        assert len(lines) == 1 + 2 * 2
        write_outputs(tmp_path / "out", runs, {"algo": "cc"})
        assert (tmp_path / "out" / "results.csv").read_text() == text
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["algorithms"]["cc"]["runs"] == 2
        assert summary["algorithms"]["cc"]["median_final_ssq"] > 0

    def test_summarize_medians(self, small_stream):
        cfg = CoresetConfig(k=4, m=50, seed=8)
        runs = [run_benchmark("ct", small_stream, [500], cfg, seed=s, opts=opts())
                for s in (8, 9, 10)]
        s = summarize(runs)["ct"]
        finals = sorted(r.final_ssq for r in runs)
        assert s["median_final_ssq"] == pytest.approx(finals[1])


class TestCli:
    def test_end_to_end_and_determinism(self, tmp_path):
        args = [
            "--algo", "cc", "--gen", "mixture", "--gen-n", "1200", "--gen-d", "2",
            "--gen-clusters", "4", "--gen-spread", "1.5", "--k", "4", "--m", "40",
            "--query-interval", "400", "--runs", "2", "--seed", "3",
            "--best-of", "2", "--lloyd-iters", "5", "--timing", "off",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b
        sa = (tmp_path / "a" / "summary.json").read_bytes()
        sb = (tmp_path / "b" / "summary.json").read_bytes()
        assert sa == sb

    def test_csv_input(self, tmp_path):
        rng = np.random.default_rng(0)
        f = tmp_path / "in.csv"
        f.write_text("\n".join(",".join(map(str, row)) for row in rng.normal(size=(300, 2))))
        code = main([
            "--algo", "ct", "--input", str(f), "--k", "2", "--m", "30",
            "--query-interval", "150", "--runs", "1", "--seed", "0",
            "--best-of", "2", "--lloyd-iters", "5", "--timing", "off",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_bad_input_fails_before_streaming(self, tmp_path, capsys):
        code = main([
            "--algo", "ct", "--input", str(tmp_path / "missing.csv"), "--k", "2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--runs", "0", "--runs must be >= 1"),
            ("--lloyd-iters", "-1", "--lloyd-iters must be >= 0"),
            ("--best-of", "0", "--best-of must be >= 1, got 0"),
            ("--r", "1", "--r must be >= 2, got 1"),
            ("--alpha", "1", "--alpha must be > 1, got 1.0"),
            ("--alpha", "nan", "--alpha must be > 1, got nan"),
            ("--eps", "0", "--eps must be in (0, 1), got 0.0"),
            ("--eps", "1", "--eps must be in (0, 1), got 1.0"),
            ("--rcc-depth", "-1", "--rcc-depth must be in [0, 6], got -1"),
            ("--rcc-depth", "7", "--rcc-depth must be in [0, 6], got 7"),
            ("--warmup", "1", "--warmup must be >= --k (2), got 1"),
            ("--gen-n", "-5", "--gen-n must be >= 0, got -5"),
            ("--gen-d", "0", "--gen-d must be >= 1, got 0"),
            ("--gen-clusters", "0", "--gen-clusters must be >= 1, got 0"),
            ("--drift-pps", "0", "--drift-pps must be >= 1, got 0"),
            ("--gen-spread", "-1", "--gen-spread must be finite and >= 0, got -1.0"),
            ("--gen-spread", "nan", "--gen-spread must be finite and >= 0, got nan"),
            ("--drift-speed", "nan", "--drift-speed must be finite, got nan"),
        ],
    )
    def test_degenerate_options_rejected(self, tmp_path, capsys, algo, flag, value, message):
        code = main([
            "--algo", algo, "--gen", "mixture", "--gen-n", "400", "--gen-d", "2", "--k", "2",
            flag, value, "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("source", ["gen-n-0", "drift-n-0", "empty-csv", "blank-csv"])
    def test_empty_stream_rejected(self, tmp_path, capsys, algo, source):
        f = tmp_path / "in.csv"
        f.write_text({"empty-csv": "", "blank-csv": "\n  \n\t\n"}.get(source, ""))
        if source == "gen-n-0":
            stream = ["--gen", "mixture", "--gen-n", "0", "--gen-d", "2"]
        elif source == "drift-n-0":
            stream = ["--gen", "drift", "--gen-n", "0", "--gen-d", "2"]
        else:
            stream = ["--input", str(f)]
        code = main(["--algo", algo, *stream, "--k", "2", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: the stream has no points" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_poisson_schedule_runs(self, tmp_path):
        code = main([
            "--algo", "online", "--gen", "drift", "--gen-n", "1000", "--gen-d", "2",
            "--gen-clusters", "4", "--k", "4", "--m", "40", "--poisson-rate", "0.005",
            "--runs", "1", "--seed", "2", "--best-of", "2", "--lloyd-iters", "5",
            "--timing", "off", "--out", str(tmp_path / "out"),
        ])
        assert code == 0

    @pytest.mark.parametrize("rate", ["2", "1e308"])
    def test_poisson_rate_above_one_rejected(self, tmp_path, capsys, rate):
        code = main([
            "--algo", "ct", "--gen", "mixture", "--gen-n", "400", "--gen-d", "2", "--k", "2",
            "--poisson-rate", rate, "--out", str(tmp_path / "out"),
        ])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert "error: rate must be finite and positive and at most 1" in out.err
        assert "--query-interval 1" in out.err
        assert not (tmp_path / "out").exists()
