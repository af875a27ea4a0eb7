"""Tests for repro.cli."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "fig18_19" in out
        assert "fig27" in out

    def test_unknown_figure(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_run_small_figure(self, capsys):
        assert main(["fig21", "--scale", "0.02", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig21" in out
        assert "GREEDY" in out
        assert "Running time" in out

    def test_csv_output(self, capsys, tmp_path):
        assert main(
            ["fig21", "--scale", "0.02", "--csv", str(tmp_path)]
        ) == 0
        csv_file = tmp_path / "fig21.csv"
        assert csv_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("figure,x,algorithm")


class TestStreamCommand:
    def test_stream_bursty(self, capsys):
        assert main(
            [
                "stream",
                "--scenario", "bursty",
                "--workers", "60",
                "--tasks", "60",
                "--instances", "4",
                "--round-interval", "0.5",
                "--budget", "20",
                "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "bursty / greedy / 1 shard (serial)" in out
        assert "events/s" in out
        assert "delta maintenance:" in out
        assert "candidate pairs" in out

    @pytest.mark.usefixtures("fused_rounds")
    def test_stream_without_examined_pairs(self, capsys):
        """A stream whose rounds price no pair says so rather than
        printing an infinite ratio.  Pinned to the fused path: the
        dense kernel prices every pair, so only there can the count
        be zero while dense would touch some."""
        assert main(
            [
                "stream",
                "--scenario", "bursty",
                "--workers", "1",
                "--tasks", "1",
                "--instances", "2",
                "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "candidate pairs: no pairs examined (dense would touch 7)" in out
        assert "infx" not in out

    def test_stream_warm_select_default_on(self, capsys):
        assert main(
            [
                "stream",
                "--scenario", "bursty",
                "--workers", "60",
                "--tasks", "60",
                "--instances", "4",
                "--round-interval", "0.5",
                "--budget", "20",
                "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "warm selection:" in out
        assert "select" in out and "finalize" in out

    def test_stream_json_output(self, capsys, tmp_path):
        import json

        path = tmp_path / "stream.json"
        assert main(
            [
                "stream",
                "--scenario", "hotspot",
                "--workers", "40",
                "--tasks", "40",
                "--instances", "3",
                "--no-prediction",
                "--json", str(path),
            ]
        ) == 0
        summary = json.loads(path.read_text())
        assert summary["scenario"] == "hotspot"
        assert summary["rounds"] == 6  # 3 instances / 0.5 interval
        assert summary["candidate_pairs_examined"] >= 0
        assert summary["mean_select_ms"] >= 0.0
        assert summary["mean_finalize_ms"] >= 0.0

    def test_stream_metrics_and_trace_out(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_metrics_snapshot
        from repro.obs.trace import validate_chrome_trace

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        summary_path = tmp_path / "stream.json"
        assert main(
            [
                "stream",
                "--scenario", "bursty",
                "--workers", "60",
                "--tasks", "60",
                "--instances", "4",
                "--round-interval", "0.5",
                "--budget", "20",
                "--seed", "3",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
                "--json", str(summary_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "phase latency p50/p95/p99 ms:" in out
        assert f"wrote {metrics_path}" in out
        assert f"wrote {trace_path}" in out

        metrics = json.loads(metrics_path.read_text())
        assert validate_metrics_snapshot(metrics) == []
        histogram_names = {h["name"] for h in metrics["histograms"]}
        assert "stream_round_seconds" in histogram_names

        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"round", "build", "select"} <= names

        summary = json.loads(summary_path.read_text())
        latencies = summary["phase_latencies"]
        assert {"round", "build", "select", "finalize"} <= set(latencies)
        for stats in latencies.values():
            assert stats["p50"] <= stats["p95"] <= stats["p99"]

    def test_stream_sharded_citywide(self, capsys, tmp_path):
        import json

        path = tmp_path / "sharded.json"
        assert main(
            [
                "stream",
                "--scenario", "citywide",
                "--workers", "80",
                "--tasks", "80",
                "--instances", "3",
                "--shards", "4",
                "--backend", "serial",
                "--seed", "3",
                "--json", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "citywide / greedy / 4 shards (serial)" in out
        assert "tile build mean ms:" in out
        assert "delta maintenance:" in out
        summary = json.loads(path.read_text())
        assert summary["shards"] == 4
        assert summary["backend"] == "serial"

    def test_stream_sharded_matches_unsharded(self, capsys, tmp_path):
        import json

        base = tmp_path / "base.json"
        sharded = tmp_path / "sharded.json"
        common = [
            "stream", "--scenario", "citywide", "--workers", "70",
            "--tasks", "70", "--instances", "3", "--seed", "5",
        ]
        assert main(common + ["--json", str(base)]) == 0
        assert main(
            common + ["--shards", "2", "--backend", "thread", "--json", str(sharded)]
        ) == 0
        capsys.readouterr()
        a = json.loads(base.read_text())
        b = json.loads(sharded.read_text())
        assert b["assignments"] == a["assignments"]
        assert b["total_quality"] == a["total_quality"]
        assert b["total_cost"] == a["total_cost"]

    def test_stream_one_serial_shard_matches_default(self, capsys):
        """``--shards 1 --backend serial`` spells out the default run."""
        common = [
            "stream", "--scenario", "bursty", "--workers", "60",
            "--tasks", "60", "--instances", "3", "--seed", "4",
        ]

        def totals(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "assignments" in line]

        default = totals(common)
        assert default
        assert totals(common + ["--shards", "1", "--backend", "serial"]) == default


@pytest.mark.parametrize(
    "argv",
    [
        ["stream", "--round-interval", "0"],
        ["stream", "--budget", "-1"],
        ["stream", "--shards", "0"],
        ["stream", "--shards", "-2"],
        ["serve", "--round-interval", "0"],
    ],
    ids=["stream-interval", "stream-budget", "stream-shards-0", "stream-shards-neg",
         "serve-interval"],
)
def test_config_errors_exit_2(argv, capsys):
    """Invalid engine configuration prints one line and exits 2."""
    assert main(argv + ["--workers", "10", "--tasks", "10"]) == 2
    captured = capsys.readouterr()
    assert "invalid configuration:" in captured.err
    assert "Traceback" not in captured.err
