"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.analysis.bench import BENCHES, load_record, write_record
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


class TestCli:
    def test_scenario_prints_table(self, capsys):
        assert main(["scenario", "--amount", "200"]) == 0
        out = capsys.readouterr().out
        assert "withdrawal at A" in out
        assert "granted" in out
        assert "-125" in out

    def test_scenario_consistent_amount(self, capsys):
        assert main(["scenario", "--amount", "100"]) == 0
        out = capsys.readouterr().out
        assert "overdraft letters    0" in out

    def test_theorem_small_run(self, capsys):
        assert main(["theorem", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "forests" in out
        assert "cyclic" in out

    def test_spectrum_custom_duration(self, capsys):
        assert main(["spectrum", "--seed", "3", "--duration", "50"]) == 0
        out = capsys.readouterr().out
        assert "fa-unrestricted" in out
        assert "mutual-exclusion" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_help_structure(self):
        parser = build_parser()
        assert parser.prog == "repro"

    def test_scenario_trace_writes_jsonl(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(["scenario", "--trace", path]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        from repro.obs import summarize_trace

        summary = summarize_trace(path)
        assert summary.count("txn.commit") > 0
        assert summary.count("partition.cut") == 1

    def test_metrics_snapshot_run(self, capsys):
        assert main(["metrics", "--seed", "3", "--duration", "50"]) == 0
        out = capsys.readouterr().out
        assert "net.messages_sent" in out
        assert "txn.committed" in out
        assert "net.delivery_delay" in out

    def test_metrics_summarize_trace(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(["scenario", "--trace", path]) == 0
        capsys.readouterr()
        assert main(["metrics", "--summarize", path]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "message.send" in out

    def test_partial_bench_reduced_run(self, capsys, tmp_path):
        path = str(tmp_path / "bench.json")
        assert main([
            "bench", "partial", "--nodes", "6", "--fragments", "3",
            "--updates", "30", "--factors", "2", "3", "--json", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "E19" in out
        assert "all gates OK" in out
        # The record it just wrote gates cleanly (and, being fully
        # deterministic, matches an immediate re-run exactly).
        assert main([
            "bench", "partial", "--nodes", "6", "--fragments", "3",
            "--updates", "30", "--factors", "2", "3", "--check", path,
        ]) == 0

    @pytest.mark.parametrize("name", sorted(BENCHES))
    def test_bench_record_round_trips(self, name, tmp_path):
        # Each committed record loads, and write_record reproduces it
        # byte for byte, so `--json` over a committed file is a no-op
        # when the bench's output is unchanged.
        committed_path = ROOT / BENCHES[name].record
        committed = load_record(str(committed_path))
        assert committed is not None, f"{committed_path} missing"
        fresh = tmp_path / "record.json"
        write_record(committed, str(fresh))
        assert fresh.read_bytes() == committed_path.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["scale-bench"],
            ["partial-bench"],
            ["failover-bench"],
            ["availability-accounting-bench"],
            ["serve-bench"],
            ["bench", "serve", "--tolerance", "0.1"],
        ],
    )
    def test_old_bench_commands_and_serve_tolerance_rejected(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_chaos_with_partial_replication(self, capsys):
        assert main([
            "chaos", "--seed", "5", "--protocol", "with-seqno",
            "--replication-factor", "2", "--quorum-reads", "3",
            "--bursts", "0", "--flaps", "0", "--crashes", "0",
            "--partitions", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "with-seqno" in out
        assert "OK" in out


class TestObservabilityCommands:
    def trace_file(self, tmp_path, capsys):
        """Produce a small traced chaos run to feed the dashboard."""
        path = str(tmp_path / "trace.jsonl")
        assert main([
            "chaos", "--seed", "3", "--protocol", "with-seqno",
            "--bursts", "0", "--flaps", "0", "--crashes", "1",
            "--partitions", "0", "--trace", path,
        ]) == 0
        capsys.readouterr()
        return path

    def test_metrics_watch_prints_tick_blocks(self, capsys):
        assert main([
            "metrics", "--seed", "7", "--duration", "40", "--watch", "25",
        ]) == 0
        out = capsys.readouterr().out
        assert "t=" in out
        assert "metrics snapshot" in out

    def test_metrics_watch_rejects_nonpositive_tick(self, capsys):
        assert main(["metrics", "--watch", "0"]) == 1
        assert "must be positive" in capsys.readouterr().err

    def test_metrics_timeline_out_writes_jsonl(self, capsys, tmp_path):
        out_path = str(tmp_path / "tl.jsonl")
        assert main([
            "metrics", "--seed", "7", "--duration", "40", "--watch", "25",
            "--timeline-out", out_path,
        ]) == 0
        assert "timeline records written" in capsys.readouterr().out
        from repro.obs.timeline import load_jsonl

        loaded = load_jsonl(out_path)
        assert loaded["counter"]  # sampled something

    def test_dashboard_requires_a_mode(self, capsys, tmp_path):
        path = self.trace_file(tmp_path, capsys)
        assert main(["dashboard", path]) == 1
        assert "--html" in capsys.readouterr().err

    def test_dashboard_html_renders_the_trace(self, capsys, tmp_path):
        path = self.trace_file(tmp_path, capsys)
        html_path = str(tmp_path / "dash.html")
        assert main(["dashboard", path, "--html", html_path]) == 0
        assert "dashboard written" in capsys.readouterr().out
        with open(html_path, encoding="utf-8") as handle:
            html = handle.read()
        assert "<svg" in html
        assert "viz-root" in html

    def test_dashboard_html_missing_trace_errors(self, capsys, tmp_path):
        assert main([
            "dashboard", str(tmp_path / "absent.jsonl"),
            "--html", str(tmp_path / "dash.html"),
        ]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_chaos_table_has_availability_columns(self, capsys):
        assert main([
            "chaos", "--seed", "11", "--protocol", "with-seqno",
            "--bursts", "0", "--flaps", "0", "--crashes", "0",
            "--partitions", "0", "--kill-agent", "1", "--failover",
        ]) == 0
        out = capsys.readouterr().out
        assert "avail" in out
        assert "worst-win" in out
        assert "unavailability by cause:" in out

    def test_availability_accounting_bench_reduced_run(
        self, capsys, tmp_path
    ):
        path = str(tmp_path / "bench.json")
        assert main([
            "bench", "accounting", "--nodes", "4",
            "--fragments", "2", "--updates", "12", "--factor", "3",
            "--json", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "E21" in out
        assert "timeline deterministic across reruns: True" in out
        assert "all gates OK" in out
        # The record it just wrote gates cleanly against itself.
        assert main([
            "bench", "accounting", "--nodes", "4",
            "--fragments", "2", "--updates", "12", "--factor", "3",
            "--check", path,
        ]) == 0
