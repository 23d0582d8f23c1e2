"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        p = build_parser()
        for argv in (
            ["table1"],
            ["table2", "--paper-v"],
            ["table3", "--blocks-per-run", "10"],
            ["table4", "--full"],
            ["figure1"],
            ["sort", "--n", "100"],
            ["demo"],
        ):
            args = p.parse_args(argv)
            assert callable(args.func)


class TestCommands:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "dependent" in out and "holds" in out

    def test_sort_srm(self, capsys):
        rc = main(["sort", "--n", "2000", "--disks", "2", "--block", "8", "--k", "2"])
        assert rc == 0
        assert "correct: True" in capsys.readouterr().out

    def test_sort_rejects_nonpositive_workers(self, capsys):
        rc = main(["sort", "--n", "2000", "--disks", "2", "--block", "8",
                   "--k", "2", "--workers", "0"])
        assert rc == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_sort_dsm(self, capsys):
        rc = main(
            ["sort", "--n", "2000", "--disks", "2", "--block", "8", "--k", "2", "--dsm"]
        )
        assert rc == 0
        assert "DSM" in capsys.readouterr().out

    def test_table2_paper_v(self, capsys):
        assert main(["table2", "--paper-v"]) == 0
        out = capsys.readouterr().out
        assert "paper / measured" in out
        assert "D=1000" in out

    def test_table3_tiny(self, capsys):
        rc = main(["table3", "--blocks-per-run", "10", "--block-size", "4",
                   "--seed", "3"])
        assert rc == 0
        assert "Table 3" in capsys.readouterr().out

    def test_records(self, capsys):
        rc = main(["records", "--n", "3000", "--disks", "2", "--block", "8",
                   "--memory", "600"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stable (ties keep input order): True" in out

    def test_bounds(self, capsys):
        rc = main(["bounds", "--trials", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lower" in out and "upper" in out


class TestClusterSort:
    def test_parses(self):
        args = build_parser().parse_args(
            ["cluster-sort", "--n", "100", "--nodes", "2", "--lose-node", "1"]
        )
        assert callable(args.func)
        assert args.lose_node == 1

    def test_basic(self, capsys):
        rc = main(["cluster-sort", "--n", "4000", "--nodes", "2", "--disks", "2",
                   "--block", "8", "--k", "2", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "correct: True" in out
        assert "cluster check passed" in out

    def test_node_loss_with_check(self, capsys):
        rc = main(["cluster-sort", "--n", "6000", "--nodes", "4", "--disks", "2",
                   "--block", "8", "--k", "2", "--lose-node", "1", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "node losses: 1" in out
        assert "cluster check passed" in out

    def test_zipf_workload(self, capsys):
        rc = main(["cluster-sort", "--n", "4000", "--nodes", "2", "--disks", "2",
                   "--block", "8", "--k", "2", "--workload", "zipf", "--check"])
        assert rc == 0
        assert "cluster check passed" in capsys.readouterr().out

    def test_telemetry_trace(self, tmp_path, capsys):
        trace = tmp_path / "cluster.jsonl"
        rc = main(["cluster-sort", "--n", "4000", "--nodes", "2", "--disks", "2",
                   "--block", "8", "--k", "2", "--telemetry", str(trace)])
        assert rc == 0
        assert trace.exists()
        import json

        events = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = {e["name"] for e in events if e.get("type") == "span"}
        assert "exchange" in spans and "cluster_sort" in spans


class TestCliff:
    def test_parses(self):
        args = build_parser().parse_args(["cliff", "--quick", "--check"])
        assert callable(args.func)
        assert args.quick and args.check

    def test_quick_check_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "cliff.jsonl"
        rc = main(["cliff", "--quick", "--check", "--n", "3000",
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "cliff map" in stdout
        assert "cliff check passed" in stdout
        import json

        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0]["type"] == "meta"
        points = [r for r in rows if r["type"] == "point"]
        assert len(points) == 8  # quick grid: 1 mode x 2 depths x 2 x 2
        assert all(p["sorted_ok"] and p["exact"] for p in points)

    def test_custom_axes(self, capsys):
        rc = main(["cliff", "--n", "2000", "--modes", "full", "--depths", "0",
                   "--factors", "1,4", "--stall-densities", "0",
                   "--no-adaptive"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("full") >= 2


class TestServe:
    def test_parses(self):
        args = build_parser().parse_args(
            ["serve", "--policy", "wfq", "--tenants", "3", "--check"]
        )
        assert callable(args.func)
        assert args.policy == "wfq" and args.check

    def test_check_and_jsonl_report(self, tmp_path, capsys):
        out = tmp_path / "serve.jsonl"
        rc = main(["serve", "--jobs", "3", "--tenants", "2", "--disks", "2",
                   "--block", "8", "--k", "2", "--min-records", "150",
                   "--max-records", "400", "--check", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "serve check passed" in stdout
        import json

        rows = [json.loads(line) for line in out.read_text().splitlines()]
        summary = [r for r in rows if r["kind"] == "service_summary"]
        assert len(summary) == 1
        assert summary[0]["identity_failures"] == []
        assert summary[0]["n_completed"] == 3
        assert len([r for r in rows if r["kind"] == "job"]) == 3

    def test_arrivals_file_roundtrip(self, tmp_path, capsys):
        from repro.workloads import batch_arrivals, dump_arrivals

        script = tmp_path / "arrivals.json"
        dump_arrivals(
            batch_arrivals(2, n_tenants=2, min_records=150, max_records=300,
                           rng=3),
            script,
        )
        rc = main(["serve", "--disks", "2", "--block", "8", "--k", "2",
                   "--arrivals-file", str(script), "--policy", "srpt"])
        assert rc == 0
        assert "policy=srpt jobs=2" in capsys.readouterr().out

    def test_telemetry_trace_has_service_spans(self, tmp_path, capsys):
        trace = tmp_path / "serve_trace.jsonl"
        rc = main(["serve", "--jobs", "2", "--tenants", "2", "--disks", "2",
                   "--block", "8", "--k", "2", "--min-records", "150",
                   "--max-records", "300", "--telemetry", str(trace)])
        assert rc == 0
        import json

        events = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = [e for e in events if e.get("type") == "span"]
        assert any(s["name"] == "service" for s in spans)
        assert sum(s["name"] == "service_job" for s in spans) == 2
        assert any(e.get("type") == "trace" for e in events)
        # The service trace passes the inspect gate: per-tenant
        # attribution line present, exact-domain check green.
        capsys.readouterr()
        assert main(["inspect", str(trace), "--attribution", "--check"]) == 0
        out = capsys.readouterr().out
        assert "per-tenant:" in out and "check passed" in out
