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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dsm", "--overlap", "full"], "--dsm"),
            (["--dsm", "--workers", "2", "--backend", "mmap"], "--dsm"),
            (["--overlap", "full", "--workers", "2", "--backend", "mmap"],
             "overlap engine"),
            (["--workers", "2"], "mmap storage backend"),
        ],
        ids=["dsm-overlap", "dsm-workers", "overlap-workers", "workers-memory"],
    )
    def test_sort_rejects_unsupported_flags(self, capsys, flags, message):
        rc = main(["sort", "--n", "2000", "--disks", "2", "--block", "8",
                   "--k", "2", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err
        assert "correct" not in captured.out

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


class TestChaosCliff:
    def test_full_check_and_jsonl_has_cliff_rows(self, tmp_path, capsys):
        import json

        out = tmp_path / "chaos.jsonl"
        rc = main(["chaos", "--check", "--n", "3000", "--block", "8",
                   "--seed", "77", "--out", str(out)])
        assert rc == 0
        assert "chaos check passed" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0]["type"] == "meta" and rows[0]["passed"]
        cliff = [r for r in rows[1:] if r["scenario"].startswith("cliff_")]
        assert len(cliff) == 6  # depths 0/2 x (1x,4x) x (0,2 stalls) - refs
        for row in cliff:
            assert row["ok"] and row["identical"], row["scenario"]
            assert row["faults"]["trace_exact"] is True, row["scenario"]
            assert row["makespan_overhead_pct"] > 0.0, row["scenario"]
