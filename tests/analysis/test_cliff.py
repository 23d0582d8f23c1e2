"""Tests for the makespan-cliff sweep (``repro cliff``)."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    CliffPoint,
    CliffReport,
    CliffSweepConfig,
    render_cliff,
    run_cliff,
)

#: Small sweep shared by most tests (one mode, two depths, 8 points).
CFG = CliffSweepConfig.quick(n_records=3_000)


@pytest.fixture(scope="module")
def report():
    return run_cliff(CFG)


class TestSweep:
    def test_grid_shape(self, report):
        expected = (
            len(CFG.modes) * len(CFG.depths) * len(CFG.factors) * len(CFG.stalls)
        )
        assert len(report.points) == expected

    def test_all_gates_pass(self, report):
        assert report.failures() == []

    def test_every_point_sorted_and_exact(self, report):
        for p in report.points:
            assert p.sorted_ok
            assert p.exact
            assert p.makespan_ms > 0.0
            assert p.makespan_ms >= p.bound_ms - 1e-6  # gap is never negative
            assert p.dominant in p.attribution or p.dominant == "none"

    def test_straggler_moves_makespan(self, report):
        # At equal depth/stalls, a 4x straggler must cost real time.
        by_key = {
            (p.prefetch_depth, p.latency_factor, p.n_stalls): p.makespan_ms
            for p in report.points
        }
        for depth in CFG.depths:
            assert by_key[(depth, 4.0, 0)] > by_key[(depth, 1.0, 0)]

    def test_deterministic(self, report):
        again = run_cliff(CFG)
        assert [p.row() for p in again.points] == [
            p.row() for p in report.points
        ]


class TestReport:
    def test_jsonl_roundtrip(self, report, tmp_path):
        path = tmp_path / "grid.jsonl"
        report.write_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        meta = [r for r in rows if r["type"] == "meta"]
        points = [r for r in rows if r["type"] == "point"]
        assert len(meta) == 1
        assert meta[0]["n_records"] == CFG.n_records
        assert len(points) == len(report.points)
        for row, p in zip(points, report.points):
            assert row["makespan_ms"] == p.makespan_ms
            assert row["dominant"] == p.dominant

    def test_render_mentions_every_point(self, report):
        text = render_cliff(report)
        assert text.count("\n") >= len(report.points)
        assert "all points: output identical, attribution exact" in text

    def test_failures_catch_regressions(self):
        point = CliffPoint(
            mode="full", prefetch_depth=0, latency_factor=4.0, n_stalls=0,
            makespan_ms=100.0, cpu_busy_ms=50.0, read_stall_ms=0.0,
            write_stall_ms=0.0, io_busy_ms=80.0, disk_utilization=0.5,
            bound_ms=90.0, overlap_gap_ms=10.0, dominant="read",
            exact=False, sorted_ok=False,
        )
        rep = CliffReport(config=CFG, points=[point])
        fails = rep.failures()
        assert any("not sorted-identical" in f for f in fails)
        assert any("does not tile the makespan" in f for f in fails)
        assert "FAIL" in render_cliff(rep)
