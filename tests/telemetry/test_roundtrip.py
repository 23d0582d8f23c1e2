"""End-to-end: instrumented sorts -> JSONL -> RunReport -> render/check."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DSMConfig, SRMConfig, Telemetry, dsm_sort, srm_sort
from repro.telemetry import RunReport, load_events
from repro.telemetry.schema import (
    H_DRAIN_BATCH,
    H_FLUSH_OCCUPANCY,
    H_RUN_LENGTH,
    MERGE_DRAIN_CYCLES,
    SCHED_BLOCKS_FLUSHED,
    SCHED_FLUSH_OPS,
    SCHED_INITIAL_READS,
    SCHED_MERGE_PARREADS,
    SPAN_MERGE,
    SPAN_MERGE_PASS,
    SPAN_RUN_FORMATION,
    SPAN_SORT,
    validate_events,
)

N = 6_000


def _srm_events(tmp_path=None):
    keys = np.random.default_rng(11).permutation(N)
    cfg = SRMConfig.from_k(4, 4, 32)
    tel = Telemetry(algo="srm", n_records=N, n_disks=4, block_size=32,
                    merge_order=cfg.merge_order, seed=11)
    srm_sort(keys, cfg, rng=12, telemetry=tel)
    return tel.finish(), tel


def _dsm_events():
    keys = np.random.default_rng(11).permutation(N)
    cfg = DSMConfig(n_disks=4, block_size=32, merge_order=4)
    tel = Telemetry(algo="dsm", n_records=N, n_disks=4, block_size=32, seed=11)
    dsm_sort(keys, cfg, telemetry=tel)
    return tel.finish(), tel


class TestJsonlRoundtrip:
    def test_srm_roundtrip_and_check(self, tmp_path):
        events, tel = _srm_events()
        path = str(tmp_path / "run.jsonl")
        tel.write_jsonl(path)
        loaded = load_events(path)
        assert loaded == events  # byte-faithful through JSON
        report = RunReport.from_jsonl(path)
        assert report.algo == "srm"
        assert report.check() == []
        text = report.render()
        assert "per-merge reads vs Theorem 1" in text
        assert "flush-time M_R occupancy" in text

    def test_srm_span_tree_shape(self):
        events, _ = _srm_events()
        assert validate_events(events) == []
        report = RunReport.from_events(events)
        sorts = report.spans_named(SPAN_SORT)
        assert len(sorts) == 1
        assert sorts[0]["depth"] == 0
        rf = report.spans_named(SPAN_RUN_FORMATION)
        assert len(rf) == 1 and rf[0]["parent_id"] == sorts[0]["span_id"]
        passes = report.spans_named(SPAN_MERGE_PASS)
        assert passes and all(
            p["parent_id"] == sorts[0]["span_id"] for p in passes
        )
        pass_ids = {p["span_id"] for p in passes}
        merges = report.spans_named(SPAN_MERGE)
        assert merges and all(m["parent_id"] in pass_ids for m in merges)

    def test_srm_merge_rows_carry_the_bound(self):
        events, _ = _srm_events()
        report = RunReport.from_events(events)
        rows = report.merge_rows()
        assert rows
        for row in rows:
            assert row["total_reads"] >= row["perfect_reads"]
            assert row["v"] >= 1.0 - 1e-9
            if row["n_runs"] > 1:
                assert row["v_bound"] is not None and row["v_bound"] > 1.0

    def test_srm_metrics_match_span_attrs(self):
        """Registry counters and span-attr accounting agree (no drift)."""
        events, _ = _srm_events()
        report = RunReport.from_events(events)
        merges = report.spans_named(SPAN_MERGE)
        assert report.metrics[SCHED_INITIAL_READS]["value"] == sum(
            m["attrs"]["initial_reads"] for m in merges
        )
        assert report.metrics[SCHED_MERGE_PARREADS]["value"] == sum(
            m["attrs"]["merge_parreads"] for m in merges
        )
        assert report.metrics[H_FLUSH_OCCUPANCY]["counts"][-1] == 0
        assert report.metrics[H_RUN_LENGTH]["n"] == (
            report.spans_named(SPAN_RUN_FORMATION)[0]["attrs"]["runs_formed"]
        )

    def test_registry_matches_schedule_stats(self):
        """The ``sched.*`` counters equal the summed ScheduleStats."""
        keys = np.random.default_rng(2).permutation(20_000)
        cfg = SRMConfig.from_k(4, 4, 64)
        tel = Telemetry(algo="srm")
        _, res = srm_sort(keys, cfg, rng=3, telemetry=tel)
        tel.finish()
        snap = tel.registry.snapshot()
        scheds = res.merge_schedules
        assert scheds
        for name, field in (
            (SCHED_INITIAL_READS, "initial_reads"),
            (SCHED_MERGE_PARREADS, "merge_parreads"),
            (SCHED_FLUSH_OPS, "flush_ops"),
            (SCHED_BLOCKS_FLUSHED, "blocks_flushed"),
        ):
            want = sum(getattr(s, field) for s in scheds)
            assert snap[name]["value"] == want, name

    def test_corrupt_jsonl_rejected(self, tmp_path):
        from repro.errors import DataError

        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(DataError, match="not valid JSON"):
            load_events(str(path))

    def test_stream_missing_metrics_rejected(self):
        from repro.errors import DataError

        with pytest.raises(DataError, match="invalid telemetry stream"):
            RunReport.from_events([{"type": "meta", "schema": 1}])


class TestSrmDsmParity:
    """Both algorithms emit the same schema so traces are comparable."""

    def test_same_span_vocabulary(self):
        srm, _ = _srm_events()
        dsm, _ = _dsm_events()
        assert validate_events(srm) == []
        assert validate_events(dsm) == []
        want = {SPAN_SORT, SPAN_RUN_FORMATION, SPAN_MERGE_PASS, SPAN_MERGE}
        for events in (srm, dsm):
            names = {e["name"] for e in events if e["type"] == "span"}
            assert want <= names

    def test_shared_metric_names(self):
        srm, _ = _srm_events()
        dsm, _ = _dsm_events()
        srm_metrics = set(srm[-1]["metrics"])
        dsm_metrics = set(dsm[-1]["metrics"])
        shared = {H_DRAIN_BATCH, H_RUN_LENGTH, MERGE_DRAIN_CYCLES}
        assert shared <= srm_metrics
        assert shared <= dsm_metrics
        # SRM-only signals stay SRM-only: DSM never flushes.
        assert H_FLUSH_OCCUPANCY in srm_metrics
        assert H_FLUSH_OCCUPANCY not in dsm_metrics

    def test_dsm_report_renders_and_checks(self):
        events, _ = _dsm_events()
        report = RunReport.from_events(events)
        assert report.algo == "dsm"
        assert report.check() == []
        rows = report.merge_rows()
        assert rows
        # Striped reads are perfect by construction: v == 1, no bound.
        for row in rows:
            assert row["v"] == pytest.approx(1.0)
            assert row["v_bound"] is None
        assert "v_bound" in report.render() or "—" in report.render()
