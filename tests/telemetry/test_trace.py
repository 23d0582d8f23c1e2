"""The causal trace plane: determinism, ring overflow, export, spans.

Contracts under test:

* Same seed + same config ⇒ **byte-identical** trace JSONL, for SRM
  (demand and overlap) and DSM.  Determinism holds
  on the simulated-clock domains; the wall-clock ``wall:N`` domains
  from the parallel merge plane are explicitly excluded (they declare
  ``exact=False`` and never appear on the default serial paths).
* Ring overflow drops oldest-first, counts every drop, and surfaces
  the count through ``RunReport.trace_dropped``; attribution on a
  truncated ring flags the walk instead of silently misattributing.
* ``chrome_trace`` emits structurally valid Chrome trace-event JSON.
* The parallel merge plane emits one ``pmerge_worker`` event per range
  plus wall-domain drain records.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import dsm_sort
from repro.core.config import DSMConfig
from repro.core import SRMConfig, srm_sort
from repro.core.config import OverlapConfig
from repro.core.parallel_merge import parallel_merge_runs
from repro.disks import ParallelDiskSystem
from repro.telemetry import Telemetry
from repro.telemetry.report import RunReport
from repro.telemetry.schema import (
    EV_PMERGE_WORKER,
    validate_events,
)
from repro.telemetry.trace import TraceCollector, chrome_trace
from repro.workloads import uniform_permutation
from tests.oracles import write_run


def trace_blob(events: list[dict]) -> bytes:
    """Serialize the trace slice of an event stream to canonical JSONL."""
    lines = [
        json.dumps(e, sort_keys=True)
        for e in events
        if e["type"] in ("trace", "trace_summary")
    ]
    return ("\n".join(lines) + "\n").encode()


def _srm_events(seed: int, overlap: OverlapConfig | None = None) -> list[dict]:
    keys = uniform_permutation(3000, rng=seed)
    cfg = SRMConfig.from_k(4, 4, 32)
    tel = Telemetry(algo="srm")
    tel.attach_trace()
    srm_sort(keys, cfg, rng=seed + 1, overlap=overlap, telemetry=tel)
    return tel.finish()


class TestDeterminism:
    def test_srm_demand_trace_is_byte_identical(self):
        assert trace_blob(_srm_events(7)) == trace_blob(_srm_events(7))

    def test_srm_overlap_trace_is_byte_identical(self):
        ov = OverlapConfig(mode="full", prefetch_depth=2)
        assert trace_blob(_srm_events(11, ov)) == trace_blob(_srm_events(11, ov))

    def test_dsm_trace_is_byte_identical(self):
        def run():
            keys = uniform_permutation(3000, rng=5)
            cfg = DSMConfig.from_memory(1024, 4, 32)
            tel = Telemetry(algo="dsm")
            tel.attach_trace()
            dsm_sort(keys, cfg, telemetry=tel)
            return trace_blob(tel.finish())

        assert run() == run()

    def test_different_seed_changes_trace(self):
        # Sanity: the byte-equality above is not vacuous.
        assert trace_blob(_srm_events(7)) != trace_blob(_srm_events(8))


class TestRingOverflow:
    def _overflowed(self):
        keys = uniform_permutation(3000, rng=1)
        cfg = SRMConfig.from_k(4, 4, 32)
        tel = Telemetry(algo="srm")
        col = tel.attach_trace(TraceCollector(max_records=64))
        srm_sort(keys, cfg, rng=2, telemetry=tel)
        return tel, col

    def test_dropped_counter_and_report_surface(self):
        tel, col = self._overflowed()
        assert col.dropped > 0
        assert col.emitted == col.dropped + len(col.records)
        assert len(col.records) == 64
        report = RunReport.from_events(tel.finish())
        assert report.trace_dropped == col.dropped

    def test_truncated_walk_is_flagged_not_exact(self):
        from repro.analysis.critical_path import analyze_collector

        _tel, col = self._overflowed()
        analyses = analyze_collector(col)
        assert analyses, "summaries must survive the ring overflow"
        walked = [a for a in analyses.values() if a.records > 0]
        assert any(a.truncated for a in walked)
        assert all(not a.exact for a in walked if a.truncated)

    def test_collector_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            TraceCollector(max_records=0)


class TestChromeExport:
    def test_chrome_trace_structure(self):
        events = _srm_events(13, OverlapConfig(mode="full", prefetch_depth=2))
        validate_events(events)
        doc = chrome_trace(events)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["dropped"] == 0
        assert len(doc["otherData"]["domains"]) >= 1
        assert all(
            d["exact"] for d in doc["otherData"]["domains"].values()
        )
        kinds = {ev["ph"] for ev in doc["traceEvents"]}
        assert "X" in kinds and "M" in kinds
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        for ev in xs:
            assert ev["dur"] >= 0 and isinstance(ev["pid"], int)
        # Cross-lane deps become paired flow arrows.
        starts = [ev for ev in doc["traceEvents"] if ev["ph"] == "s"]
        finishes = [ev for ev in doc["traceEvents"] if ev["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        json.dumps(doc)  # round-trips to JSON without error


class TestPmergeWorkerSpans:
    def test_worker_events_and_wall_domain(self):
        system = ParallelDiskSystem(4, 8)
        rng = np.random.default_rng(0)
        runs = [
            write_run(
                system, np.sort(rng.integers(0, 2**40, 200)),
                run_id=r, start_disk=r % 4,
            )
            for r in range(3)
        ]
        tel = Telemetry(algo="pmerge")
        col = tel.attach_trace()
        parallel_merge_runs(
            system, runs, output_run_id=99, output_start_disk=0,
            workers=1, telemetry=tel,
        )
        events = tel.finish()
        workers = [
            e for e in events
            if e["type"] == "event" and e["name"] == EV_PMERGE_WORKER
        ]
        assert workers, "each merged range must emit a pmerge_worker event"
        assert sum(e["attrs"]["records"] for e in workers) == 600
        assert all(e["attrs"]["drain_s"] >= 0.0 for e in workers)
        wall = [r for r in col.records if r.domain.startswith("wall")]
        assert len(wall) == len(workers)
        assert all(r.kind == "compute" for r in wall)
        # Wall-clock lanes never claim simulated-clock exactness.
        assert all(
            not s.exact for s in col.summaries if s.domain.startswith("wall")
        )
