"""Tests for the discrete-event overlapped-I/O engine.

The engine's contract has two halves:

* **Observation only** — it never changes *what* the scheduler reads,
  flushes, or the writer emits, so ``mode="none"`` reproduces the
  demand-paced :class:`ScheduleStats` exactly and every mode produces
  byte-identical sorted output.
* **Timing** — on a compute/IO-balanced workload, a read-ahead window
  of depth >= 1 is strictly faster than demand pacing, and adding
  write-behind (``mode="full"``) is at least as fast again.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    MergeJob,
    OverlapConfig,
    OverlapEngine,
    SRMConfig,
    merge_runs,
    srm_sort,
)
from repro.disks import DISK_1996, ParallelDiskSystem
from repro.errors import ConfigError
from repro.faults import FaultPlan, StallWindow
from repro.telemetry import Telemetry
from repro.workloads import random_partition_runs
from tests.oracles import write_run

D, B, R = 4, 8, 4
CONFIG = SRMConfig(n_disks=D, block_size=B, merge_order=R)
#: CPU cost that balances one record's merge work against its share of
#: block service time — the regime where overlap matters most.
BALANCED_US = DISK_1996.op_time_ms(B) * 1000.0 / B


def sort_with(mode, depth=2, n=2048, seed=11, cpu_us=BALANCED_US):
    keys = np.random.default_rng(seed).permutation(n).astype(np.int64)
    overlap = (
        None
        if mode is None
        else OverlapConfig(mode=mode, prefetch_depth=depth, cpu_us_per_record=cpu_us)
    )
    return srm_sort(
        keys,
        CONFIG,
        rng=np.random.default_rng(seed + 1),
        validate=True,
        overlap=overlap,
    )


class TestConfig:
    def test_defaults(self):
        cfg = OverlapConfig()
        assert cfg.mode == "full"
        assert cfg.prefetch_depth == 2

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            OverlapConfig(mode="eager")

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            OverlapConfig(prefetch_depth=-1)

    def test_negative_cpu_rejected(self):
        with pytest.raises(ConfigError):
            OverlapConfig(cpu_us_per_record=-0.5)

    def test_engine_validates_too(self):
        # The engine is built from an OverlapConfig, whose constructor
        # is the one place its settings are checked.
        with pytest.raises(ConfigError):
            OverlapEngine(DISK_1996, B, D, OverlapConfig(mode="bogus"))
        with pytest.raises(ConfigError):
            OverlapEngine(DISK_1996, B, D, OverlapConfig(prefetch_depth=-2))


class TestObservationOnly:
    """The engine must not perturb the schedule it is timing."""

    def test_mode_none_matches_demand_paced_stats_exactly(self):
        out_a, res_a = sort_with(None)
        out_b, res_b = sort_with("none")
        assert np.array_equal(out_a, out_b)
        assert len(res_a.merge_schedules) == len(res_b.merge_schedules)
        for sa, sb in zip(res_a.merge_schedules, res_b.merge_schedules):
            assert sa == sb  # reads, flushes, gaps, overhead — all of it
            assert sa.overhead_v == sb.overhead_v

    @pytest.mark.parametrize("mode,depth", [("prefetch", 1), ("prefetch", 3), ("full", 2)])
    def test_all_modes_sort_byte_identically(self, mode, depth):
        out_ref, _ = sort_with(None)
        out, res = sort_with(mode, depth=depth)
        assert np.array_equal(out, out_ref)
        assert all(r.mode == mode for r in res.overlap_reports)

    def test_merge_level_output_identical(self):
        runs_keys = random_partition_runs(R, 16 * B, rng=5)

        def run_merge(overlap):
            system = ParallelDiskSystem(D, B)
            runs = [
                write_run(system, k, run_id=i, start_disk=i % D)
                for i, k in enumerate(runs_keys)
            ]
            res = merge_runs(system, runs, 30, 0, validate=True, overlap=overlap)
            return np.concatenate(
                [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
            )

        base = run_merge(None)
        for mode in ("none", "prefetch", "full"):
            got = run_merge(OverlapConfig(mode=mode, cpu_us_per_record=BALANCED_US))
            assert np.array_equal(got, base)


class TestTiming:
    def test_reports_collected_per_merge(self):
        _, res = sort_with("full")
        assert len(res.overlap_reports) == len(res.merge_schedules)
        assert res.simulated_merge_ms == pytest.approx(
            sum(r.makespan_ms for r in res.overlap_reports)
        )

    def test_prefetch_strictly_faster_than_demand_when_balanced(self):
        _, none = sort_with("none")
        _, pre = sort_with("prefetch", depth=1)
        assert pre.simulated_merge_ms < none.simulated_merge_ms

    def test_full_no_slower_than_prefetch(self):
        _, pre = sort_with("prefetch", depth=2)
        _, full = sort_with("full", depth=2)
        assert full.simulated_merge_ms <= pre.simulated_merge_ms + 1e-9

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_every_window_depth_beats_demand_pacing(self, depth):
        # Monotonicity *in depth* is not guaranteed at small scale (an
        # eager read can queue ahead of a demanded block), but any
        # read-ahead at all must beat stalling on every ParRead.
        base = sort_with("none")[1].simulated_merge_ms
        assert sort_with("prefetch", depth=depth)[1].simulated_merge_ms < base

    def test_mode_none_issues_no_eager_reads(self):
        _, res = sort_with("none")
        for rep in res.overlap_reports:
            assert rep.eager_reads == 0

    def test_eager_reads_replace_demand_reads(self):
        _, none = sort_with("none")
        _, full = sort_with("full", depth=4)
        for a, b, stats in zip(
            none.overlap_reports, full.overlap_reports, full.merge_schedules
        ):
            # Total ParReads are schedule-determined; eager issue only
            # reclassifies them (a prefetch can land on another legal
            # case-2a block, but the operation count is bounded by the
            # same schedule law).
            assert b.demand_reads + b.eager_reads == stats.total_reads
            assert a.demand_reads == stats.total_reads

    def test_report_invariants(self):
        _, res = sort_with("full")
        for rep in res.overlap_reports:
            assert rep.makespan_ms >= rep.cpu_busy_ms - 1e-9
            assert 0.0 <= rep.disk_utilization <= 1.0
            assert 0.0 <= rep.cpu_utilization <= 1.0 + 1e-9
            assert rep.cpu_stall_ms == pytest.approx(
                rep.read_stall_ms + rep.write_stall_ms
            )


class TestComputeIntervals:
    COUNTS = [3, 1, 7, 7, 2, 16, 5, 1, 9]

    def _engine(self, trace=False):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        if trace:
            tel.attach_trace()
        overlap = OverlapConfig(cpu_us_per_record=1946.3)
        return OverlapEngine(DISK_1996, B, D, overlap, telemetry=tel), tel

    def test_interval_clock_equals_cycle_by_cycle(self):
        whole, _ = self._engine()
        whole.compute(self.COUNTS)
        single, _ = self._engine()
        for n in self.COUNTS:
            single.compute([n])
        assert (whole.now, whole.cpu_busy_ms) == (single.now, single.cpu_busy_ms)

    def test_one_trace_record_per_uninterrupted_interval(self):
        eng, tel = self._engine(trace=True)
        eng.compute(self.COUNTS[:4])
        eng.compute([])
        eng.compute(self.COUNTS[4:])
        eng.on_write([0])  # an engine event closes the interval
        eng.compute([4])
        eng.finish()
        compute = [r for r in tel.trace.records if r.kind == "compute"]
        assert [r.attrs for r in compute] == [
            {"records": sum(self.COUNTS), "cycles": len(self.COUNTS)},
            {"records": 4, "cycles": 1},
        ]
        assert compute[0].start_ms == 0.0
        assert compute[1].end_ms == eng.now


class TestDepthHistogram:
    """Regression: the queue-depth histogram at prefetch_depth=0."""

    def _edges(self, depth):
        from repro.telemetry import Telemetry
        from repro.telemetry.schema import H_OVERLAP_QUEUE_DEPTH

        tel = Telemetry(harness="test")
        overlap = OverlapConfig(mode="full", prefetch_depth=depth)
        OverlapEngine(DISK_1996, B, D, overlap, telemetry=tel)
        return tel.registry.get(H_OVERLAP_QUEUE_DEPTH).snapshot()["edges"]

    def test_depth_zero_keeps_demand_parread_resolution(self):
        # A demand ParRead puts up to D blocks in flight even with no
        # eager window, so the histogram needs 0..D edges — it used to
        # collapse to a single bucket at depth 0 and lose the signal.
        assert self._edges(0) == [float(v) for v in range(D + 1)]

    def test_depth_cap_covers_window_plus_demand(self):
        # With read-ahead, capacity is the eager window plus one
        # outstanding demand ParRead of width <= D.
        assert self._edges(2) == [float(v) for v in range(2 * D + D + 1)]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


#: The latency plans of the pinned sorts: a 4x straggler, and recurring
#: stall windows on the same disk.
LATENCY_PLANS = {
    "straggler": FaultPlan(seed=1999, latency_factors={1: 4.0}),
    "stalls": FaultPlan(
        seed=2000,
        stalls=tuple(StallWindow(1, 1_000.0 + 3_000.0 * i, 500.0) for i in range(3)),
    ),
}


def _pinned_latency_sort(plan: FaultPlan, depth: int) -> dict:
    """A traced full-overlap sort under *plan*; digests of what it made."""
    d, b = 4, 16
    keys = np.random.default_rng(1996).integers(0, 2**48, 6_000, dtype=np.int64)
    overlap = OverlapConfig(
        mode="full", prefetch_depth=depth, cpu_us_per_record=1000.0
    )
    tel = Telemetry()
    col = tel.attach_trace()
    out, res = srm_sort(
        keys, SRMConfig.from_k(2, d, b), rng=2013, overlap=overlap,
        telemetry=tel, faults=plan,
    )
    assert np.array_equal(out, np.sort(keys))
    assert col.dropped == 0
    trace = [
        (r.kind, r.cat, r.lane, r.domain, r.queue_ms, r.start_ms, r.end_ms,
         r.dep, r.attrs)
        for r in col.records
    ]
    return {
        "output": hashlib.sha256(out.tobytes()).hexdigest(),
        "schedules": _digest(res.merge_schedules),
        "overlap": _digest([
            (r.makespan_ms.hex(), r.read_stall_ms.hex(), r.write_stall_ms.hex(),
             r.eager_reads, r.demand_reads)
            for r in res.overlap_reports
        ]),
        "trace": _digest(trace),
    }


#: Any change to the engine's read-ahead, the §5.5 flush order or the
#: drain's replay of engine events moves these.
PINNED_LATENCY_DIGESTS = {
    "stalls-0": {
        "output": "30a76e3612595d5a332ac4df8a5fb82e41e362278973ef310ce592d4ea5df047",
        "schedules": "77252c2ee4dcc934024c7d274fa1cd67937594d22c11097add6461985df3cff1",
        "overlap": "ef0f0714812a6c17035d8964a25678a69814541c329604d5b8c6a55ffb0767ce",
        "trace": "37306c3f6728f668ed461c99e5fcf462a07e2a0f7875044ce1d9079ec8ffad3e",
    },
    "stalls-2": {
        "output": "30a76e3612595d5a332ac4df8a5fb82e41e362278973ef310ce592d4ea5df047",
        "schedules": "fa6989b3006fd6459034f9ff9efc06666402788020da33b081802bce8aa35579",
        "overlap": "cd9b7441204053adfd4cc1e13397ec6db9ca29388b30ec350578a0a1d84087a9",
        "trace": "4884087e7b653969b5f70751b4a17951e957370e97d7bfbc1680dfc53450030b",
    },
    "straggler-0": {
        "output": "30a76e3612595d5a332ac4df8a5fb82e41e362278973ef310ce592d4ea5df047",
        "schedules": "77252c2ee4dcc934024c7d274fa1cd67937594d22c11097add6461985df3cff1",
        "overlap": "31e200e72f72f0936305136b55f6beb3addca6c6d62314caae6190b2a61f023c",
        "trace": "6b7196ac04e0a23e15c02a4f75d668e5de2b0975a505261cf017c964c6113646",
    },
    "straggler-2": {
        "output": "30a76e3612595d5a332ac4df8a5fb82e41e362278973ef310ce592d4ea5df047",
        "schedules": "fa6989b3006fd6459034f9ff9efc06666402788020da33b081802bce8aa35579",
        "overlap": "9e9983cc68c809111960f2ec09b95450501b33969b8e1ddf890c2c94450fdc14",
        "trace": "8f16bdcfe8589df1aeaa799b39801181368f20856f15fff94ba39ad3d10d3374",
    },
}


class TestPinnedLatencyFaults:
    """The fixed read-ahead and flush policy under latency faults, pinned.

    Stragglers and stall windows change when blocks arrive, so they are
    where a clock-dependent policy would first move the schedule.
    """

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("name", sorted(LATENCY_PLANS))
    def test_stream_matches_pinned_digests(self, name, depth):
        got = _pinned_latency_sort(LATENCY_PLANS[name], depth)
        assert got == PINNED_LATENCY_DIGESTS[f"{name}-{depth}"]
