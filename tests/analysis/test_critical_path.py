"""Critical-path attribution: the makespan must decompose exactly.

The load-bearing contract of the trace plane: for every simulated-clock
domain, the longest causal path through the trace records has length
**bit-identical** to the simulated makespan — not approximately, the
same float.  That holds for SRM demand sorts, all three overlap-engine
modes, DSM, and faulted runs whose
stall/recovery tails ride the same clock.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.critical_path import (
    DomainAttribution,
    analyze_collector,
    combine_attribution,
)
from repro.baselines import dsm_sort
from repro.core.config import DSMConfig
from repro.core import SRMConfig, srm_sort
from repro.core.config import OverlapConfig
from repro.core.events import OverlapReport
from repro.faults import DiskDeath, FaultPlan, StallWindow
from repro.telemetry import Telemetry
from repro.telemetry.report import RunReport
from repro.workloads import uniform_permutation


def assert_all_exact(col) -> dict:
    """Every domain in *col* must decompose bit-exactly; returns them."""
    analyses = analyze_collector(col)
    assert analyses
    for dom, a in analyses.items():
        assert a.exact, f"domain {dom} not exact"
        assert not a.truncated
        assert a.total_ms == a.makespan_ms, (
            f"domain {dom}: path {a.total_ms!r} != makespan {a.makespan_ms!r}"
        )
        assert math.isclose(sum(a.attribution.values()), a.total_ms,
                            rel_tol=1e-9, abs_tol=1e-9)
    return analyses


class TestExactness:
    def test_srm_demand_path(self):
        keys = uniform_permutation(4000, rng=1)
        tel = Telemetry(algo="srm")
        col = tel.attach_trace()
        srm_sort(keys, SRMConfig.from_k(4, 4, 32), rng=2, telemetry=tel)
        analyses = assert_all_exact(col)
        # Demand paging has no overlap: reads + writes own the makespan.
        attr = combine_attribution(analyses.values())
        assert attr["read"] > 0 and attr["write"] > 0

    @pytest.mark.parametrize("mode", ["none", "prefetch", "full"])
    def test_overlap_modes(self, mode):
        keys = uniform_permutation(4000, rng=3)
        tel = Telemetry(algo="srm")
        col = tel.attach_trace()
        srm_sort(
            keys, SRMConfig.from_k(4, 4, 32), rng=4,
            overlap=OverlapConfig(mode=mode, prefetch_depth=2),
            telemetry=tel,
        )
        analyses = assert_all_exact(col)
        attr = combine_attribution(analyses.values())
        assert attr.get("compute", 0.0) > 0.0

    def test_dsm_path(self):
        keys = uniform_permutation(4000, rng=5)
        tel = Telemetry(algo="dsm")
        col = tel.attach_trace()
        dsm_sort(keys, DSMConfig.from_memory(1024, 4, 32), telemetry=tel)
        assert_all_exact(col)

    def test_faulted_overlap_names_the_fault(self):
        keys = uniform_permutation(4000, rng=8)
        faults = FaultPlan(
            seed=9,
            read_fail_p=0.05,
            latency_factors={1: 3.0},
            stalls=(StallWindow(disk=0, start_ms=5.0, duration_ms=40.0),),
        )
        tel = Telemetry(algo="srm")
        col = tel.attach_trace()
        srm_sort(
            keys, SRMConfig.from_k(4, 4, 32), rng=10,
            overlap=OverlapConfig(mode="full", prefetch_depth=2),
            telemetry=tel, faults=faults,
        )
        analyses = assert_all_exact(col)
        kinds = {r.kind for r in col.records}
        assert "fault_stall" in kinds or "recovery" in kinds
        attr = combine_attribution(analyses.values())
        assert attr.get("stall", 0.0) + attr.get("recovery", 0.0) > 0.0

    @pytest.mark.parametrize("plan", ["parity_torn", "disk_death"])
    @pytest.mark.parametrize("algo", ["srm", "dsm"])
    def test_demand_recovery_rounds_are_traced(self, algo, plan):
        """Recovery I/O rides the demand clock, so it must be on the trace."""
        faults = {
            # The benchmark's parity workload: retries, torn writes
            # repaired from parity, and the final scrub.
            "parity_torn": FaultPlan(
                seed=3, read_fail_p=0.02, write_fail_p=0.02,
                torn_write_p=0.01, redundancy="parity",
            ),
            # Replica rebuild: charged migration writes, nothing else.
            "disk_death": FaultPlan(
                seed=4, deaths=(DiskDeath(disk=2, after_ops=60),)
            ),
        }[plan]
        keys = uniform_permutation(4000, rng=14)
        tel = Telemetry(algo=algo)
        col = tel.attach_trace()
        if algo == "srm":
            _, res = srm_sort(
                keys, SRMConfig.from_k(4, 4, 32), rng=15, telemetry=tel,
                faults=faults,
            )
        else:
            _, res = dsm_sort(
                keys, DSMConfig.from_memory(1024, 4, 32), telemetry=tel,
                faults=faults,
            )
        if plan == "disk_death":
            assert res.system.death_reports
        for dom, a in assert_all_exact(col).items():
            assert a.attribution["recovery"] > 0.0, dom

    def test_combine_attribution_sums_domains(self):
        a = DomainAttribution(
            domain="a", makespan_ms=5.0, total_ms=5.0, exact=True,
            truncated=False, attribution={"read": 3.0, "stall": 2.0},
            path=[], lanes={}, stragglers=[], records=2, dropped=0,
        )
        b = DomainAttribution(
            domain="b", makespan_ms=4.0, total_ms=4.0, exact=True,
            truncated=False, attribution={"read": 1.0, "write": 3.0},
            path=[], lanes={}, stragglers=[], records=2, dropped=0,
        )
        combined = combine_attribution([a, b])
        assert combined["read"] == 4.0
        assert combined["stall"] == 2.0
        assert combined["write"] == 3.0
        assert all(
            v == 0.0 for k, v in combined.items()
            if k not in ("read", "stall", "write")
        )
        assert a.fraction("read") == 0.6


class TestReportCheck:
    def _events(self):
        keys = uniform_permutation(3000, rng=12)
        tel = Telemetry(algo="srm")
        tel.attach_trace()
        srm_sort(keys, SRMConfig.from_k(4, 4, 32), rng=13, telemetry=tel)
        return tel.finish()

    def test_clean_trace_passes_check(self):
        report = RunReport.from_events(self._events())
        assert report.check() == []

    def test_corrupted_trace_fails_check(self):
        events = self._events()
        # Stretch the terminal record past the declared makespan: the
        # walk still reaches zero but the total no longer matches.
        recs = [e for e in events if e["type"] == "trace"]
        terminal = max(recs, key=lambda e: (e["te"], e["i"]))
        terminal["te"] = terminal["te"] + 1.0
        report = RunReport.from_events(events)
        failures = report.check()
        assert any("critical" in f or "makespan" in f for f in failures)

    def test_render_attribution_mentions_domains(self):
        report = RunReport.from_events(self._events())
        text = report.render_attribution()
        assert "makespan attribution" in text
        assert "exact" in text


class TestZeroDurationRegressions:
    """Division-by-zero fixes on empty-input timelines (satellite #3)."""

    def test_overlap_report_zero_makespan(self):
        rep = OverlapReport(
            mode="none", prefetch_depth=0, makespan_ms=0.0, cpu_busy_ms=0.0,
            read_stall_ms=0.0, write_stall_ms=0.0, io_busy_ms=0.0,
            disk_utilization=0.0, demand_reads=0, eager_reads=0, writes=0,
        )
        assert rep.cpu_utilization == 0.0
        assert rep.cpu_stall_ms == 0.0
