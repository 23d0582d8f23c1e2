"""Property grid for the latency-adaptive scheduling plane.

Two contracts, swept across algorithms, fault plans, and prefetch
depths:

* **Flag off — bit-identity.**  With no ``LatencyAwareConfig`` (or one
  whose slow threshold no disk can reach), output *and* schedule (every
  :class:`ScheduleStats` field, every per-merge makespan) are
  bit-identical to the pre-adaptive engine.  The adaptive plane must be
  invisible until a disk measures slow.
* **Flag on — safe.**  With the config armed, output stays
  bit-identical and the simulated makespan is never worse than the
  fixed policy's; in the balanced regime under a straggler it is
  measurably better.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LatencyAwareConfig, OverlapConfig, SRMConfig, srm_sort
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.plan import StallWindow

D, B, K = 4, 16, 2
CONFIG = SRMConfig.from_k(K, D, B)
N = 6_000
SEED = 1996
#: Per-record merge cost that balances compute against block service —
#: the regime where the adaptive policy has latency to hide.
BALANCED_US = 1000.0


def _keys():
    return np.random.default_rng(SEED).integers(0, 2**48, N, dtype=np.int64)


def _plan(kind: str) -> FaultPlan | None:
    if kind == "clean":
        return None
    if kind == "straggler":
        return FaultPlan(seed=SEED + 3, latency_factors={1: 4.0})
    if kind == "stalls":
        return FaultPlan(
            seed=SEED + 4,
            stalls=tuple(
                StallWindow(1, 1_000.0 + 3_000.0 * i, 500.0) for i in range(3)
            ),
        )
    raise AssertionError(kind)


#: An armed policy that can never act: the EWMA measures every disk,
#: but none is ever classified slow.
NEVER_SLOW = LatencyAwareConfig(slow_threshold=float("inf"))


def _sort(depth, plan, latency, cpu_us=BALANCED_US):
    overlap = OverlapConfig(
        mode="full", prefetch_depth=depth, cpu_us_per_record=cpu_us,
        latency=latency,
    )
    return srm_sort(
        _keys(), CONFIG, rng=SEED + 17, overlap=overlap, faults=plan
    )


class TestConfigValidation:
    def test_defaults(self):
        cfg = LatencyAwareConfig()
        assert cfg.depth_boost >= 0 and cfg.min_eager_per_pump >= 0

    @pytest.mark.parametrize("bad", [
        dict(ewma_alpha=0.0), dict(ewma_alpha=1.5),
        dict(slow_threshold=0.9), dict(depth_boost=-1),
        dict(min_eager_per_pump=-1),
    ])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            LatencyAwareConfig(**bad)


class TestFlagOffBitIdentity:
    """SRM: the default path must not move, output or schedule.

    An armed config that never classifies a disk slow still measures
    every service time, and the merge replays every cycle on the engine
    for it, yet it must schedule exactly as the fixed policy does.
    """

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("plan_kind", ["clean", "straggler", "stalls"])
    def test_disabled_config_is_invisible(self, depth, plan_kind):
        out_none, res_none = _sort(depth, _plan(plan_kind), None)
        out_off, res_off = _sort(depth, _plan(plan_kind), NEVER_SLOW)
        assert np.array_equal(out_none, out_off)
        # Schedule identity: every ScheduleStats field of every merge
        # (reads, flushes, gaps, occupancy) and the simulated clocks.
        assert res_none.merge_schedules == res_off.merge_schedules
        assert res_none.simulated_merge_ms == res_off.simulated_merge_ms
        for a, b in zip(res_none.overlap_reports, res_off.overlap_reports):
            assert a.makespan_ms == b.makespan_ms
            assert a.demand_reads == b.demand_reads
            assert a.eager_reads == b.eager_reads
            assert not a.adaptive and b.adaptive

    def test_disabled_reports_no_adaptive_activity(self):
        _, res = _sort(1, _plan("straggler"), NEVER_SLOW)
        for rep in res.overlap_reports:
            assert rep.depth_boosts == 0
            assert rep.floor_issues == 0
            assert rep.slow_disks == ()


class TestFlagOffDSM:
    """DSM is demand-paced: no overlap engine, no latency coupling."""

    @pytest.mark.parametrize("plan_kind", ["clean", "straggler"])
    def test_dsm_untouched_by_adaptive_plane(self, plan_kind):
        from repro.baselines.dsm import dsm_sort
        from repro.core import DSMConfig, memory_records_for_k

        cfg = DSMConfig.from_memory(memory_records_for_k(K, D, B), D, B)
        keys = _keys()
        out_a, res_a = dsm_sort(keys, cfg, faults=_plan(plan_kind))
        out_b, res_b = dsm_sort(keys, cfg, faults=_plan(plan_kind))
        assert np.array_equal(out_a, np.sort(keys))
        assert np.array_equal(out_a, out_b)
        assert res_a.total_parallel_ios == res_b.total_parallel_ios


class TestFlagOnSafety:
    """Armed: identical output, makespan never worse than fixed."""

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("plan_kind", ["straggler", "stalls"])
    def test_output_identical_and_no_worse(self, depth, plan_kind):
        out_fixed, res_fixed = _sort(depth, _plan(plan_kind), None)
        out_adapt, res_adapt = _sort(
            depth, _plan(plan_kind), LatencyAwareConfig()
        )
        assert np.array_equal(out_fixed, out_adapt)
        assert (
            res_adapt.simulated_merge_ms
            <= res_fixed.simulated_merge_ms * (1.0 + 1e-9)
        )

    def test_clean_run_stays_fixed(self):
        # No faults -> homogeneous EWMA -> nobody classified slow ->
        # the armed engine issues exactly the fixed schedule.
        out_fixed, res_fixed = _sort(1, None, None)
        out_adapt, res_adapt = _sort(1, None, LatencyAwareConfig())
        assert np.array_equal(out_fixed, out_adapt)
        assert res_adapt.simulated_merge_ms == res_fixed.simulated_merge_ms
        for rep in res_adapt.overlap_reports:
            assert rep.adaptive
            assert rep.depth_boosts == 0
            assert rep.floor_issues == 0
            assert rep.slow_disks == ()

    def test_straggler_measurably_improved_at_depth_zero(self):
        # Depth 0 is where the straggler starves the merge hardest; the
        # adaptive window must recover real makespan there.
        _, res_fixed = _sort(0, _plan("straggler"), None)
        _, res_adapt = _sort(0, _plan("straggler"), LatencyAwareConfig())
        assert res_adapt.simulated_merge_ms < res_fixed.simulated_merge_ms
        assert any(r.depth_boosts > 0 for r in res_adapt.overlap_reports)
        assert any(1 in r.slow_disks for r in res_adapt.overlap_reports)
