"""Property-style chaos tests: any seeded fault plan, same sorted bytes."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import DSMConfig, SRMConfig, dsm_sort, srm_sort
from repro.faults import DiskDeath, FaultPlan, StallWindow, run_chaos
from repro.faults.chaos import ChaosReport, ScenarioResult
from repro.verify import check_striped_run

D, B, K = 4, 8, 2
N = 3_000
SEED = 42


@pytest.fixture(scope="module")
def keys():
    return np.random.default_rng(SEED).integers(
        0, 2**40, size=N, dtype=np.int64
    )


@pytest.fixture(scope="module")
def srm_cfg():
    return SRMConfig.from_k(K, D, B)


@pytest.fixture(scope="module")
def reference(keys, srm_cfg):
    out, res = srm_sort(keys, srm_cfg, rng=SEED)
    return out, res.total_parallel_ios


def _plans():
    """The seeded grid: one plan per fault class, plus combinations."""
    mid = 120  # mid-merge in per-disk block ops at this scale
    return [
        ("transient", FaultPlan(seed=1, read_fail_p=0.1)),
        ("corrupt", FaultPlan(seed=2, corrupt_p=0.08)),
        ("straggler", FaultPlan(seed=3, latency_factors={1: 5.0})),
        (
            "stall",
            FaultPlan(seed=4, stalls=(StallWindow(0, 1.0, 25.0),)),
        ),
        ("death_early", FaultPlan(seed=5, deaths=(DiskDeath(3, 0),))),
        ("death_mid", FaultPlan(seed=6, deaths=(DiskDeath(2, mid),))),
        (
            "everything",
            FaultPlan(
                seed=7,
                read_fail_p=0.05,
                corrupt_p=0.03,
                latency_factors={1: 2.0},
                deaths=(DiskDeath(3, mid),),
            ),
        ),
        ("write_storm", FaultPlan(seed=11, write_fail_p=0.12)),
        (
            "torn_parity",
            FaultPlan(seed=12, torn_write_p=0.04, redundancy="parity"),
        ),
        (
            "parity_death",
            FaultPlan(
                seed=13, redundancy="parity", deaths=(DiskDeath(2, mid),)
            ),
        ),
        (
            "double_death",
            FaultPlan(
                seed=14, deaths=(DiskDeath(3, mid), DiskDeath(0, mid + 60))
            ),
        ),
        # Note: torn writes and a death are never combined in one plan.
        # A latent tear whose parity block rides the dying disk is a
        # genuine two-loss group — honest RAID-5 data loss (the
        # URE-during-rebuild window), raised loudly; see
        # test_parity.py::test_tear_plus_parity_loss_is_loud_data_loss.
        (
            "everything_writes",
            FaultPlan(
                seed=15,
                read_fail_p=0.04,
                corrupt_p=0.02,
                write_fail_p=0.04,
                redundancy="parity",
                deaths=(DiskDeath(1, mid),),
            ),
        ),
    ]


class TestSRMBitIdentity:
    @pytest.mark.parametrize(("name", "plan"), _plans())
    def test_output_identical_under_plan(self, name, plan, keys, srm_cfg, reference):
        out, res = srm_sort(keys, srm_cfg, rng=SEED, faults=plan)
        assert np.array_equal(out, reference[0]), name
        assert res.system.faults.stats.undetected_corruptions == 0

    def test_same_plan_same_io_accounting(self, keys, srm_cfg):
        plan = FaultPlan(seed=9, read_fail_p=0.1, deaths=(DiskDeath(1, 60),))
        _, a = srm_sort(keys, srm_cfg, rng=SEED, faults=plan)
        _, b = srm_sort(keys, srm_cfg, rng=SEED, faults=plan)
        assert a.total_parallel_ios == b.total_parallel_ios
        assert a.system.faults.stats.snapshot() == b.system.faults.stats.snapshot()

    def test_noop_plan_matches_fault_free_io(self, keys, srm_cfg, reference):
        out, res = srm_sort(keys, srm_cfg, rng=SEED, faults=FaultPlan(seed=8))
        assert np.array_equal(out, reference[0])
        assert res.total_parallel_ios == reference[1]

    def test_degraded_output_run_still_checks(self, keys, srm_cfg):
        plan = FaultPlan(seed=5, deaths=(DiskDeath(3, 0),))
        _, res = srm_sort(keys, srm_cfg, rng=SEED, faults=plan)
        # The run format invariants hold modulo the waived placement
        # rule for dead-disk stripe positions.
        check_striped_run(res.system, res.output)

    def test_torn_writes_all_detected_and_repaired(self, keys, srm_cfg, reference):
        plan = FaultPlan(seed=12, torn_write_p=0.04, redundancy="parity")
        out, res = srm_sort(keys, srm_cfg, rng=SEED, faults=plan)
        s = res.system.faults.stats
        assert np.array_equal(out, reference[0])
        assert s.torn_writes_injected > 0
        assert s.torn_writes_detected == s.torn_writes_injected
        assert s.recovery_read_ios > 0
        # After the closing scrub no stale seal survives anywhere.
        from repro.verify.checks import audit_checksums

        assert audit_checksums(res.system)["stale"] == []

    def test_parity_death_rebuilds_with_charged_reads(self, keys, srm_cfg, reference):
        plan = FaultPlan(seed=13, redundancy="parity", deaths=(DiskDeath(2, 120),))
        out, res = srm_sort(keys, srm_cfg, rng=SEED, faults=plan)
        assert np.array_equal(out, reference[0])
        report = res.system.death_reports[0]
        assert report.mode == "parity"
        assert report.recovery_read_rounds > 0
        assert res.system.faults.stats.recovery_read_ios >= report.recovery_read_rounds

    def test_payloads_survive_disk_death(self, keys, srm_cfg):
        payloads = np.arange(N, dtype=np.int64)
        plan = FaultPlan(seed=10, deaths=(DiskDeath(1, 80),))
        _, res = srm_sort(
            keys, srm_cfg, rng=SEED, payloads=payloads, faults=plan
        )
        out_k, out_p = res.peek_sorted_records()
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(out_k, keys[order])
        assert np.array_equal(out_p, payloads[order])


class TestDSMBitIdentity:
    @pytest.fixture(scope="class")
    def dsm_cfg(self):
        return DSMConfig(n_disks=D, block_size=B, merge_order=3)

    @pytest.fixture(scope="class")
    def dsm_reference(self, keys, dsm_cfg):
        out, _ = dsm_sort(keys, dsm_cfg)
        return out

    @pytest.mark.parametrize(
        ("name", "plan"),
        [(n, p) for n, p in _plans() if n not in ("straggler", "stall")],
    )
    def test_output_identical_under_plan(
        self, name, plan, keys, dsm_cfg, dsm_reference
    ):
        out, res = dsm_sort(keys, dsm_cfg, faults=plan)
        assert np.array_equal(out, dsm_reference), name
        assert res.system.faults.stats.undetected_corruptions == 0


@pytest.fixture(scope="module")
def full():
    """The full sweep, latency and makespan-cliff scenarios included."""
    return run_chaos(
        n_records=3_000, n_disks=4, k=2, block_size=8, seed=77, quick=False
    )


class TestChaosHarness:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(
            n_records=3_000, n_disks=4, k=2, block_size=8, seed=77, quick=True
        )

    def test_quick_sweep_passes(self, report):
        assert report.failures() == []
        assert report.passed

    def test_scenarios_cover_both_algorithms(self, report):
        pairs = {(r.scenario, r.algorithm) for r in report.results}
        assert ("transient", "srm") in pairs
        assert ("death", "dsm") in pairs

    def test_quick_sweep_covers_write_and_parity_paths(self, report):
        pairs = {(r.scenario, r.algorithm) for r in report.results}
        for sc in ("write_storm", "torn", "parity_death", "double_death"):
            assert (sc, "srm") in pairs and (sc, "dsm") in pairs
        by_name = {
            (r.scenario, r.algorithm): r.stats for r in report.results
        }
        assert by_name[("torn", "srm")]["recovery_read_ios"] > 0
        assert by_name[("parity_death", "srm")]["recovery_read_ios"] > 0
        assert by_name[("double_death", "srm")]["disk_deaths"] == 2

    def test_full_sweep_passes(self, full):
        assert full.failures() == []
        names = {r.scenario for r in full.results}
        assert {"straggler", "stall", "breaker", "combo"} <= names

    def test_latency_scenario_without_makespan_cost_fails(self):
        result = ScenarioResult(
            scenario="straggler", algorithm="srm", description="",
            identical=True, stats={"_expect": ["latency"]}, parallel_ios=1,
            io_overhead_pct=0.0, makespan_ms=10.0, makespan_overhead_pct=0.0,
        )
        report = ChaosReport(
            n_records=1, n_disks=4, block_size=8, merge_order=8, seed=0,
            results=[result],
        )
        assert any("no simulated makespan" in f for f in report.failures())
        result.makespan_overhead_pct = 1.5
        assert report.failures() == []

    def test_jsonl_roundtrip(self, report, tmp_path):
        import json

        path = tmp_path / "chaos.jsonl"
        report.write_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["type"] == "meta" and rows[0]["passed"]
        assert len(rows) == 1 + len(report.results)
        assert all(r["ok"] for r in rows[1:])

    def test_render_mentions_verdict(self, report):
        assert "PASS" in report.render()

    def test_cli_chaos_check_exits_zero(self, capsys):
        from repro.cli import main

        rc = main(
            ["chaos", "--quick", "--check", "--n", "2000", "--block", "8"]
        )
        assert rc == 0
        assert "chaos check passed" in capsys.readouterr().out

    def test_full_jsonl_replays_across_hash_seeds(self, tmp_path):
        # str hashing is salted per process: two processes with
        # different salts must write the same bytes.
        import os
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parents[2] / "src")
        procs = []
        for salt in ("1", "2"):
            out = tmp_path / f"chaos-{salt}.jsonl"
            env = {**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": src}
            cmd = [sys.executable, "-m", "repro", "chaos", "--check", "--n",
                   "3000", "--block", "8", "--seed", "77", "--out", str(out)]
            procs.append((out, subprocess.Popen(
                cmd, env=env, stdout=subprocess.PIPE, text=True
            )))
        for _, proc in procs:
            stdout, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert "chaos check passed" in stdout
        first, second = (out.read_bytes() for out, _ in procs)
        assert first == second
        assert b'"scenario": "cliff_d2_x4_s2"' in first


#: The six faulted points of the cliff grid (full overlap, depths 0/2,
#: straggler factor 1/4, 0/2 stall windows; x1/s0 is the reference).
CLIFF = [
    f"cliff_d{d}_x{x}_s{s}"
    for d in (0, 2)
    for x in (1, 4)
    for s in (0, 2)
    if (x, s) != (1, 0)
]


class TestCliffScenarios:
    @pytest.fixture(scope="class")
    def rows(self, full):
        return {r.scenario: r for r in full.results if r.scenario in CLIFF}

    def test_grid_shape(self, full, rows):
        assert [r.scenario for r in full.results[-len(CLIFF):]] == CLIFF
        assert all(r.algorithm == "srm" for r in rows.values())
        assert len(rows) == len(CLIFF)

    def test_all_gates_pass(self, full, rows):
        cliff_only = ChaosReport(
            n_records=full.n_records, n_disks=full.n_disks,
            block_size=full.block_size, merge_order=full.merge_order,
            seed=full.seed, results=list(rows.values()),
        )
        assert cliff_only.failures() == []
        assert cliff_only.passed

    def test_deterministic(self, rows):
        again = run_chaos(
            n_records=3_000, n_disks=4, k=2, block_size=8, seed=77,
            quick=False, algorithms=("srm",),
        )
        assert [r.row() for r in again.results if r.scenario in CLIFF] == [
            rows[name].row() for name in CLIFF
        ]

    def test_every_point_sorted_and_exact(self, rows):
        for r in rows.values():
            assert r.ok and r.identical, r.scenario
            assert r.stats["trace_exact"] is True, r.scenario
            assert r.stats["_expect"] == ["latency"]
            assert r.makespan_ms > 0.0

    def test_straggler_moves_makespan(self, rows):
        for r in rows.values():
            assert r.makespan_overhead_pct > 0.0, r.scenario
        # At equal depth and stalls, a 4x straggler costs real time.
        for d in (0, 2):
            assert (
                rows[f"cliff_d{d}_x4_s2"].makespan_ms
                > rows[f"cliff_d{d}_x1_s2"].makespan_ms
            )

    def test_attribution_delta_keys_sorted(self, full):
        for r in full.results:
            delta = r.stats.get("attribution_delta")
            if delta is not None:
                assert list(delta) == sorted(delta), r.scenario

    def test_jsonl_roundtrip(self, full, tmp_path):
        import json

        path = tmp_path / "chaos.jsonl"
        full.write_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["passed"]
        by_name = {r["scenario"]: r for r in rows[1:]}
        for name in CLIFF:
            row = by_name[name]
            assert row["ok"] and row["faults"]["trace_exact"]
            assert row["makespan_overhead_pct"] > 0.0

    def test_render_mentions_every_point(self, full):
        text = full.render()
        for name in CLIFF:
            assert f"{name} srm  yes" in text

    def test_failures_catch_regressions(self):
        result = ScenarioResult(
            scenario="cliff_d2_x4_s0", algorithm="srm", description="",
            identical=False, stats={"_expect": ["latency"], "trace_exact": False},
            parallel_ios=1, io_overhead_pct=0.0, makespan_ms=10.0,
            makespan_overhead_pct=5.0,
        )
        report = ChaosReport(
            n_records=1, n_disks=4, block_size=8, merge_order=8, seed=0,
            results=[result],
        )
        fails = report.failures()
        assert any("differs from fault-free reference" in f for f in fails)
        assert any("did not decompose exactly" in f for f in fails)
        assert "FAIL" in report.render()
