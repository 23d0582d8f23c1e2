"""DSM and PSV outputs and I/O accounting, pinned to recorded values.

The baselines share SRM's memory-load pass and the one stripe writer.
These values were recorded before they did, from each baseline's own
copies of that machinery, so any drift in output, payload order,
``IOStats`` (down to the per-disk arrays), pass and transposition
counts, or fault draws fails here.  The cases cover D = 2, 4 and 16, a
final partial stripe (1,001 records on D = 4, B = 8), and a parity plan
with transient failures and torn writes.  The PSV parity case was
re-recorded twice: when PSV began scrubbing its output, and when its
merge moved onto DSM's key-range loop, whose readers refill before the
records they return are written, which shifts PSV's per-disk fault
draws.  PSV with payloads must match its keys-only record, and a stable
sort's output is unique, so its payloads must match DSM's.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import dsm_mergesort, psv_mergesort
from repro.core import DSMConfig
from repro.disks import ParallelDiskSystem, StripedFile
from repro.faults import FaultPlan

PARITY_TORN = FaultPlan(
    seed=5,
    torn_write_p=0.05,
    write_fail_p=0.02,
    read_fail_p=0.02,
    redundancy="parity",
)

#: name -> (D, B, records, run length, fault plan)
CASES = {
    "d2": (2, 8, 3000, 64, None),
    "d4_partial": (4, 8, 1001, 64, None),
    "d16": (16, 4, 5000, 128, None),
    "d4_parity_torn": (4, 8, 3000, 64, PARITY_TORN),
}

DSM_EXPECTED = {
    "d2": dict(
        out="838d5febc4721ee9", pay="8323ec72ee58a328",
        parallel_reads=932, parallel_writes=932,
        blocks_read=1860, blocks_written=1860,
        reads_per_disk=[932, 928], writes_per_disk=[932, 928],
        runs=47, passes=4,
    ),
    "d4_partial": dict(
        out="3c800a28db4f1450", pay="d4f51ae4d2367ae4",
        parallel_reads=126, parallel_writes=126,
        blocks_read=498, blocks_written=498,
        reads_per_disk=[126, 126, 123, 123],
        writes_per_disk=[126, 126, 123, 123],
        runs=16, passes=3,
    ),
    "d16": dict(
        out="9a971e2e74654160", pay="f98f9824a41f9c2b",
        parallel_reads=394, parallel_writes=394,
        blocks_read=6248, blocks_written=6248,
        reads_per_disk=[394, 394] + [390] * 14,
        writes_per_disk=[394, 394] + [390] * 14,
        runs=40, passes=4,
    ),
    "d4_parity_torn": dict(
        out="d0ec34ba1db576b1", pay="b1017e8a0f62116f",
        parallel_reads=643, parallel_writes=1169,
        blocks_read=2484, blocks_written=2563,
        reads_per_disk=[621, 626, 625, 612],
        writes_per_disk=[642, 637, 638, 646],
        runs=47, passes=4,
        faults={
            "transient_failures": 37, "retries": 75,
            "backoff_ms_total": 84.2748679492196, "write_failures": 38,
            "torn_writes_injected": 83, "torn_writes_detected": 83,
            "recovery_read_ios": 83, "parity_blocks_written": 745,
        },
    ),
}

PSV_EXPECTED = {
    "d2": dict(
        out="838d5febc4721ee9",
        parallel_reads=2264, parallel_writes=2208,
        blocks_read=4248, blocks_written=4248,
        reads_per_disk=[2208, 2040], writes_per_disk=[2208, 2040],
        runs=47, passes=6, transpositions=5,
    ),
    "d4_partial": dict(
        out="3c800a28db4f1450",
        parallel_reads=136, parallel_writes=128,
        blocks_read=504, blocks_written=504,
        reads_per_disk=[128, 128, 126, 122],
        writes_per_disk=[128, 128, 126, 122],
        runs=16, passes=2, transpositions=1,
    ),
    "d16": dict(
        out="9a971e2e74654160",
        parallel_reads=902, parallel_writes=766,
        blocks_read=5000, blocks_written=5000,
        reads_per_disk=[766, 766, 478] + [252] * 4 + [222] + [220] * 8,
        writes_per_disk=[766, 766, 478] + [252] * 4 + [222] + [220] * 8,
        runs=40, passes=2, transpositions=1,
    ),
    # The closing output scrub finds the final-pass tears no later
    # read detects, so detections equal injections.
    "d4_parity_torn": dict(
        out="d0ec34ba1db576b1",
        parallel_reads=836, parallel_writes=1453,
        blocks_read=2913, blocks_written=3101,
        reads_per_disk=[767, 769, 750, 627],
        writes_per_disk=[779, 777, 788, 757],
        runs=47, passes=3, transpositions=2,
        faults={
            "transient_failures": 45, "retries": 103,
            "backoff_ms_total": 115.7186758665288, "write_failures": 58,
            "torn_writes_injected": 98, "torn_writes_detected": 98,
            "recovery_read_ios": 97, "parity_blocks_written": 878,
        },
    ),
}


def _digest(a: np.ndarray) -> str:
    data = np.ascontiguousarray(a, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _installed(name: str, payloads: bool):
    D, B, n, run_length, plan = CASES[name]
    keys = np.random.default_rng(n + D).integers(0, n // 3, size=n)
    system = ParallelDiskSystem(D, B)
    if plan is not None:
        system.attach_faults(plan)
    pays = np.arange(n, dtype=np.int64) * 7 + 1 if payloads else None
    return system, StripedFile.from_records(system, keys, payloads=pays), run_length


def _observed(system, res, out_keys, out_pays=None) -> dict:
    io = res.io
    got = dict(
        out=_digest(out_keys),
        parallel_reads=io.parallel_reads,
        parallel_writes=io.parallel_writes,
        blocks_read=io.blocks_read,
        blocks_written=io.blocks_written,
        reads_per_disk=io.reads_per_disk.tolist(),
        writes_per_disk=io.writes_per_disk.tolist(),
        runs=res.runs_formed,
        passes=res.n_merge_passes,
    )
    if out_pays is not None:
        got["pay"] = _digest(out_pays)
    if system.faults is not None:
        got["faults"] = {k: v for k, v in system.faults.stats.snapshot().items() if v}
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_dsm_matches_recorded(name):
    system, infile, run_length = _installed(name, payloads=True)
    D, B = system.n_disks, system.block_size
    cfg = DSMConfig(n_disks=D, block_size=B, merge_order=3)
    res = dsm_mergesort(system, infile, cfg, run_length=run_length)
    out_keys, out_pays = res.peek_sorted_records()
    assert _observed(system, res, out_keys, out_pays) == DSM_EXPECTED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_psv_matches_recorded(name):
    system, infile, run_length = _installed(name, payloads=False)
    res = psv_mergesort(system, infile, run_length, buffer_blocks_per_run=2)
    got = _observed(system, res, res.peek_sorted())
    got["transpositions"] = res.n_transpositions
    assert got == PSV_EXPECTED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_psv_with_payloads_matches_recorded(name):
    system, infile, run_length = _installed(name, payloads=True)
    res = psv_mergesort(system, infile, run_length, buffer_blocks_per_run=2)
    got = _observed(system, res, *res.peek_sorted_records())
    got["transpositions"] = res.n_transpositions
    assert got.pop("pay") == DSM_EXPECTED[name]["pay"]
    assert got == PSV_EXPECTED[name]
