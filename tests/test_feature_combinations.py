"""Cross-feature integration: the extensions must compose.

Each test stacks several optional capabilities (payloads, tracing,
timing, channel constraint, partial striping, scanning, conversions)
on one workflow and checks that nothing interferes with correctness or
accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SRMConfig
from repro.core import (
    LayoutStrategy,
    partial_striping_sort,
    srm_mergesort,
    srm_sort,
)
from repro.disks import (
    DISK_1996,
    ParallelDiskSystem,
    RunScanner,
    StripedFile,
)
from repro.telemetry.trace import SystemTracer, TraceCollector
from repro.baselines import write_superblock_run
from repro.verify import (
    assert_sorted_permutation,
    check_striped_run,
    check_superblock_run,
)


class TestStackedFeatures:
    def test_traced_timed_channel_constrained_sort(self, rng):
        """Trace + timing + narrow channel, all at once."""
        cfg = SRMConfig.from_k(2, 4, 8)
        system = ParallelDiskSystem(4, 8, timing=DISK_1996, channel_width=2)
        col = TraceCollector()
        system.tracer = SystemTracer(col, col.new_domain("demand"))
        keys = rng.permutation(4096)
        infile = StripedFile.from_records(system, keys)
        res = srm_mergesort(system, infile, cfg, rng=1, run_length=128,
                            validate=True)
        assert_sorted_permutation(res.peek_sorted(), keys)
        # A narrow channel splits an op into channel rounds, but the
        # trace still carries one record per parallel op, per kind.
        for kind, ops, blocks in (
            ("read", res.io.parallel_reads, res.io.blocks_read),
            ("write", res.io.parallel_writes, res.io.blocks_written),
        ):
            recs = [r for r in col.records if r.kind == kind]
            assert len(recs) == ops
            assert sum(r.attrs["disks"] for r in recs) == blocks
        assert len(col.records) == res.io.parallel_ios
        assert system.channel_rounds > res.io.parallel_ios
        assert col.records[-1].end_ms == system.elapsed_ms > 0

    def test_payload_sort_then_scan_then_convert(self, rng):
        """Records survive a sort, a bounded scan, and a layout change."""
        cfg = SRMConfig.from_k(2, 4, 8)
        keys = rng.permutation(2048)
        pays = keys * 13 + 1
        _, res = srm_sort(keys, cfg, rng=2, run_length=128, payloads=pays)
        system = res.system
        check_striped_run(system, res.output)

        # Scan half, then rewrite the metadata-intact run in DSM's
        # round-robin layout.
        scanner = RunScanner(system, res.output)
        seen = 0
        while seen < 1000:
            seen += scanner.next_chunk().size
        sorted_keys, sorted_pays = res.output.read_all_records(system)
        sb = write_superblock_run(system, sorted_keys, 99, payloads=sorted_pays)
        check_superblock_run(system, sb)
        out_k, out_p = sb.read_all_records(system)
        assert np.array_equal(out_k, np.sort(keys))
        assert np.array_equal(out_p, out_k * 13 + 1)

    def test_partial_striping_with_payload_records(self, rng):
        """Group-striped SRM still carries payloads correctly."""
        keys = rng.permutation(3000)
        # partial_striping_sort has no payload kwarg; use the config and
        # sort directly on the logical geometry.
        from repro.core import PartialStriping

        ps = PartialStriping(8, 8, group_size=2)
        cfg = ps.srm_config(2000)
        pays = keys + 10**6
        _, res = srm_sort(keys, cfg, rng=3, run_length=512, payloads=pays)
        out_k, out_p = res.peek_sorted_records()
        assert np.array_equal(out_k, np.sort(keys))
        lookup = dict(zip(keys.tolist(), pays.tolist()))
        assert [lookup[k] for k in out_k.tolist()] == out_p.tolist()

    def test_staggered_layout_with_replacement_selection(self, rng):
        """§8 deterministic placement composes with §2.1 run formation."""
        cfg = SRMConfig.from_k(2, 4, 8)
        keys = rng.permutation(3000)
        out, res = srm_sort(
            keys, cfg, strategy=LayoutStrategy.STAGGERED, rng=4,
            run_length=150, formation="replacement_selection", validate=True,
        )
        assert np.array_equal(out, np.sort(keys))

    def test_partial_striping_sort_traced(self, rng):
        keys = rng.permutation(4000)
        out, res, ps = partial_striping_sort(
            keys, memory_records=1000, n_disks=8, block_size=8,
            group_size=4, rng=5,
        )
        assert np.array_equal(out, np.sort(keys))
        assert ps.logical_disks == 2
        # Write efficiency measured on the logical geometry.
        assert res.io.write_efficiency > 0.9
