"""The benchmark's workloads and one sort of a workload through the public API.

Every sort builds a fresh :class:`ParallelDiskSystem` under the
DISK_1996 timing model, arms faults when the workload asks for them,
installs the input with ``StripedFile.from_records`` and sorts it with
``srm_mergesort``.  The reasons for each workload are recorded in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np

from repro import FaultPlan, ParallelDiskSystem, SRMConfig, StripedFile, srm_mergesort
from repro.analysis.predictions import compare_srm_result
from repro.core import OverlapConfig
from repro.disks.backends import BackendSpec
from repro.disks.timing import DISK_1996
from repro.telemetry import Telemetry

from . import ROOT

#: Parent of the mmap backend's per-sort disk directories.  It lies
#: inside the checkout; each sort's directory is removed on close.
SCRATCH = ROOT / ".bench_tmp"

#: Keys are drawn from ``[0, KEY_BOUND)``: the forecasting structure
#: reserves the int64 maximum as a sentinel.
KEY_BOUND = 2**62

#: Seed of the sort's own randomness (run placement).  Fixed, so that
#: ``--seed`` varies only the input and the fault plan, as a user's data
#: would, and the exact metrics move less from seed to seed.
PLACEMENT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One named input and sort configuration.

    ``overlap`` drives every merge through the balanced full-overlap
    engine with the causal trace armed; ``faults`` arms the parity
    fault plan; ``payloads`` carries each record's input index.
    """

    name: str
    n: int
    n_disks: int
    block_size: int
    k: int = 4
    backend: str = "memory"
    formation: str = "load_sort"
    payloads: bool = False
    overlap: bool = False
    faults: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("keys-mem", 2_000_000, n_disks=4, block_size=256),
        Workload("overlap-traced", 200_000, n_disks=16, block_size=16, overlap=True),
        Workload(
            "records-mmap",
            4_000_000,
            n_disks=16,
            block_size=256,
            backend="mmap",
            formation="replacement_selection",
            payloads=True,
        ),
        Workload("parity-faults", 250_000, n_disks=4, block_size=64, faults=True),
    )
}


@dataclass(frozen=True)
class Inputs:
    """A workload's seeded input and its precomputed expected output."""

    keys: np.ndarray
    payloads: np.ndarray | None
    expected: np.ndarray


def make_inputs(workload: Workload, seed: int, scale: int = 1) -> Inputs:
    """Uniform keys from *seed*, ``1/scale`` of the full record count;
    payloads, when used, are input indices.

    The expected output is computed here, during set-up, so that
    checking a sort allocates nothing the size of the input.
    """
    n = workload.n // scale
    keys = np.random.default_rng(seed).integers(0, KEY_BOUND, size=n, dtype=np.int64)
    payloads = np.arange(n, dtype=np.int64) if workload.payloads else None
    return Inputs(keys, payloads, np.sort(keys))


class Sort:
    """One fresh disk system holding a workload's input, sorted once.

    Constructing it is the set-up the benchmark times: system
    construction, ``attach_faults`` and ``StripedFile.from_records``.
    Close it (or use it as a context manager) to release the backend.
    """

    def __init__(self, workload: Workload, inputs: Inputs, seed: int) -> None:
        self.workload = workload
        self.result = None
        backend = None
        if workload.backend == "mmap":
            SCRATCH.mkdir(exist_ok=True)
            backend = BackendSpec(
                "mmap", workdir=tempfile.mkdtemp(dir=SCRATCH), keep_files=False
            )
        self.system = ParallelDiskSystem(
            workload.n_disks, workload.block_size, timing=DISK_1996, backend=backend
        )
        try:
            if workload.faults:
                self.system.attach_faults(
                    FaultPlan(
                        seed=seed + 1,
                        read_fail_p=0.02,
                        write_fail_p=0.02,
                        torn_write_p=0.01,
                        redundancy="parity",
                    )
                )
            self.infile = StripedFile.from_records(
                self.system, inputs.keys, payloads=inputs.payloads
            )
        except BaseException:
            self.system.close()
            raise
        self.telemetry = None
        if workload.overlap:
            self.telemetry = Telemetry()
            self.telemetry.attach_trace()
        self._backend_before = self.system.backend.stats()

    def run(self) -> None:
        """Sort the installed input (the timed part of a repeat)."""
        w = self.workload
        overlap = None
        if w.overlap:
            # The balanced regime: merging one block costs as much CPU
            # as one disk takes to serve it.
            overlap = OverlapConfig(
                mode="full",
                prefetch_depth=2,
                cpu_us_per_record=DISK_1996.op_time_ms(w.block_size) * 1000 / w.block_size,
            )
        self.result = srm_mergesort(
            self.system,
            self.infile,
            SRMConfig.from_k(k=w.k, n_disks=w.n_disks, block_size=w.block_size),
            rng=PLACEMENT_SEED,
            formation=w.formation,
            overlap=overlap,
            telemetry=self.telemetry,
        )

    def output_ok(self, inputs: Inputs) -> bool:
        """True when the output keys equal ``np.sort`` of the input and,
        with payloads, each payload indexes its own key in the input.

        Compared block by block, so checking raises no memory peak.
        """
        out = self.result.output
        if out.n_records != inputs.keys.size:
            return False
        off = 0
        for addr in out.addresses:
            blk = self.system.peek(addr)
            n = blk.keys.size
            if not np.array_equal(blk.keys, inputs.expected[off : off + n]):
                return False
            if inputs.payloads is not None and (
                blk.payloads is None
                or not np.array_equal(inputs.keys[blk.payloads], blk.keys)
            ):
                return False
            off += n
        return off == inputs.keys.size

    def exact_metrics(self) -> dict[str, float]:
        """The paper's currencies: deterministic at a fixed seed."""
        res, system = self.result, self.system
        stripes = -(-res.n_records // (system.n_disks * system.block_size))
        # Replacement selection forms runs of expected length 2M
        # (Knuth); the load-sort default M would predict an extra pass.
        run_length = (
            2 * res.config.memory_records
            if self.workload.formation == "replacement_selection"
            else None
        )
        return {
            "parallel_ios_per_stripe": res.io.parallel_ios / stripes,
            "read_overhead_v": compare_srm_result(res, run_length=run_length).read_overhead,
            "sim_makespan_ms": (
                res.simulated_merge_ms if self.workload.overlap else system.elapsed_ms
            ),
        }

    def layer_counts(self) -> dict[str, float]:
        """Work counts of each layer, from the sort's own reports."""
        res, system = self.result, self.system
        scheds = res.merge_schedules
        reports = res.overlap_reports
        io = res.io
        blocks_read = sum(s.blocks_read for s in scheds)
        flushed = sum(s.blocks_flushed for s in scheds)
        makespan = sum(r.makespan_ms for r in reports)
        backend = system.backend.stats()
        before = self._backend_before
        faults = system.faults.stats if system.faults is not None else None
        trace = self.telemetry.trace if self.telemetry is not None else None
        return {
            "core.run_formation.runs": res.runs_formed,
            "core.losertree.heap_cycles": res.heap_cycles,
            "core.schedule.parreads": sum(s.total_reads for s in scheds),
            "core.schedule.flush_ops": sum(s.flush_ops for s in scheds),
            "core.schedule.blocks_flushed": flushed,
            "core.schedule.useful_read_frac": 1.0 - flushed / blocks_read if blocks_read else 1.0,
            "core.events.read_stall_ms": sum(r.read_stall_ms for r in reports),
            "core.events.write_stall_ms": sum(r.write_stall_ms for r in reports),
            "core.events.disk_utilization": (
                sum(r.io_busy_ms for r in reports) / (system.n_disks * makespan)
                if makespan
                else 0.0
            ),
            "core.events.eager_reads": sum(r.eager_reads for r in reports),
            "disks.system.parallel_reads": io.parallel_reads,
            "disks.system.parallel_writes": io.parallel_writes,
            "disks.system.blocks_per_op": (
                (io.blocks_read + io.blocks_written) / io.parallel_ios
            ),
            **{
                f"disks.backends.{key}": backend.get(key, 0) - before.get(key, 0)
                for key in ("bytes_read", "bytes_written", "file_grows")
            },
            **{
                f"faults.{key}": getattr(faults, key) if faults is not None else 0
                for key in (
                    "retries",
                    "parity_blocks_written",
                    "recovery_read_ios",
                    "torn_writes_detected",
                )
            },
            "telemetry.trace.records": trace.emitted if trace is not None else 0,
            "telemetry.trace.dropped": trace.dropped if trace is not None else 0,
        }

    def close(self) -> None:
        self.system.close()

    def __enter__(self) -> "Sort":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
