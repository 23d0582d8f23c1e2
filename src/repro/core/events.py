"""Discrete-event overlapped-I/O engine for the SRM merge.

The demand-paced merge stalls on every ``ParRead``: I/O and computation
strictly alternate, so the paper's "SRM overlaps I/O operations and
internal computation" claim (post-Lemma-1) could previously only be
*estimated* after the fact (:mod:`repro.analysis.overlap`).  This engine
*executes* the overlap on a shared simulated clock:

* every disk is an independent FIFO server
  (:class:`~repro.disks.service.ServiceNetwork`) costed by the
  :class:`~repro.disks.timing.DiskTimingModel`;
* the chunked internal merge advances the clock by a per-record CPU
  cost and blocks only when a needed block has not yet *arrived*;
* a **read-ahead window** of ``prefetch_depth`` eager ``ParRead``\\ s
  (issued through :meth:`MergeScheduler.maybe_prefetch`, so every eager
  read is a legal §5.5 case-2a operation) keeps the disks busy ahead of
  demand;
* **write-behind** lets the :class:`~repro.core.writer.RunWriter` hand a
  full output stripe to the disks and keep merging; ``M_W = 2D`` admits
  exactly one stripe in flight while the next one fills.

The engine never changes *what* the scheduler reads, flushes, or writes
— only *when* the simulated clock says those operations complete — so
``overlap="none"`` reproduces the demand-paced schedule's
:class:`~repro.core.schedule.ScheduleStats` exactly, and every mode
produces byte-identical sorted output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..disks.service import ServiceNetwork
from ..disks.timing import DiskTimingModel
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import EV_OVERLAP_DISKS, H_OVERLAP_QUEUE_DEPTH
from ..telemetry.trace import NetTracer
from .config import OverlapConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .schedule import MergeScheduler

#: A read instruction as the scheduler reports it: (run, block, disk).
ReadOp = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class OverlapReport:
    """Simulated-time outcome of one engine-driven merge.

    Attributes
    ----------
    mode / prefetch_depth:
        The overlap discipline the engine ran under.
    makespan_ms:
        Wall-clock of the merge: CPU finish or last disk going idle,
        whichever is later.
    cpu_busy_ms:
        Time spent merging records.
    read_stall_ms / write_stall_ms:
        Time the CPU waited for a block to arrive / for an output-stripe
        frame to free up.
    io_busy_ms:
        Summed per-disk service time (reads + writes).
    disk_utilization:
        ``io_busy_ms / (D * makespan_ms)`` — mean busy fraction per disk.
    demand_reads / eager_reads:
        ``ParRead`` operations issued on a stall vs. ahead of demand.
    writes:
        Parallel write operations (output stripes).
    """

    mode: str
    prefetch_depth: int
    makespan_ms: float
    cpu_busy_ms: float
    read_stall_ms: float
    write_stall_ms: float
    io_busy_ms: float
    disk_utilization: float
    demand_reads: int
    eager_reads: int
    writes: int

    @property
    def cpu_stall_ms(self) -> float:
        """Total time the CPU spent waiting on the disks."""
        return self.read_stall_ms + self.write_stall_ms

    @property
    def cpu_utilization(self) -> float:
        """Fraction of the makespan the CPU spent merging.

        A zero-duration (empty-input) merge has no makespan to be busy
        during, so its utilization is 0.0 rather than a division error
        or a vacuous 1.0.
        """
        return self.cpu_busy_ms / self.makespan_ms if self.makespan_ms else 0.0


class OverlapEngine:
    """Shared simulated clock for one merge's reads, writes, and compute.

    The engine is driven by hooks: the merge loop reports computation
    (:meth:`compute`) and block needs (:meth:`wait_for`), the scheduler's
    callbacks report issued reads and flushes (:meth:`on_parread`,
    :meth:`on_flush`), and the writer reports stripes
    (:meth:`on_write`).  :meth:`pump` issues eager reads inside the
    read-ahead window; :meth:`finish` drains the disks and returns the
    :class:`OverlapReport`.

    Parameters
    ----------
    timing:
        Disk service-time model.
    block_size:
        Records per block.
    n_disks:
        ``D``.
    overlap:
        The validated :class:`~repro.core.config.OverlapConfig`: overlap
        mode, read-ahead window (the engine keeps at most
        ``prefetch_depth * D`` prefetched-but-unconsumed blocks in
        memory) and per-record CPU cost.
    faults:
        Optional :class:`~repro.faults.plan.FaultInjector` shared with
        the disk system: the service network scales service times by
        straggler factors, floors starts at stall-window ends, and
        drains the retry/backoff penalties the synchronous data path
        accumulated — so fault cost shows up in the simulated makespan.
    """

    def __init__(
        self,
        timing: DiskTimingModel,
        block_size: int,
        n_disks: int,
        overlap: OverlapConfig,
        telemetry=None,
        faults=None,
    ) -> None:
        self.mode = overlap.mode
        self.prefetch_depth = overlap.prefetch_depth
        self.net = ServiceNetwork(n_disks, timing, block_size, faults=faults)
        self._cpu_ms_per_record = overlap.cpu_us_per_record / 1000.0
        self._window = overlap.prefetch_depth * n_disks  # read-ahead, in blocks
        #: Simulated CPU clock.
        self.now = 0.0
        self.cpu_busy_ms = 0.0
        self.read_stall_ms = 0.0
        self.write_stall_ms = 0.0
        self.demand_reads = 0
        self.eager_reads = 0
        self.writes = 0
        #: Arrival time of issued-but-not-yet-awaited blocks.
        self._arrival: dict[tuple[int, int], float] = {}
        #: Blocks fetched ahead of demand and not yet consumed.
        self._prefetched: set[tuple[int, int]] = set()
        #: Completion time of the newest in-flight write-behind stripe.
        self._write_done = 0.0
        self._eager_issue = False  # set by pump() around maybe_prefetch()
        self._tel = telemetry if telemetry is not None else TELEMETRY_OFF
        # Queue depth is in-flight blocks.  Capacity is the eager
        # window *plus* one demand ParRead of width <= D that can be
        # outstanding on top of it — so demand mode (window 0) still
        # gets D+1 distinct buckets instead of collapsing to one.
        depth_cap = self._window + n_disks
        self._h_depth = self._tel.histogram(
            H_OVERLAP_QUEUE_DEPTH,
            tuple(float(v) for v in range(0, depth_cap + 1)),
        )
        # Causal tracing: when the telemetry handle carries a trace
        # ring, every clock advance and disk request becomes a record
        # whose binding dep lets the critical path tile the makespan.
        self._trace = getattr(self._tel, "trace", None)
        self._cpu_tail: int | None = None  # last record on the cpu lane
        #: The CPU interval not yet recorded: [start, records, cycles].
        self._open: list | None = None
        self._write_done_rec: int | None = None
        self._arrival_rec: dict[tuple[int, int], int] = {}
        if self._trace is not None:
            self._dom = self._trace.new_domain("merge")
            self.net.tracer = NetTracer(self._trace, self._dom)

    # -- scheduler callbacks ---------------------------------------------

    def on_parread(self, ops: list[ReadOp]) -> None:
        """A ``ParRead`` was issued now; queue its per-disk requests."""
        if self._open is not None:
            self._close_compute()
        tracer = self.net.tracer
        if tracer is not None:
            tracer.issuer_dep = self._cpu_tail
        completes = self.net.submit([d for _, _, d in ops], self.now)
        if tracer is not None:
            for (r, b, _d), rec in zip(ops, tracer.last_batch):
                self._arrival_rec[(r, b)] = rec
        for (r, b, _d), t in zip(ops, completes):
            self._arrival[(r, b)] = t
            if self._eager_issue:
                self._prefetched.add((r, b))
        if self._eager_issue:
            self.eager_reads += 1
        else:
            self.demand_reads += 1
        self._h_depth.observe(len(self._arrival))

    def on_flush(self, evicted: list[tuple[int, int]]) -> None:
        """Flushed blocks leave memory; forget their arrivals."""
        for rb in evicted:
            self._arrival.pop(rb, None)
            self._prefetched.discard(rb)

    # -- CPU-side events ---------------------------------------------------

    def compute(self, counts) -> None:
        """The internal merge ran one cycle per entry of *counts*.

        Each entry is a cycle's record count.  The cycles' costs are
        added one at a time, so the clock is the same float whether an
        interval arrives in one call or cycle by cycle.
        """
        c = self._cpu_ms_per_record
        now = self.now
        busy = self.cpu_busy_ms
        records = 0
        for n in counts:
            dt = n * c
            now += dt
            busy += dt
            records += n
        if self._trace is not None and c > 0.0 and records:
            # One trace record per uninterrupted CPU interval: it stays
            # open until an engine event touches the cpu lane.
            if self._open is None:
                self._open = [self.now, 0, 0]
            self._open[1] += records
            self._open[2] += len(counts)
        self.now = now
        self.cpu_busy_ms = busy

    def _close_compute(self) -> None:
        """Record the open CPU interval, ending now, on the cpu lane."""
        start, records, cycles = self._open
        self._open = None
        self._cpu_tail = self._trace.add(
            "compute", "cpu", self._dom, start, start, self.now,
            dep=self._cpu_tail, attrs={"records": records, "cycles": cycles},
        )

    def wait_for(self, run: int, block: int) -> None:
        """The merge is about to read (*run*, *block*); stall if in flight."""
        self._prefetched.discard((run, block))
        t = self._arrival.pop((run, block), None)
        arrival_rec = self._arrival_rec.pop((run, block), None)
        if t is not None and t > self.now:
            if self._open is not None:
                self._close_compute()
            if self._trace is not None:
                # The stall's dep is the awaited disk op, whose end is
                # bit-equal to the stall's end (`now` jumps to it).
                self._cpu_tail = self._trace.add(
                    "read_stall", "cpu", self._dom, self.now, self.now, t,
                    dep=arrival_rec, attrs={"run": run, "block": block},
                )
            self.read_stall_ms += t - self.now
            self.now = t

    def on_write(self, disks: list[int]) -> None:
        """The writer emitted one output stripe on *disks*."""
        if self._open is not None:
            self._close_compute()
        tracer = self.net.tracer
        if self.mode == "full":
            # Write-behind: M_W = 2D holds the stripe being filled plus
            # one in flight.  Submitting a new stripe requires the
            # previous one's frames back.
            if self._write_done > self.now:
                if self._trace is not None:
                    self._cpu_tail = self._trace.add(
                        "write_stall", "cpu", self._dom, self.now,
                        self.now, self._write_done,
                        dep=self._write_done_rec,
                    )
                self.write_stall_ms += self._write_done - self.now
                self.now = self._write_done
            if tracer is not None:
                tracer.issuer_dep = self._cpu_tail
            completes = self.net.submit(disks, self.now, kind="write")
            self._write_done = max(completes)
            if tracer is not None:
                self._write_done_rec = tracer.last_batch[
                    completes.index(self._write_done)
                ]
        else:
            if tracer is not None:
                tracer.issuer_dep = self._cpu_tail
            completes = self.net.submit(disks, self.now, kind="write")
            done = max(completes)
            if self._trace is not None and done > self.now:
                self._cpu_tail = self._trace.add(
                    "write_stall", "cpu", self._dom, self.now, self.now,
                    done, dep=tracer.last_batch[completes.index(done)],
                )
            self.write_stall_ms += done - self.now
            self.now = done
        self.writes += 1

    # -- read-ahead --------------------------------------------------------

    def pump(self, sched: "MergeScheduler") -> int:
        """Issue eager case-2a reads while the read-ahead window has room.

        Returns the number of ``ParRead`` operations issued.
        """
        if self.mode == "none":
            return 0
        issued = 0
        while len(self._prefetched) < self._window:
            self._eager_issue = True
            try:
                if not sched.maybe_prefetch():
                    break
            finally:
                self._eager_issue = False
            issued += 1
        return issued

    # -- completion --------------------------------------------------------

    def finish(self) -> OverlapReport:
        """Drain outstanding I/O and report the simulated timings."""
        if self._open is not None:
            self._close_compute()
        makespan = max(self.now, self._write_done, self.net.drained_completion_ms())
        if self._trace is not None:
            self._trace.summary(self._dom, makespan)
        self._tel.event(
            EV_OVERLAP_DISKS,
            makespan_ms=makespan,
            disks=self.net.per_disk_summary(makespan),
        )
        return OverlapReport(
            mode=self.mode,
            prefetch_depth=self.prefetch_depth,
            makespan_ms=makespan,
            cpu_busy_ms=self.cpu_busy_ms,
            read_stall_ms=self.read_stall_ms,
            write_stall_ms=self.write_stall_ms,
            io_busy_ms=self.net.busy_ms,
            disk_utilization=self.net.utilization(makespan),
            demand_reads=self.demand_reads,
            eager_reads=self.eager_reads,
            writes=self.writes,
        )
