"""Per-disk service queues on a shared simulated clock.

The paper's cost model counts synchronized parallel operations; the
overlapped-I/O engine (:mod:`repro.core.events`) instead models each
disk as an independent FIFO server driven by the
:class:`~repro.disks.timing.DiskTimingModel`.  A request submitted at
time ``t`` to a disk that is free at ``f`` starts at ``max(t, f)`` and
completes one service time later — so reads queue behind writes on the
same spindle, stripes touching disjoint disks proceed concurrently, and
the engine's clock advances only when the *computation* actually has to
wait.

This is deliberately the smallest queueing model that makes overlap a
measured quantity: no reordering, no elevator scheduling, one
outstanding request in service per disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .timing import DiskTimingModel


@dataclass
class DiskService:
    """One disk's FIFO request queue.

    Attributes
    ----------
    free_at:
        Simulated time at which the disk finishes its last accepted
        request (0.0 when idle since the start).
    busy_ms:
        Total time spent servicing requests.
    ops:
        Requests accepted.
    """

    free_at: float = 0.0
    busy_ms: float = 0.0
    ops: int = 0
    #: Summed gaps during which the disk sat idle between requests —
    #: the per-spindle complement of ``busy_ms`` that the telemetry
    #: layer reports as the overlap engine's idle-gap signal.
    idle_ms: float = 0.0
    #: Completion time of the last request, or ``None`` before the first
    #: request arrives.  Tracked separately from ``free_at`` so the time
    #: before a disk's first request is never attributed as an
    #: inter-request idle gap (``free_at`` starts at 0.0 either way).
    last_complete: float | None = None

    def submit(
        self, issue_ms: float, service_ms: float, not_before: float = 0.0
    ) -> float:
        """Accept a request at *issue_ms*; return its completion time.

        *not_before* floors the service start (a fault-plan stall window
        holds the head off the platter until the window ends).
        """
        start = max(issue_ms, self.free_at, not_before)
        if self.last_complete is not None:
            self.idle_ms += start - self.last_complete
        complete = start + service_ms
        self.free_at = complete
        self.last_complete = complete
        self.busy_ms += service_ms
        self.ops += 1
        return complete

    def utilization(self, makespan_ms: float) -> float:
        """Busy fraction of this disk over *makespan_ms*.

        A zero or negative makespan (empty merge, stall-only timeline
        that never served a request) yields 0.0 rather than a division
        error — the same degenerate-case rule the trace attribution
        applies to its lane utilizations.
        """
        if makespan_ms <= 0.0:
            return 0.0
        return self.busy_ms / makespan_ms


@dataclass
class ServiceNetwork:
    """``D`` independent disk queues with read/write accounting.

    Parameters
    ----------
    n_disks:
        Number of disk servers.
    timing:
        Service-time model; every block request costs
        ``timing.op_time_ms(block_size)``.
    block_size:
        Records per block (service times assume full blocks, like the
        rest of the timing layer).
    faults:
        Optional :class:`~repro.faults.plan.FaultInjector`.  When set,
        each request's service time is scaled by the disk's straggler
        latency factor, stall windows floor the service start, and
        retry/backoff penalties accumulated by the synchronous data
        path are drained into the affected disk's queue — so the
        overlap engine's simulated clock feels the same faults the
        block layer injected.
    """

    n_disks: int
    timing: DiskTimingModel
    block_size: int
    disks: list[DiskService] = field(default_factory=list)
    read_busy_ms: float = 0.0
    write_busy_ms: float = 0.0
    read_ops: int = 0
    write_ops: int = 0
    faults: object | None = None
    #: Optional :class:`~repro.telemetry.trace.NetTracer`.  When armed,
    #: every accepted request emits causal trace records (op body,
    #: fault-stall window, recovery tail) with binding predecessors.
    tracer: object | None = None

    def __post_init__(self) -> None:
        if self.n_disks < 1:
            raise ConfigError(f"need at least one disk, got D={self.n_disks}")
        if self.block_size < 1:
            raise ConfigError(f"block size must be >= 1, got B={self.block_size}")
        if not self.disks:
            self.disks = [DiskService() for _ in range(self.n_disks)]

    def submit(
        self, disk_ids: list[int], issue_ms: float, kind: str = "read"
    ) -> list[float]:
        """Submit one block request per disk in *disk_ids* at *issue_ms*.

        Returns the per-disk completion times, positionally matching
        *disk_ids*.  Disks not listed stay untouched (they idle or keep
        draining their queues).
        """
        base = self.timing.op_time_ms(self.block_size)
        inj = self.faults
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_batch()
        completes = []
        busy = 0.0
        for d in disk_ids:
            service = base
            core = base
            not_before = 0.0
            if inj is not None:
                service = service * inj.latency_factor(d)
                core = service  # the data op itself (straggler-scaled)
                service += inj.take_penalty_ms(d)
                # Charged recovery block-ops (parity reconstruction
                # reads, rebuild and repair writes) queue as extra
                # whole-block service on the spindle that did the work.
                service += base * inj.take_recovery_ops(d)
                candidate = max(issue_ms, self.disks[d].free_at)
                not_before = inj.stall_release(d, candidate)
            free_at = self.disks[d].free_at
            completes.append(self.disks[d].submit(issue_ms, service, not_before))
            if tracer is not None:
                tracer.disk_op(
                    d, kind, issue_ms, free_at, not_before,
                    core, service, completes[-1],
                )
            busy += service
        if kind == "write":
            self.write_busy_ms += busy
            self.write_ops += 1
        else:
            self.read_busy_ms += busy
            self.read_ops += 1
        return completes

    @property
    def busy_ms(self) -> float:
        """Total service time across all disks."""
        return self.read_busy_ms + self.write_busy_ms

    @property
    def latest_completion_ms(self) -> float:
        """Time the last-finishing disk goes idle."""
        return max((d.free_at for d in self.disks), default=0.0)

    def drained_completion_ms(self) -> float:
        """Completion time after flushing residual fault penalties.

        Recovery ops (and backoff penalties) accumulated *after* a
        disk's last data request would otherwise evaporate; appending
        them to the affected queues keeps an end-of-run rebuild or
        output scrub visible in the makespan.
        """
        inj = self.faults
        if inj is not None:
            base = self.timing.op_time_ms(self.block_size)
            for d, srv in enumerate(self.disks):
                residual = base * inj.take_recovery_ops(d)
                residual += inj.take_penalty_ms(d)
                if residual > 0.0:
                    free_at = srv.free_at
                    complete = srv.submit(free_at, residual)
                    if self.tracer is not None:
                        self.tracer.residual(d, free_at, complete)
        return self.latest_completion_ms

    def per_disk_summary(self, makespan_ms: float | None = None) -> list[dict]:
        """Per-disk ``{busy_ms, idle_ms, ops}`` for telemetry events.

        ``idle_ms`` counts only inter-request gaps; trailing idleness up
        to the makespan is the caller's to account (it depends on when
        the merge as a whole finishes).  When *makespan_ms* is given,
        each entry also carries the disk's busy fraction (zero-guarded,
        so a stall-only or empty timeline reports 0.0).
        """
        out = []
        for d in range(self.n_disks):
            srv = self.disks[d]
            entry: dict = {
                "busy_ms": srv.busy_ms, "idle_ms": srv.idle_ms, "ops": srv.ops,
            }
            if makespan_ms is not None:
                entry["utilization"] = srv.utilization(makespan_ms)
            out.append(entry)
        return out

    def utilization(self, makespan_ms: float) -> float:
        """Mean per-disk busy fraction over *makespan_ms*."""
        if makespan_ms <= 0.0:
            return 0.0
        return self.busy_ms / (self.n_disks * makespan_ms)
