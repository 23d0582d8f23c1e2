"""Declarative, RNG-seeded fault plans and their injector.

A :class:`FaultPlan` is a pure description of what should go wrong:
transient read *and write* failures with probability ``p``, torn writes
that persist a corrupted block, straggler latency multipliers on chosen
spindles, stall windows, corrupted transfers, and a sequence of
permanent disk deaths.  The :class:`FaultInjector` turns a plan into
deterministic per-disk event streams — each disk gets its own child
generator from :func:`repro.rng.spawn`, and a stream is only consulted
when the matching probability is non-zero — so a seeded plan replays
bit-identically regardless of telemetry, overlap mode, or which
scenarios ran before it.

The injector is consulted from two places: the
:class:`~repro.disks.system.ParallelDiskSystem` block layer (what fails,
what gets corrupted, what dies) and the
:class:`~repro.disks.service.ServiceNetwork` queueing layer (how long
the surviving requests take).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping, Optional

import numpy as np

from ..errors import ConfigError
from ..rng import spawn
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import (
    EV_DISK_DEATH,
    FAULT_BREAKER_TRIPS,
    FAULT_CHECKSUM_DETECTED,
    FAULT_CORRUPT_INJECTED,
    FAULT_DEGRADED_SPLIT_IOS,
    FAULT_DISK_DEATHS,
    FAULT_PARITY_BLOCKS,
    FAULT_RECOVERY_BLOCKS,
    FAULT_RECOVERY_READ_IOS,
    FAULT_REDIRECTED_ALLOCS,
    FAULT_RETRIES,
    FAULT_STALL_MS,
    FAULT_TORN_DETECTED,
    FAULT_TORN_INJECTED,
    FAULT_TRANSIENT_FAILURES,
    FAULT_UNDETECTED_CORRUPTIONS,
    FAULT_WRITE_FAILURES,
    H_FAULT_BACKOFF,
    backoff_edges,
)
from .retry import DEFAULT_RETRY, RetryPolicy

__all__ = [
    "StallWindow",
    "DiskDeath",
    "FaultPlan",
    "FaultStats",
    "ReadOutcome",
    "WriteOutcome",
    "FaultInjector",
    "corrupt_copy",
]

#: Redundancy modes a plan may request from the disk system.
REDUNDANCY_MODES = ("none", "parity")


@dataclass(frozen=True, slots=True)
class StallWindow:
    """A spindle serves nothing during ``[start_ms, start_ms + duration_ms)``.

    Stalls act on the simulated service clock, so they are felt by the
    overlapped-I/O engine's :class:`~repro.disks.service.ServiceNetwork`
    (requests whose service would start inside the window wait for its
    end); the operation-counting layer is stall-transparent, exactly
    like a real elevator pause changes latencies but not I/O counts.
    """

    disk: int
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.disk < 0:
            raise ConfigError(f"stall disk must be >= 0, got {self.disk}")
        if self.start_ms < 0 or self.duration_ms <= 0:
            raise ConfigError(
                f"stall window needs start >= 0 and duration > 0, got "
                f"[{self.start_ms}, +{self.duration_ms})"
            )

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


@dataclass(frozen=True, slots=True)
class DiskDeath:
    """Permanent loss of *disk* once it has served *after_ops* block ops.

    Reads and writes both count, so "mid-merge" is expressible as half
    the disk's fault-free operation count.  The death fires on the next
    operation that would touch the disk; degraded mode then recovers its
    live blocks onto the survivors before the operation proceeds.
    """

    disk: int
    after_ops: int

    def __post_init__(self) -> None:
        if self.disk < 0:
            raise ConfigError(f"death disk must be >= 0, got {self.disk}")
        if self.after_ops < 0:
            raise ConfigError(
                f"death after_ops must be >= 0, got {self.after_ops}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seedable schedule of injectable faults.

    Attributes
    ----------
    seed:
        Root seed for the per-disk event streams.
    read_fail_p:
        Per-read probability of a transient failure (the transfer
        returns garbage and must be retried).
    corrupt_p:
        Per-read probability that the transfer silently flips bits; the
        block checksum must catch it.
    max_consecutive_failures:
        Cap on injected back-to-back transient failures for one block
        read.  Keep it below the retry policy's ``max_attempts`` for
        retry-and-recover behaviour; raise it past the circuit-breaker
        threshold to exercise breaker escalation (disk death).
    fail_disks:
        Restrict transient failures and corruptions to these disks
        (``None`` = all disks).  A failure burst scoped to one spindle
        models a single flaky drive: its breaker trips while the
        survivors stay clean.
    write_fail_p:
        Per-write probability of a transient failure (the write does
        not persist and must be retried, with the same ladder/breaker
        escalation as reads).
    torn_write_p:
        Per-write probability that the write *appears* to succeed but
        persists a block whose contents no longer match its CRC seal —
        caught on the next read of that block, and repaired from parity
        when ``redundancy="parity"`` (fatal otherwise).  When parity is
        armed, at most one write per parity group is torn (a single
        parity arm can absorb exactly one latent loss per stripe).
    latency_factors:
        ``{disk: multiplier}`` straggler map; service times on listed
        spindles are scaled (felt by the overlap engine's clock).
    stalls:
        Stall windows on the simulated service clock.
    deaths:
        A sequence of permanent disk deaths, each on its own victim;
        deaths may fire during another disk's recovery.
    redundancy:
        ``"none"`` (default) keeps the replica-rebuild recovery model;
        ``"parity"`` maintains a rotating RAID-5-style parity block per
        write group and recovers dead disks / torn writes by XOR over
        the survivors in *charged* read+write rounds.
    """

    seed: int = 0
    read_fail_p: float = 0.0
    corrupt_p: float = 0.0
    max_consecutive_failures: int = 2
    fail_disks: Optional[tuple[int, ...]] = None
    latency_factors: Mapping[int, float] = field(default_factory=dict)
    stalls: tuple[StallWindow, ...] = ()
    write_fail_p: float = 0.0
    torn_write_p: float = 0.0
    deaths: tuple[DiskDeath, ...] = ()
    redundancy: str = "none"

    def __post_init__(self) -> None:
        for name in ("read_fail_p", "corrupt_p", "write_fail_p", "torn_write_p"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {p}")
        if self.max_consecutive_failures < 0:
            raise ConfigError(
                "max_consecutive_failures must be >= 0, got "
                f"{self.max_consecutive_failures}"
            )
        if self.fail_disks is not None:
            object.__setattr__(self, "fail_disks", tuple(self.fail_disks))
            for disk in self.fail_disks:
                if disk < 0:
                    raise ConfigError(f"fail disk must be >= 0, got {disk}")
        for disk, f in self.latency_factors.items():
            if disk < 0 or f <= 0:
                raise ConfigError(
                    f"latency factor for disk {disk} must be > 0, got {f}"
                )
        object.__setattr__(self, "deaths", tuple(self.deaths))
        victims = [d.disk for d in self.deaths]
        if len(victims) != len(set(victims)):
            raise ConfigError(
                f"each disk may die at most once, got victims {victims}"
            )
        if self.redundancy not in REDUNDANCY_MODES:
            raise ConfigError(
                f"redundancy must be one of {REDUNDANCY_MODES}, "
                f"got {self.redundancy!r}"
            )

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.read_fail_p == 0.0
            and self.corrupt_p == 0.0
            and self.write_fail_p == 0.0
            and self.torn_write_p == 0.0
            and not self.latency_factors
            and not self.stalls
            and not self.deaths
            and self.redundancy == "none"
        )

    def describe(self) -> str:
        """One-line human summary for reports and the chaos CLI."""
        parts = [f"seed={self.seed}"]
        if self.read_fail_p:
            parts.append(f"read_fail_p={self.read_fail_p}")
        if self.write_fail_p:
            parts.append(f"write_fail_p={self.write_fail_p}")
        if self.torn_write_p:
            parts.append(f"torn_write_p={self.torn_write_p}")
        if self.corrupt_p:
            parts.append(f"corrupt_p={self.corrupt_p}")
        if self.fail_disks is not None and (
            self.read_fail_p or self.corrupt_p
            or self.write_fail_p or self.torn_write_p
        ):
            parts.append(f"fail_disks={list(self.fail_disks)}")
        if self.latency_factors:
            parts.append(
                "stragglers={"
                + ", ".join(
                    f"{d}: x{f:g}" for d, f in sorted(self.latency_factors.items())
                )
                + "}"
            )
        if self.stalls:
            parts.append(f"stalls={len(self.stalls)}")
        for death in self.deaths:
            parts.append(
                f"death(disk={death.disk}, after={death.after_ops} ops)"
            )
        if self.redundancy != "none":
            parts.append(f"redundancy={self.redundancy}")
        return ", ".join(parts) if len(parts) > 1 else "no faults"


@dataclass
class FaultStats:
    """Injection and recovery counts, mirrored into the ``faults.*`` metrics."""

    transient_failures: int = 0
    retries: int = 0
    backoff_ms_total: float = 0.0
    corrupt_injected: int = 0
    checksum_detected: int = 0
    undetected_corruptions: int = 0
    disk_deaths: int = 0
    recovery_blocks: int = 0
    degraded_split_ios: int = 0
    breaker_trips: int = 0
    redirected_allocations: int = 0
    stall_ms: float = 0.0
    write_failures: int = 0
    torn_writes_injected: int = 0
    torn_writes_detected: int = 0
    recovery_read_ios: int = 0
    parity_blocks_written: int = 0

    def snapshot(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class ReadOutcome:
    """What the plan decreed for one block read: failures, then the data.

    ``n_failures`` transient failures precede the successful transfer;
    ``corrupt`` flags that the first completed transfer arrives with
    flipped bits (a retry re-reads the pristine block).
    """

    n_failures: int = 0
    corrupt: bool = False


@dataclass(slots=True)
class WriteOutcome:
    """What the plan decreed for one block write.

    ``n_failures`` transient write failures precede the persisting
    attempt; ``torn`` flags that the persisting attempt stores a block
    whose contents no longer match its CRC seal (detected on the next
    read, not now — that is what makes the tear dangerous).
    """

    n_failures: int = 0
    torn: bool = False


def corrupt_copy(block, rng: np.random.Generator):
    """A copy of *block* with one key bit-flipped, checksum untouched.

    The stored block is never mutated — corruption models a bad
    *transfer*, so retrying the read observes the pristine data.
    """
    keys = block.keys.copy()
    pos = int(rng.integers(0, keys.size))
    keys[pos] = np.int64(keys[pos]) ^ np.int64(0x5A5A5A5A)
    cls = type(block)
    return cls(
        keys=keys,
        run_id=block.run_id,
        index=block.index,
        forecast=block.forecast,
        payloads=None if block.payloads is None else block.payloads.copy(),
        checksum=block.checksum,
    )


def _validate_targets(plan: FaultPlan, n_disks: int) -> None:
    """Reject any plan feature aimed at a disk the system does not have.

    Every targeting surface goes through this one helper —
    ``fail_disks``, ``latency_factors``, ``stalls``, and the death
    schedule — so a typo'd disk id raises :class:`ConfigError` instead
    of being silently ignored.
    """
    targets = [("fail_disks", d) for d in plan.fail_disks or ()]
    targets += [("latency factor", d) for d in plan.latency_factors]
    targets += [("stall window", w.disk) for w in plan.stalls]
    targets += [("death", d.disk) for d in plan.deaths]
    for kind, disk in targets:
        if disk >= n_disks:
            raise ConfigError(
                f"{kind} targets disk {disk}, system has D={n_disks}"
            )
    if plan.deaths:
        if n_disks < 2:
            raise ConfigError(
                "a disk death needs at least one survivor (D >= 2)"
            )
        if len(plan.deaths) >= n_disks:
            raise ConfigError(
                f"{len(plan.deaths)} deaths on D={n_disks} disks would "
                "leave no survivor"
            )


class FaultInjector:
    """Executes a :class:`FaultPlan` as deterministic per-disk streams.

    Parameters
    ----------
    plan:
        The fault schedule.
    n_disks:
        ``D`` of the system under test; plan references outside
        ``0..D-1`` (and a death with no possible survivor) are rejected.
    retry:
        Backoff policy; its parameters shape the backoff histogram
        buckets.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; the injector
        mirrors every :class:`FaultStats` field into the canonical
        ``faults.*`` metrics and emits a ``disk_death`` event per loss.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n_disks: int,
        retry: RetryPolicy | None = None,
        telemetry=None,
    ) -> None:
        if n_disks < 1:
            raise ConfigError(f"need at least one disk, got D={n_disks}")
        _validate_targets(plan, n_disks)
        self.plan = plan
        self.n_disks = n_disks
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.stats = FaultStats()
        self._rngs = spawn(plan.seed, n_disks)
        self._ops = [0] * n_disks
        self._dead: set[int] = set()
        self._death_after = {d.disk: d.after_ops for d in plan.deaths}
        #: Backoff penalties accumulated by the synchronous retry loop,
        #: drained into the queueing model by ``ServiceNetwork.submit``.
        self._penalty_ms = [0.0] * n_disks
        #: Recovery block-ops (charged reconstruction I/O) accumulated by
        #: degraded mode, drained as service-time penalties by
        #: ``ServiceNetwork.submit`` so rebuilds show up in the makespan.
        self._recovery_ops = [0] * n_disks
        self._stalls_by_disk: dict[int, list[StallWindow]] = {}
        for w in plan.stalls:
            self._stalls_by_disk.setdefault(w.disk, []).append(w)
        for ws in self._stalls_by_disk.values():
            ws.sort(key=lambda w: w.start_ms)
        tel = telemetry if telemetry is not None else TELEMETRY_OFF
        self._c_transient = tel.counter(FAULT_TRANSIENT_FAILURES)
        self._c_retries = tel.counter(FAULT_RETRIES)
        self._c_corrupt = tel.counter(FAULT_CORRUPT_INJECTED)
        self._c_detected = tel.counter(FAULT_CHECKSUM_DETECTED)
        self._c_undetected = tel.counter(FAULT_UNDETECTED_CORRUPTIONS)
        self._c_deaths = tel.counter(FAULT_DISK_DEATHS)
        self._c_recovered = tel.counter(FAULT_RECOVERY_BLOCKS)
        self._c_split = tel.counter(FAULT_DEGRADED_SPLIT_IOS)
        self._c_breaker = tel.counter(FAULT_BREAKER_TRIPS)
        self._c_redirect = tel.counter(FAULT_REDIRECTED_ALLOCS)
        self._c_stall = tel.counter(FAULT_STALL_MS)
        self._c_write_fail = tel.counter(FAULT_WRITE_FAILURES)
        self._c_torn_inj = tel.counter(FAULT_TORN_INJECTED)
        self._c_torn_det = tel.counter(FAULT_TORN_DETECTED)
        self._c_recovery_reads = tel.counter(FAULT_RECOVERY_READ_IOS)
        self._c_parity = tel.counter(FAULT_PARITY_BLOCKS)
        self._h_backoff = tel.histogram(
            H_FAULT_BACKOFF,
            backoff_edges(self.retry.base_ms, self.retry.cap_ms, self.retry.factor),
        )
        self._tel = tel

    # -- RNG access -------------------------------------------------------

    def rng(self, disk: int) -> np.random.Generator:
        """The deterministic event stream of *disk*."""
        return self._rngs[disk]

    # -- block-layer decisions -------------------------------------------

    def plan_read(self, disk: int) -> ReadOutcome:
        """Decide this read's fate on *disk* (consumes the disk's stream).

        Streams are consulted only for features the plan enables, so a
        plan with ``corrupt_p=0`` draws no corruption randomness — two
        plans differing in one feature stay comparable on the others.
        """
        out = ReadOutcome()
        plan = self.plan
        if plan.fail_disks is not None and disk not in plan.fail_disks:
            return out
        if plan.read_fail_p > 0.0:
            gen = self._rngs[disk]
            while (
                out.n_failures < plan.max_consecutive_failures
                and float(gen.random()) < plan.read_fail_p
            ):
                out.n_failures += 1
        if plan.corrupt_p > 0.0:
            out.corrupt = float(self._rngs[disk].random()) < plan.corrupt_p
        return out

    def plan_write(self, disk: int) -> WriteOutcome:
        """Decide this write's fate on *disk* (consumes the disk's stream).

        Shares the per-disk stream with :meth:`plan_read`, and is
        feature-gated the same way: a plan with ``write_fail_p=0`` and
        ``torn_write_p=0`` draws nothing, so read-only plans replay
        identically whether or not the write path consults the injector.
        """
        out = WriteOutcome()
        plan = self.plan
        if plan.fail_disks is not None and disk not in plan.fail_disks:
            return out
        if plan.write_fail_p > 0.0:
            gen = self._rngs[disk]
            while (
                out.n_failures < plan.max_consecutive_failures
                and float(gen.random()) < plan.write_fail_p
            ):
                out.n_failures += 1
        if plan.torn_write_p > 0.0:
            out.torn = float(self._rngs[disk].random()) < plan.torn_write_p
        return out

    def note_op(self, disk: int) -> None:
        """Count one completed block operation on *disk* (read or write)."""
        self._ops[disk] += 1

    def ops_on(self, disk: int) -> int:
        return self._ops[disk]

    def death_due(self, disk: int) -> bool:
        """True if a planned death should fire before touching *disk*."""
        after = self._death_after.get(disk)
        return (
            after is not None
            and disk not in self._dead
            and self._ops[disk] >= after
        )

    def is_dead(self, disk: int) -> bool:
        return disk in self._dead

    def mark_dead(self, disk: int, trigger: str, recovered_blocks: int) -> None:
        """Record a permanent disk loss (after migration completed)."""
        self._dead.add(disk)
        self.stats.disk_deaths += 1
        self.stats.recovery_blocks += recovered_blocks
        self._c_deaths.inc()
        self._c_recovered.inc(recovered_blocks)
        self._tel.event(
            EV_DISK_DEATH,
            disk=disk,
            trigger=trigger,
            recovered_blocks=recovered_blocks,
            ops_served=self._ops[disk],
        )

    # -- accounting hooks -------------------------------------------------

    def count_transient(self) -> None:
        self.stats.transient_failures += 1
        self._c_transient.inc()

    def count_retry(self, disk: int, backoff_ms: float) -> None:
        self.stats.retries += 1
        self.stats.backoff_ms_total += backoff_ms
        self._c_retries.inc()
        self._h_backoff.observe(backoff_ms)
        self._penalty_ms[disk] += backoff_ms

    def count_corrupt(self) -> None:
        self.stats.corrupt_injected += 1
        self._c_corrupt.inc()

    def count_detected(self) -> None:
        self.stats.checksum_detected += 1
        self._c_detected.inc()

    def count_undetected(self) -> None:
        self.stats.undetected_corruptions += 1
        self._c_undetected.inc()

    def count_split_ios(self, extra_rounds: int) -> None:
        self.stats.degraded_split_ios += extra_rounds
        self._c_split.inc(extra_rounds)

    def count_breaker_trip(self) -> None:
        self.stats.breaker_trips += 1
        self._c_breaker.inc()

    def count_redirect(self) -> None:
        self.stats.redirected_allocations += 1
        self._c_redirect.inc()

    def count_write_failure(self) -> None:
        self.stats.write_failures += 1
        self._c_write_fail.inc()

    def count_torn_injected(self) -> None:
        self.stats.torn_writes_injected += 1
        self._c_torn_inj.inc()

    def count_torn_detected(self) -> None:
        self.stats.torn_writes_detected += 1
        self._c_torn_det.inc()

    def count_recovery_reads(self, rounds: int) -> None:
        self.stats.recovery_read_ios += rounds
        self._c_recovery_reads.inc(rounds)

    def count_parity_block(self) -> None:
        self.stats.parity_blocks_written += 1
        self._c_parity.inc()

    # -- queueing-layer hooks (ServiceNetwork) ----------------------------

    def latency_factor(self, disk: int) -> float:
        """Straggler multiplier for *disk* (1.0 when unlisted)."""
        return float(self.plan.latency_factors.get(disk, 1.0))

    def stall_release(self, disk: int, candidate_ms: float) -> float:
        """Earliest service start at or after *candidate_ms* on *disk*.

        A start landing inside a stall window slides to the window's
        end (repeatedly, for chained windows); the slid time is counted
        as ``faults.stall_ms``.
        """
        windows = self._stalls_by_disk.get(disk)
        if not windows:
            # A disk with no stall windows serves at the candidate time;
            # returning 0.0 here only worked because ServiceNetwork fed
            # the result into a max-like ``not_before``.
            return candidate_ms
        t = candidate_ms
        moved = True
        while moved:
            moved = False
            for w in windows:
                if w.start_ms <= t < w.end_ms:
                    t = w.end_ms
                    moved = True
        if t > candidate_ms:
            self.stats.stall_ms += t - candidate_ms
            self._c_stall.inc(t - candidate_ms)
        return t

    def take_penalty_ms(self, disk: int) -> float:
        """Drain retry/backoff penalties accumulated for *disk*."""
        p = self._penalty_ms[disk]
        if p:
            self._penalty_ms[disk] = 0.0
        return p

    def add_recovery_ops(self, disk: int, n: int = 1) -> None:
        """Queue *n* charged recovery block-ops on *disk* for the engine."""
        self._recovery_ops[disk] += n

    def take_recovery_ops(self, disk: int) -> int:
        """Drain recovery block-ops accumulated for *disk*."""
        n = self._recovery_ops[disk]
        if n:
            self._recovery_ops[disk] = 0
        return n
