"""Fault injection and resilience for the simulated parallel disks.

The paper's flushing rule (§5, Definition 6) makes SRM naturally
restartable: any block evicted from memory can be re-read later because
runs are immutable once written.  This package pushes that observation
to its logical end — a disk system that keeps sorting *correctly*
through transient read failures, corrupted transfers, stragglers,
stall windows, and permanent disk loss:

* :mod:`~repro.faults.plan` — declarative, RNG-seeded fault plans and
  the :class:`FaultInjector` that replays them deterministically;
* :mod:`~repro.faults.retry` — capped exponential backoff with
  deterministic jitter, plus a per-disk circuit breaker;
* :mod:`~repro.faults.degraded` — permanent-failure handling: the dead
  disk's blocks migrate onto the survivors and the sort continues on
  ``D - 1`` spindles; plus checksum scrubbing for torn writes;
* :mod:`~repro.faults.parity` — rotating RAID-5-style parity groups
  behind ``FaultPlan(redundancy="parity")``: dead disks and torn
  writes rebuild by XOR over the survivors in charged I/O rounds;
* :mod:`~repro.faults.chaos` — the scenario sweep behind
  ``repro chaos``: every plan must yield bit-identical output, zero
  undetected corruptions, and truthful ``faults.*`` telemetry.

Arm a system with :meth:`ParallelDiskSystem.attach_faults
<repro.disks.system.ParallelDiskSystem.attach_faults>`, or pass a
:class:`FaultPlan` straight to :func:`~repro.core.mergesort.srm_sort` /
:func:`~repro.baselines.dsm.dsm_sort` via their ``faults`` argument.
"""

from .chaos import (
    ChaosReport,
    ChaosScenario,
    ScenarioResult,
    default_scenarios,
    run_chaos,
)
from .degraded import (
    DeathReport,
    ScrubReport,
    migrate_dead_disk,
    scrub_addresses,
    scrub_and_repair,
)
from .parity import ParityGroup, ParityMember, ParityStore
from .plan import (
    DiskDeath,
    FaultInjector,
    FaultPlan,
    FaultStats,
    ReadOutcome,
    StallWindow,
    WriteOutcome,
    corrupt_copy,
)
from .retry import DEFAULT_RETRY, CircuitBreaker, RetryPolicy

__all__ = [
    "ChaosReport",
    "ChaosScenario",
    "ScenarioResult",
    "default_scenarios",
    "run_chaos",
    "DeathReport",
    "ScrubReport",
    "migrate_dead_disk",
    "scrub_addresses",
    "scrub_and_repair",
    "ParityGroup",
    "ParityMember",
    "ParityStore",
    "DiskDeath",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "ReadOutcome",
    "StallWindow",
    "WriteOutcome",
    "corrupt_copy",
    "DEFAULT_RETRY",
    "CircuitBreaker",
    "RetryPolicy",
]
