"""Job and tenant descriptions for the multi-tenant sort service.

A :class:`JobSpec` is the immutable request — whose keys to sort, with
what geometry, arriving when.  A :class:`ServiceJob` is the executor's
mutable runtime record for one admitted spec: admission phase, reserved
frames, per-job I/O counters, and the gated driver thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import SRMConfig
from ..disks.counters import IOStats
from ..errors import ConfigError
from ..memory.pool import BufferPool
from ..workloads.arrivals import JobArrival

#: Job lifecycle states.
QUEUED = "queued"  #: submitted, arrival time not reached / not admitted
WAITING = "waiting"  #: due, but blocked on tenant frames or a queue slot
RUNNING = "running"  #: admitted; driver thread parked between rounds
COMPLETED = "completed"
REJECTED = "rejected"  #: failed validation (geometry / quota violation)
ABORTED = "aborted"  #: cancelled mid-run; resources reclaimed

JOB_STATES = (QUEUED, WAITING, RUNNING, COMPLETED, REJECTED, ABORTED)


@dataclass(frozen=True, slots=True)
class TenantSpec:
    """One tenant's share of the service.

    ``quota_frames`` is the tenant's carve-out of internal-memory
    frames; ``None`` lets the service pick a default (enough for
    ``default_jobs`` concurrent jobs of the service's base geometry).
    ``weight`` drives the weighted-fair policy and defaults to 1.
    """

    name: str
    weight: float = 1.0
    quota_frames: int | None = None
    default_jobs: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant needs a non-empty name")
        if not self.weight > 0.0:
            raise ConfigError(
                f"tenant {self.name!r}: weight must be positive, got {self.weight}"
            )
        if self.quota_frames is not None and self.quota_frames <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: quota must be positive, "
                f"got {self.quota_frames}"
            )
        if self.default_jobs < 1:
            raise ConfigError(
                f"tenant {self.name!r}: default_jobs must be >= 1"
            )


@dataclass(frozen=True)
class JobSpec:
    """An immutable sort request.

    ``seed`` drives the job's layout randomness (run start disks); the
    same keys + seed + config always produce bit-identical output,
    schedules, and I/O counters whether the job runs solo or inside the
    service — that invariant is the service's core guarantee.
    """

    job_id: str
    tenant: str
    keys: np.ndarray
    config: SRMConfig
    arrival_ms: float = 0.0
    seed: int = 0
    run_length: int | None = None
    formation: str = "load_sort"
    validate: bool = False

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigError("job needs a non-empty job_id")
        if not self.tenant:
            raise ConfigError(f"job {self.job_id!r} needs a tenant")
        if self.arrival_ms < 0:
            raise ConfigError(
                f"job {self.job_id!r}: arrival must be >= 0, got {self.arrival_ms}"
            )
        object.__setattr__(
            self, "keys", np.asarray(self.keys, dtype=np.int64)
        )
        if self.keys.size == 0:
            raise ConfigError(f"job {self.job_id!r} has no records to sort")

    @property
    def n_records(self) -> int:
        return int(self.keys.size)

    @property
    def frames_needed(self) -> int:
        """Internal-memory frames this job holds for its lifetime.

        One full §5.1 partition — ``2R + 4D`` frames — for the job's
        own merge order.
        """
        return BufferPool(self.config.merge_order, self.config.n_disks).total_frames

    @classmethod
    def from_arrival(cls, arrival: JobArrival, config: SRMConfig) -> "JobSpec":
        """Materialize an arrival-script row into a runnable spec.

        The row's seed derives both the input keys and (offset by one so
        the two streams never alias) the layout randomness.
        """
        gen = np.random.default_rng(arrival.seed)
        keys = gen.integers(0, 2**40, size=arrival.n_records, dtype=np.int64)
        return cls(
            job_id=arrival.job_id,
            tenant=arrival.tenant,
            keys=keys,
            config=config,
            arrival_ms=arrival.arrival_ms,
            seed=arrival.seed + 1,
        )


@dataclass
class ServiceJob:
    """Mutable executor-side state for one submitted :class:`JobSpec`."""

    spec: JobSpec
    state: str = QUEUED
    #: Order of admission; fairness policies key their cycles off this.
    admission_index: int | None = None
    #: Frames currently reserved from the tenant partition (0 after release).
    reserved_frames: int = 0
    slot: int | None = None
    driver: object | None = None  # JobDriver once admitted
    #: Exact per-job I/O: the sum of counter deltas of this job's rounds.
    io: IOStats = field(default=None)  # type: ignore[assignment]
    #: Scheduling quanta granted (each = one charged parallel-I/O round).
    rounds: int = 0
    #: Simulated clock time consumed by this job's rounds.
    busy_ms: float = 0.0
    admitted_ms: float | None = None
    first_round_ms: float | None = None
    completed_ms: float | None = None
    #: Failed admission attempts spent waiting on frames or a slot.
    quota_waits: int = 0
    error: str | None = None

    def __post_init__(self) -> None:
        if self.io is None:
            self.io = IOStats(self.spec.config.n_disks)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def weight(self) -> float:
        # Resolved at admission from the tenant partition; 1.0 before.
        return self._weight if hasattr(self, "_weight") else 1.0

    @weight.setter
    def weight(self, value: float) -> None:
        self._weight = value

    @property
    def done(self) -> bool:
        return self.driver is not None and self.driver.done

    @property
    def wait_ms(self) -> float | None:
        """Queueing delay: arrival to first granted round."""
        if self.first_round_ms is None:
            return None
        return self.first_round_ms - self.spec.arrival_ms

    @property
    def makespan_ms(self) -> float | None:
        """Arrival to completion on the shared clock."""
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.spec.arrival_ms
