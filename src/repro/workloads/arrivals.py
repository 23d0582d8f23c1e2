"""Job-arrival generators: seeded scripts of sort jobs over time.

An *arrival script* is a list of :class:`JobArrival` rows saying which
tenant submits how many records at what simulated time.  This module
generates such scripts — seeded Poisson streams, bursty on/off streams,
and simultaneous batches — and round-trips them through JSON trace
files.  Nothing in ``repro`` consumes a script since the multi-tenant
service was deleted; the module is kept with its tests until a later
change removes it (see ROADMAP).

Every generator is deterministic for a fixed seed, returns arrivals
sorted by time (ties broken by job index), and sizes drawn uniformly
from ``[min_records, max_records]``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..errors import ConfigError
from ..rng import RngLike, ensure_rng

__all__ = [
    "JobArrival",
    "poisson_arrivals",
    "bursty_arrivals",
    "batch_arrivals",
    "load_arrivals",
    "dump_arrivals",
]


@dataclass(frozen=True, slots=True)
class JobArrival:
    """One job submission in an arrival script.

    Attributes
    ----------
    job_id:
        Unique name (``"t0-j3"``); doubles as the trace/telemetry tag.
    tenant:
        Submitting tenant; must match a service partition.
    arrival_ms:
        Simulated submission time on the shared farm's clock.
    n_records:
        Input size of the sort job.
    seed:
        Per-job seed driving both the input data and the job's layout
        randomness — what makes service-vs-solo bit-identity checkable.
    weight:
        The tenant's fair-share weight (copied onto every arrival so a
        trace file is self-contained).
    """

    job_id: str
    tenant: str
    arrival_ms: float
    n_records: int
    seed: int
    weight: float = 1.0


def _check_common(
    n_jobs: int, n_tenants: int, min_records: int, max_records: int
) -> None:
    if n_jobs < 1:
        raise ConfigError(f"need at least one job, got {n_jobs}")
    if n_tenants < 1:
        raise ConfigError(f"need at least one tenant, got {n_tenants}")
    if min_records < 1 or max_records < min_records:
        raise ConfigError(
            f"bad size range [{min_records}, {max_records}]"
        )


def _finish(rows: list[JobArrival]) -> list[JobArrival]:
    rows.sort(key=lambda a: (a.arrival_ms, a.job_id))
    return rows


def _tenant_weights(
    n_tenants: int, weights: tuple[float, ...] | None
) -> tuple[float, ...]:
    if weights is None:
        return (1.0,) * n_tenants
    if len(weights) != n_tenants:
        raise ConfigError(
            f"{len(weights)} weights for {n_tenants} tenants"
        )
    if any(not w > 0.0 for w in weights):
        raise ConfigError(f"weights must be positive, got {weights}")
    return tuple(float(w) for w in weights)


def poisson_arrivals(
    n_jobs: int,
    rate_per_s: float,
    n_tenants: int = 2,
    min_records: int = 500,
    max_records: int = 2_000,
    weights: tuple[float, ...] | None = None,
    rng: RngLike = None,
    start_ms: float = 0.0,
) -> list[JobArrival]:
    """Seeded Poisson stream: exponential inter-arrivals at *rate_per_s*.

    Tenants are assigned round-robin so every tenant participates even
    in short scripts; sizes are uniform in ``[min_records,
    max_records]``.
    """
    _check_common(n_jobs, n_tenants, min_records, max_records)
    if not rate_per_s > 0.0:
        raise ConfigError(f"arrival rate must be positive, got {rate_per_s}")
    w = _tenant_weights(n_tenants, weights)
    gen = ensure_rng(rng)
    mean_gap_ms = 1000.0 / rate_per_s
    t = float(start_ms)
    rows: list[JobArrival] = []
    for j in range(n_jobs):
        t += float(gen.exponential(mean_gap_ms))
        tenant = j % n_tenants
        rows.append(
            JobArrival(
                job_id=f"t{tenant}-j{j}",
                tenant=f"t{tenant}",
                arrival_ms=t,
                n_records=int(gen.integers(min_records, max_records + 1)),
                seed=int(gen.integers(0, 2**31 - 1)),
                weight=w[tenant],
            )
        )
    return _finish(rows)


def bursty_arrivals(
    n_jobs: int,
    burst_size: int,
    burst_gap_ms: float,
    n_tenants: int = 2,
    min_records: int = 500,
    max_records: int = 2_000,
    within_gap_ms: float = 1.0,
    weights: tuple[float, ...] | None = None,
    rng: RngLike = None,
    start_ms: float = 0.0,
) -> list[JobArrival]:
    """On/off bursts: *burst_size* jobs land ``within_gap_ms`` apart,
    then the stream idles *burst_gap_ms* before the next burst — the
    backlogged-then-quiet shape that separates the fairness policies.
    """
    _check_common(n_jobs, n_tenants, min_records, max_records)
    if burst_size < 1:
        raise ConfigError(f"burst size must be >= 1, got {burst_size}")
    if burst_gap_ms < 0.0 or within_gap_ms < 0.0:
        raise ConfigError("burst gaps must be non-negative")
    w = _tenant_weights(n_tenants, weights)
    gen = ensure_rng(rng)
    rows: list[JobArrival] = []
    t = float(start_ms)
    for j in range(n_jobs):
        if j and j % burst_size == 0:
            t += burst_gap_ms
        elif j:
            t += float(gen.uniform(0.0, within_gap_ms))
        tenant = j % n_tenants
        rows.append(
            JobArrival(
                job_id=f"t{tenant}-j{j}",
                tenant=f"t{tenant}",
                arrival_ms=t,
                n_records=int(gen.integers(min_records, max_records + 1)),
                seed=int(gen.integers(0, 2**31 - 1)),
                weight=w[tenant],
            )
        )
    return _finish(rows)


def batch_arrivals(
    n_jobs: int,
    n_tenants: int = 2,
    min_records: int = 500,
    max_records: int = 2_000,
    weights: tuple[float, ...] | None = None,
    rng: RngLike = None,
) -> list[JobArrival]:
    """All jobs arrive at ``t = 0`` — the fully-backlogged contention
    case the acceptance bounds (makespan vs. sum-of-isolated, fair
    share) are stated against."""
    _check_common(n_jobs, n_tenants, min_records, max_records)
    w = _tenant_weights(n_tenants, weights)
    gen = ensure_rng(rng)
    rows = [
        JobArrival(
            job_id=f"t{j % n_tenants}-j{j}",
            tenant=f"t{j % n_tenants}",
            arrival_ms=0.0,
            n_records=int(gen.integers(min_records, max_records + 1)),
            seed=int(gen.integers(0, 2**31 - 1)),
            weight=w[j % n_tenants],
        )
        for j in range(n_jobs)
    ]
    return _finish(rows)


def dump_arrivals(arrivals: list[JobArrival], path: str) -> None:
    """Write an arrival script as a JSON trace file."""
    with open(path, "w") as fh:
        json.dump([asdict(a) for a in arrivals], fh, indent=2)
        fh.write("\n")


def load_arrivals(path: str) -> list[JobArrival]:
    """Load a JSON trace file written by :func:`dump_arrivals` (or by
    hand); validates fields and returns time-sorted arrivals."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: arrival trace must be a non-empty list")
    rows: list[JobArrival] = []
    seen: set[str] = set()
    for i, item in enumerate(raw):
        try:
            a = JobArrival(
                job_id=str(item["job_id"]),
                tenant=str(item["tenant"]),
                arrival_ms=float(item["arrival_ms"]),
                n_records=int(item["n_records"]),
                seed=int(item["seed"]),
                weight=float(item.get("weight", 1.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad arrival row {i}: {exc}") from exc
        if a.n_records < 1:
            raise ConfigError(f"{path}: row {i} has n_records={a.n_records}")
        if a.arrival_ms < 0.0:
            raise ConfigError(f"{path}: row {i} arrives at {a.arrival_ms}ms")
        if not a.weight > 0.0:
            raise ConfigError(f"{path}: row {i} has weight={a.weight}")
        if a.job_id in seen:
            raise ConfigError(f"{path}: duplicate job_id {a.job_id!r}")
        seen.add(a.job_id)
        rows.append(a)
    return _finish(rows)
