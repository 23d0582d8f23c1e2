"""repro — Simple Randomized Mergesort on Parallel Disks.

A from-scratch Python reproduction of Barve, Grove & Vitter's SRM
external sorting algorithm (SPAA 1996), including the Vitter–Shriver
parallel disk substrate, the DSM baseline, the occupancy theory behind
the analysis, and a harness regenerating every table and figure of the
paper's evaluation.

Quickstart::

    import numpy as np
    from repro import SRMConfig, srm_sort

    cfg = SRMConfig.from_k(k=4, n_disks=4, block_size=32)
    out, result = srm_sort(np.random.default_rng(0).permutation(100_000), cfg, rng=1)
    print(result.io)

Subpackages
-----------
``repro.core``
    SRM itself: config, layout, forecasting, scheduler, merger,
    simulator, run formation, mergesort driver, phase accounting.
``repro.disks``
    The simulated D-disk parallel I/O system.
``repro.baselines``
    Disk-striped mergesort (DSM) and the single-disk baseline.
``repro.occupancy``
    Classical/dependent maximum occupancy: sampling, exact, bounds.
``repro.analysis``
    §9 formulas and Tables 1–4 / Figure 1 regeneration.
``repro.workloads``
    Average-case and adversarial input generators.
``repro.verify``
    Sortedness/permutation/on-disk-format checks.
``repro.telemetry``
    Metrics registry, phase spans, JSONL traces, ``repro inspect``.
``repro.faults``
    Deterministic fault injection: retrying disk service, degraded-mode
    operation after disk loss, and the ``repro chaos`` harness.
"""

from ._version import __version__
from .baselines import DSMSortResult, dsm_mergesort, dsm_sort
from .core import (
    DSMConfig,
    LayoutStrategy,
    MergeJob,
    MergeScheduler,
    ScheduleStats,
    SortResult,
    SRMConfig,
    lemma6_read_bound,
    merge_runs,
    simulate_merge,
    srm_mergesort,
    srm_sort,
)
from .disks import (
    Block,
    BlockAddress,
    DiskTimingModel,
    IOStats,
    ParallelDiskSystem,
    StripedFile,
    StripedRun,
)
from .faults import (
    ChaosReport,
    CircuitBreaker,
    DiskDeath,
    FaultPlan,
    RetryPolicy,
    StallWindow,
    run_chaos,
)
from .sorting import ExternalSortStats, external_sort, external_sort_records
from .telemetry import (
    MetricsRegistry,
    RunReport,
    Telemetry,
    TELEMETRY_OFF,
)
from .errors import (
    ConfigError,
    DataError,
    DiskDeadError,
    DiskError,
    DiskFullError,
    InvalidIOError,
    ReproError,
    ScheduleError,
)

__all__ = [
    "__version__",
    "DSMSortResult",
    "dsm_mergesort",
    "dsm_sort",
    "DSMConfig",
    "LayoutStrategy",
    "MergeJob",
    "MergeScheduler",
    "ScheduleStats",
    "SortResult",
    "SRMConfig",
    "lemma6_read_bound",
    "merge_runs",
    "simulate_merge",
    "srm_mergesort",
    "srm_sort",
    "Block",
    "BlockAddress",
    "DiskTimingModel",
    "IOStats",
    "ParallelDiskSystem",
    "StripedFile",
    "StripedRun",
    "ConfigError",
    "DataError",
    "DiskDeadError",
    "DiskError",
    "DiskFullError",
    "InvalidIOError",
    "ReproError",
    "ScheduleError",
    "ChaosReport",
    "CircuitBreaker",
    "DiskDeath",
    "FaultPlan",
    "RetryPolicy",
    "StallWindow",
    "run_chaos",
    "ExternalSortStats",
    "external_sort",
    "external_sort_records",
    "MetricsRegistry",
    "RunReport",
    "Telemetry",
    "TELEMETRY_OFF",
]
