"""SRM — the paper's primary contribution.

Configuration (:class:`SRMConfig`), layout strategies, the forecasting
structure, the §5.5 I/O scheduler, the data-moving merger, the fast
block-level simulator, run formation, the full mergesort driver, and
the §6 phase accounting.
"""

from .config import (
    OVERLAP_MODES,
    DSMConfig,
    OverlapConfig,
    SRMConfig,
    memory_records_for_k,
)
from .events import OverlapEngine, OverlapReport
from .forecasting import INF, INF_I64, ForecastStructure
from .job import MergeJob
from .layout import LayoutStrategy, choose_start_disks
from .merge import MergeResult, merge_runs
from .mergesort import (
    PassStats,
    SortResult,
    srm_mergesort,
    srm_sort,
)
from .phases import (
    PhaseBound,
    initial_load_reads,
    lemma6_read_bound,
    participation_order,
    phase_chain_lengths,
    phase_occupancies,
)
from .partial_striping import (
    PartialStriping,
    merge_order_profile,
    partial_striping_sort,
)
from .run_formation import form_runs_load_sort, form_runs_replacement_selection
from .schedule import MergeScheduler, ScheduleStats
from .simulator import build_event_stream, simulate_merge
from .sort_simulator import SimPassStats, SimSortResult, simulate_mergesort
from .writer import RunWriter

__all__ = [
    "DSMConfig",
    "SRMConfig",
    "OVERLAP_MODES",
    "OverlapConfig",
    "OverlapEngine",
    "OverlapReport",
    "memory_records_for_k",
    "INF",
    "INF_I64",
    "ForecastStructure",
    "MergeJob",
    "LayoutStrategy",
    "choose_start_disks",
    "MergeResult",
    "merge_runs",
    "PassStats",
    "SortResult",
    "srm_mergesort",
    "srm_sort",
    "PhaseBound",
    "initial_load_reads",
    "lemma6_read_bound",
    "participation_order",
    "phase_chain_lengths",
    "phase_occupancies",
    "PartialStriping",
    "merge_order_profile",
    "partial_striping_sort",
    "form_runs_load_sort",
    "form_runs_replacement_selection",
    "MergeScheduler",
    "ScheduleStats",
    "build_event_stream",
    "simulate_merge",
    "SimPassStats",
    "SimSortResult",
    "simulate_mergesort",
    "RunWriter",
]
