"""Fast block-level SRM merge simulator (no record movement).

Drives the exact same :class:`MergeScheduler` as the data-moving merger,
but from a pre-sorted event stream instead of actual record
consumption.  The equivalence rests on one observation: with distinct
keys, records are consumed in globally sorted order, so

* a block *begins participating* (must be resident) exactly when its
  first key's turn arrives, and
* a leading block is *depleted* exactly when its last key's turn
  arrives.

Sorting all ``(first_key, participation)`` and ``(last_key, depletion)``
events by key therefore replays the merge's scheduler-visible behaviour
precisely, at ``O(total_blocks · log)`` cost independent of ``B`` — the
paper's Table 3 grid (millions of blocks) becomes reachable where
per-record simulation would not be.

With duplicate keys the event order may differ from the engine's
run-id tie-breaking; counts remain valid SRM executions but exact
engine/simulator equality is only guaranteed for distinct keys.
"""

from __future__ import annotations

import numpy as np

from ..errors import ScheduleError
from .job import MergeJob
from .schedule import MergeScheduler, ScheduleStats

#: Event kinds, ordered so participation precedes depletion at key ties.
_PARTICIPATE = 0
_DEPLETE = 1


def build_event_stream(job: MergeJob) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sorted event stream ``(keys, kinds, runs, blocks)`` for *job*.

    Participation events exist for every block except each run's block 0
    (those are loaded by step 1); depletion events exist for every block.
    """
    keys_parts: list[np.ndarray] = []
    kind_parts: list[np.ndarray] = []
    run_parts: list[np.ndarray] = []
    block_parts: list[np.ndarray] = []
    for r in range(job.n_runs):
        fk = job.first_keys[r]
        lk = job.last_keys[r]
        n = fk.size
        if n > 1:
            keys_parts.append(fk[1:])
            kind_parts.append(np.full(n - 1, _PARTICIPATE, dtype=np.int8))
            run_parts.append(np.full(n - 1, r, dtype=np.int64))
            block_parts.append(np.arange(1, n, dtype=np.int64))
        keys_parts.append(lk)
        kind_parts.append(np.full(n, _DEPLETE, dtype=np.int8))
        run_parts.append(np.full(n, r, dtype=np.int64))
        block_parts.append(np.arange(n, dtype=np.int64))
    keys = np.concatenate(keys_parts)
    kinds = np.concatenate(kind_parts)
    runs = np.concatenate(run_parts)
    blocks = np.concatenate(block_parts)
    order = np.lexsort((runs, kinds, keys))
    return keys[order], kinds[order], runs[order], blocks[order]


def simulate_merge(job: MergeJob, validate: bool = False) -> ScheduleStats:
    """Simulate one SRM merge of *job*'s runs; return its I/O counts.

    Parameters
    ----------
    job:
        Block boundaries and layout of the runs to merge.
    validate:
        Enable the scheduler's run-time invariant checks (slower).
    """
    sched = MergeScheduler(job, validate=validate)
    sched.initial_load()
    _, kinds, runs, blocks = build_event_stream(job)
    leading = sched.leading
    ensure = sched.ensure_resident
    deplete = sched.on_leading_depleted
    for kind, r, b in zip(kinds.tolist(), runs.tolist(), blocks.tolist()):
        if kind == _PARTICIPATE:
            ensure(r, b)
        else:
            if validate and leading[r] != b:
                raise ScheduleError(
                    f"depletion of ({r}, {b}) but leading block is {leading[r]}"
                )
            deplete(r)
    if not sched.finished():
        raise ScheduleError("event stream ended before all runs were exhausted")
    return sched.stats()
