"""Canonical metric names and the JSONL event schema.

Every quantity the repo measures in more than one place is named here
exactly once; the scheduler, the disk system, the bench harness, and
``repro inspect`` all speak these names.  The mapping from each metric
to the paper quantity it measures is documented in
``docs/OBSERVABILITY.md``.

Event stream layout (one JSON object per line):

* ``{"type": "meta", "schema": SCHEMA_VERSION, "algo": ..., ...}`` —
  always the first event; carries the run configuration.
* ``{"type": "event", "name": ..., "seq": ..., "attrs": {...}}`` —
  point events (overlap disk summaries, notes).
* ``{"type": "span", "name": ..., "span_id": ..., "parent_id": ...,
  "depth": ..., "seq": ..., "start_seq": ..., "wall_s": ...,
  "attrs": {...}, "io": {...}}`` — a closed phase scope; ``io`` is the
  I/O-counter delta over the span when a disk system was attached.
* ``{"type": "metrics", "metrics": {name: snapshot}}`` — the registry
  snapshot, emitted once at the end by ``Telemetry.finish()``.
"""

from __future__ import annotations

__all__ = [
    "SCHEMA_VERSION",
    "SPAN_SORT",
    "SPAN_RUN_FORMATION",
    "SPAN_MERGE_PASS",
    "SPAN_MERGE",
    "SPAN_PMERGE",
    "SPAN_PMERGE_PARTITION",
    "SPAN_PMERGE_WORKERS",
    "SPAN_PMERGE_STITCH",
    "SCHED_INITIAL_READS",
    "SCHED_MERGE_PARREADS",
    "SCHED_FLUSH_OPS",
    "SCHED_BLOCKS_FLUSHED",
    "MERGE_DRAIN_CYCLES",
    "H_READ_WIDTH",
    "H_FLUSH_OCCUPANCY",
    "H_FLUSH_OUTRANK",
    "H_DRAIN_BATCH",
    "H_RUN_LENGTH",
    "H_WRITER_OCCUPANCY",
    "H_OVERLAP_QUEUE_DEPTH",
    "FAULT_TRANSIENT_FAILURES",
    "FAULT_RETRIES",
    "FAULT_CORRUPT_INJECTED",
    "FAULT_CHECKSUM_DETECTED",
    "FAULT_UNDETECTED_CORRUPTIONS",
    "FAULT_DISK_DEATHS",
    "FAULT_RECOVERY_BLOCKS",
    "FAULT_DEGRADED_SPLIT_IOS",
    "FAULT_BREAKER_TRIPS",
    "FAULT_REDIRECTED_ALLOCS",
    "FAULT_STALL_MS",
    "FAULT_WRITE_FAILURES",
    "FAULT_TORN_INJECTED",
    "FAULT_TORN_DETECTED",
    "FAULT_RECOVERY_READ_IOS",
    "FAULT_PARITY_BLOCKS",
    "BACKEND_BLOCKS_WRITTEN",
    "BACKEND_BLOCKS_READ",
    "BACKEND_BYTES_WRITTEN",
    "BACKEND_BYTES_READ",
    "BACKEND_FILE_GROWS",
    "BACKEND_FILE_BYTES",
    "PMERGE_MERGES",
    "PMERGE_WORKERS",
    "PMERGE_RANGES",
    "PMERGE_RECORDS",
    "PMERGE_PARTITION_PROBES",
    "PMERGE_GHOST_ROUNDS",
    "H_FAULT_BACKOFF",
    "EV_OVERLAP_DISKS",
    "EV_DISK_DEATH",
    "EV_PMERGE_WORKER",
    "read_width_edges",
    "occupancy_edges",
    "run_length_edges",
    "writer_occupancy_edges",
    "batch_edges",
    "backoff_edges",
    "validate_events",
]

#: Bump when the event layout changes incompatibly.
SCHEMA_VERSION = 1

# -- span names ------------------------------------------------------------

SPAN_SORT = "sort"
SPAN_RUN_FORMATION = "run_formation"
SPAN_MERGE_PASS = "merge_pass"
SPAN_MERGE = "merge"

# Process-parallel Merge Path plane (``repro.core.parallel_merge``):
# the root span of one parallel merge, then its three stages — co-rank
# partitioning, the worker-pool drain, and stitching scratch output
# through the RunWriter.
SPAN_PMERGE = "pmerge"
SPAN_PMERGE_PARTITION = "pmerge_partition"
SPAN_PMERGE_WORKERS = "pmerge_workers"
SPAN_PMERGE_STITCH = "pmerge_stitch"

# -- counters --------------------------------------------------------------

SCHED_INITIAL_READS = "sched.initial_reads"
SCHED_MERGE_PARREADS = "sched.merge_parreads"
SCHED_FLUSH_OPS = "sched.flush_ops"
SCHED_BLOCKS_FLUSHED = "sched.blocks_flushed"
MERGE_DRAIN_CYCLES = "merge.drain_cycles"

# Fault-injection and resilience counters (``repro chaos``).  All are
# zero on a fault-free run; the chaos harness asserts the relations
# documented next to each name.

#: Injected transient read failures (each costs one retry attempt).
FAULT_TRANSIENT_FAILURES = "faults.transient_failures"
#: Read retries performed (transient failures + detected corruptions).
FAULT_RETRIES = "faults.retries"
#: Blocks whose transfer was corrupted by the fault plan.
FAULT_CORRUPT_INJECTED = "faults.corrupt_blocks_injected"
#: Corrupted transfers caught by the CRC-32 block checksum.
FAULT_CHECKSUM_DETECTED = "faults.checksum_failures_detected"
#: Corrupted transfers that slipped past verification (unsealed blocks);
#: the chaos harness asserts this stays 0.
FAULT_UNDETECTED_CORRUPTIONS = "faults.undetected_corruptions"
#: Permanent disk losses (planned deaths + circuit-breaker escalations).
FAULT_DISK_DEATHS = "faults.disk_deaths"
#: Blocks recovered off a dead disk onto the survivors.
FAULT_RECOVERY_BLOCKS = "faults.recovery_blocks"
#: Extra I/O rounds paid because a degraded stripe touched the same
#: surviving disk more than once (the degraded-mode overhead).
FAULT_DEGRADED_SPLIT_IOS = "faults.degraded_split_ios"
#: Per-disk circuit-breaker trips (consecutive-failure escalations).
FAULT_BREAKER_TRIPS = "faults.breaker_trips"
#: Allocations redirected from a dead disk to a survivor.
FAULT_REDIRECTED_ALLOCS = "faults.redirected_allocations"
#: Simulated time spent inside fault-plan stall windows (overlap path).
FAULT_STALL_MS = "faults.stall_ms"
#: Injected transient write failures (each costs one retry attempt).
FAULT_WRITE_FAILURES = "faults.write_failures"
#: Writes that persisted a block whose contents no longer match its CRC
#: seal (the write "tore"); dangerous because the writer sees success.
FAULT_TORN_INJECTED = "faults.torn_writes_injected"
#: Torn writes caught by seal verification on a later read or scrub;
#: the chaos harness asserts this equals the injected count.
FAULT_TORN_DETECTED = "faults.torn_writes_detected"
#: Charged parallel read rounds spent reconstructing lost or torn
#: blocks from parity (recovery is paid for, not free).
FAULT_RECOVERY_READ_IOS = "faults.recovery_read_ios"
#: Rotating parity blocks written under ``redundancy="parity"``.
FAULT_PARITY_BLOCKS = "faults.parity_blocks_written"

# Storage-backend counters (``backend.*``).  Populated from
# ``StorageBackend.stats()`` when a sort/merge finishes on a non-default
# backend; all zero for the in-memory backend (which pays no encoding).

#: Blocks encoded into backend storage (mmap slot records written).
BACKEND_BLOCKS_WRITTEN = "backend.blocks_written"
#: Blocks decoded out of backend storage (zero-copy view constructions).
BACKEND_BLOCKS_READ = "backend.blocks_read"
#: Record bytes written through the backend (keys + payloads).
BACKEND_BYTES_WRITTEN = "backend.bytes_written"
#: Record bytes read through the backend (keys + payloads).
BACKEND_BYTES_READ = "backend.bytes_read"
#: Disk-file growth events (ftruncate + remap; doubling policy).
BACKEND_FILE_GROWS = "backend.file_grows"
#: Total bytes reserved across all disk files (sparse on most FS).
BACKEND_FILE_BYTES = "backend.file_bytes"

# Process-parallel merge counters (``pmerge.*``).  All zero when merges
# run on the serial data plane.

#: Merges drained by the parallel Merge Path plane.
PMERGE_MERGES = "pmerge.merges"
#: Worker processes requested per parallel merge (W).
PMERGE_WORKERS = "pmerge.workers"
#: Disjoint output ranges actually dispatched (<= W; empty ranges skip).
PMERGE_RANGES = "pmerge.ranges"
#: Records merged by worker processes.
PMERGE_RECORDS = "pmerge.records"
#: Co-rank binary-search probes over the key domain (all uncharged
#: metadata work; the §5.5 I/O schedule is untouched).
PMERGE_PARTITION_PROBES = "pmerge.partition_probes"
#: Ghost-schedule drive iterations replaying the serial ParRead/flush
#: stream (one per drain round; ~= merge ParReads + 1).
PMERGE_GHOST_ROUNDS = "pmerge.ghost_rounds"

# -- histograms ------------------------------------------------------------

#: Blocks moved per parallel read (Theorem 1's parallelism; <= D).
H_READ_WIDTH = "io.read_width"
#: M_R occupancy in excess of the merge order R when a Flush_t fired
#: (§5.5 case 2c's ``extra``; §5.4 bounds it by D).
H_FLUSH_OCCUPANCY = "sched.flush_occupancy"
#: OutRank_t at each flush decision (Definition 7; 1 on the demand path).
H_FLUSH_OUTRANK = "sched.flush_outrank"
#: Records emitted per internal-merge drain step (a key-range cycle on
#: an engine-paced merge, a block slice on the demand path).
H_DRAIN_BATCH = "merge.drain_batch"
#: Records per formed run (replacement selection targets 2M).
H_RUN_LENGTH = "run_formation.run_length"
#: Buffered output blocks at each stripe write (M_W <= 2D discipline).
H_WRITER_OCCUPANCY = "writer.buffered_blocks"
#: In-flight prefetched blocks at each ParRead (overlap engine).
H_OVERLAP_QUEUE_DEPTH = "overlap.queue_depth"
#: Backoff delay charged per retry, in ms (capped exponential).
H_FAULT_BACKOFF = "faults.backoff_ms"

# -- point events ----------------------------------------------------------

#: Per-disk busy/idle breakdown of one engine-driven merge.
EV_OVERLAP_DISKS = "overlap_disks"
#: A disk died (planned death or breaker escalation); attrs carry the
#: disk id, trigger, and blocks recovered onto the survivors.
EV_DISK_DEATH = "disk_death"
#: One parallel-merge worker finished its range drain; attrs carry the
#: worker index, records merged, and wall-clock drain seconds.
EV_PMERGE_WORKER = "pmerge_worker"

# -- bucket layouts --------------------------------------------------------
#
# Edges are derived only from the machine geometry (D, B, M) so SRM and
# DSM runs on the same machine produce byte-comparable histograms.


def read_width_edges(n_disks: int) -> tuple[float, ...]:
    """One bucket per possible stripe width ``1..D``."""
    return tuple(float(w) for w in range(1, n_disks + 1))


def occupancy_edges(n_disks: int) -> tuple[float, ...]:
    """Buckets for the flush-time occupancy excess, §5.4-bounded by D."""
    return tuple(float(v) for v in range(1, n_disks + 1))


def run_length_edges(memory_records: int) -> tuple[float, ...]:
    """Buckets around the 2M replacement-selection expectation."""
    m = max(1, memory_records)
    return tuple(float(m * f) for f in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0))


def writer_occupancy_edges(n_disks: int) -> tuple[float, ...]:
    """Buckets for buffered output blocks at drain time.

    The ring holds two ``M_W = 2D`` windows, so occupancy at a stripe
    write sits in ``[2D, 4D]``; one bucket per block count.
    """
    return tuple(float(v) for v in range(1, 4 * n_disks + 1))


def backoff_edges(base_ms: float, cap_ms: float, factor: float = 2.0) -> tuple[float, ...]:
    """Geometric buckets spanning one retry ladder, ``base .. cap``.

    Derived only from the :class:`~repro.faults.retry.RetryPolicy`
    parameters, so two runs under the same policy bucket identically.
    The top edge sits above ``cap`` to absorb jitter on the capped step.
    """
    base = max(base_ms, 1e-3)
    factor = max(factor, 1.001)
    edges = []
    v = base
    while v < cap_ms and len(edges) < 32:
        edges.append(v)
        v *= factor
    edges.append(cap_ms)
    edges.append(cap_ms * factor)
    return tuple(sorted(set(edges)))


def batch_edges(block_size: int) -> tuple[float, ...]:
    """Power-of-two-ish buckets for drain batch sizes, in records."""
    b = max(1, block_size)
    return tuple(
        sorted({float(v) for v in (1, 4, 16, b // 2 or 1, b, 4 * b, 16 * b)})
    )


# -- validation ------------------------------------------------------------

_SPAN_REQUIRED = ("name", "span_id", "parent_id", "depth", "seq", "wall_s")


def validate_events(events: list[dict]) -> list[str]:
    """Structural checks over a decoded event stream.

    Returns a list of human-readable problems (empty = valid): meta
    first with a known schema version, spans carrying required fields
    with resolvable parents and consistent depths, and exactly one
    trailing metrics snapshot.
    """
    errors: list[str] = []
    if not events:
        return ["empty event stream"]
    head = events[0]
    if head.get("type") != "meta":
        errors.append(f"first event must be meta, got {head.get('type')!r}")
    elif head.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema version {head.get('schema')!r} != {SCHEMA_VERSION}"
        )
    spans: dict[int, dict] = {}
    n_metrics = 0
    for i, ev in enumerate(events):
        t = ev.get("type")
        if t == "span":
            missing = [f for f in _SPAN_REQUIRED if f not in ev]
            if missing:
                errors.append(f"span event {i} missing fields {missing}")
                continue
            spans[ev["span_id"]] = ev
        elif t == "metrics":
            n_metrics += 1
            if not isinstance(ev.get("metrics"), dict):
                errors.append(f"metrics event {i} carries no metrics dict")
        elif t == "trace":
            missing = [f for f in ("i", "kind", "cat", "lane", "dom",
                                   "tq", "ts", "te") if f not in ev]
            if missing:
                errors.append(f"trace event {i} missing fields {missing}")
        elif t == "trace_summary":
            if "dom" not in ev or "makespan_ms" not in ev:
                errors.append(f"trace_summary event {i} missing dom/makespan_ms")
        elif t not in ("meta", "event"):
            errors.append(f"event {i} has unknown type {t!r}")
    for sid, ev in spans.items():
        pid = ev["parent_id"]
        if pid is None:
            if ev["depth"] != 0:
                errors.append(f"root span {sid} has depth {ev['depth']} != 0")
            continue
        parent = spans.get(pid)
        if parent is None:
            errors.append(f"span {sid} references unknown parent {pid}")
        elif ev["depth"] != parent["depth"] + 1:
            errors.append(
                f"span {sid} depth {ev['depth']} != parent depth "
                f"{parent['depth']} + 1"
            )
    if n_metrics != 1:
        errors.append(f"expected exactly one metrics event, got {n_metrics}")
    elif events[-1].get("type") != "metrics":
        errors.append("metrics snapshot must be the final event")
    return errors
