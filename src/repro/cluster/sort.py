"""The cluster driver: P-node sample-sort over per-node SRM arrays.

Scale-out in the spirit of Rahn–Sanders-Singler's *Scalable
Distributed-Memory External Sorting*, simulated with the same rigor as
the single-node paper reproduction:

1. **Per-node run formation** — node ``i`` ingests the ``i``-th
   contiguous partition of the input onto its own
   :class:`~repro.disks.system.ParallelDiskSystem` (``D`` disks, its
   own §5.2 memory pool of ``config.memory_records``) and forms sorted
   runs with charged parallel I/O.
2. **Splitter selection** — every node samples its runs (charged
   reads), the gathered sample yields ``P - 1`` splitters
   (:mod:`~repro.cluster.splitters`).
3. **All-to-all exchange** — runs are range-partitioned into segments
   and delivered to owner nodes in shifted rounds, charged as parallel
   I/O on both end-points plus :class:`~repro.cluster.link.LinkModel`
   transfer time (:mod:`~repro.cluster.exchange`).  A node lost
   mid-exchange is rebuilt from its durable input partition, charged.
4. **Per-node shard merge** — each node merges its received segments
   with the standard SRM merge passes
   (:func:`~repro.core.mergesort.run_merge_passes`) into one globally
   ordered shard; concatenating the shards in node order is exactly
   ``sort(input)``.

Every random choice (layouts, samples, receive placements, rebuilds)
derives from one root seed through :func:`repro.rng.spawn` child
streams, so a cluster sort replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.config import SRMConfig
from ..core.layout import LayoutStrategy
from ..core.mergesort import SortResult, run_merge_passes
from ..core.run_formation import form_runs_load_sort
from ..disks.backends import StorageBackend, parse_backend
from ..disks.counters import IOStats
from ..disks.files import StripedFile, StripedRun
from ..disks.system import ParallelDiskSystem
from ..disks.timing import DISK_1996, DiskTimingModel
from ..errors import ConfigError
from ..rng import RngLike, ensure_rng, spawn
from ..telemetry import TELEMETRY_OFF
from ..telemetry.trace import StagedTracer
from ..telemetry.schema import (
    CLUSTER_EXCHANGE_BLOCKS,
    CLUSTER_EXCHANGE_ROUNDS,
    CLUSTER_LINK_MS,
    CLUSTER_NODE_LOSSES,
    CLUSTER_PARTITION_SKEW,
    CLUSTER_REBUILD_BLOCKS,
    CLUSTER_REBUILD_READ_IOS,
    CLUSTER_SAMPLE_READS,
    CLUSTER_SELF_BLOCKS,
    SPAN_CLUSTER_SORT,
    SPAN_EXCHANGE,
    SPAN_RUN_FORMATION,
    SPAN_SHARD_MERGE,
    SPAN_SPLITTER_SELECT,
)
from .exchange import ExchangeReport, NodeLoss, execute_exchange, plan_transfers
from .link import LINK_1GBE, LinkModel
from .splitters import partition_skew, sample_node_keys, select_splitters


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Shape of the simulated cluster.

    Attributes
    ----------
    n_nodes:
        ``P`` — nodes, each owning an independent ``D``-disk array.
    oversample:
        Samples drawn per node per splitter (Rahn–Sanders–Singler's
        oversampling factor ``a``); higher values tighten the shard
        balance at the cost of more charged sample reads.
    link:
        Inter-node transfer cost model.
    """

    n_nodes: int
    oversample: int = 32
    link: LinkModel = LINK_1GBE

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError(f"need at least one node, got P={self.n_nodes}")
        if self.oversample < 1:
            raise ConfigError(
                f"oversample must be >= 1, got {self.oversample}"
            )


@dataclass
class ClusterNode:
    """One simulated node: a disk array plus its sort state."""

    index: int
    system: ParallelDiskSystem
    #: The node's durable input partition (survives node loss — it
    #: models data held by the distributed ingest layer, not the disks).
    input_keys: np.ndarray = field(repr=False)
    runs: list[StripedRun] = field(default_factory=list)
    received: list[StripedRun] = field(default_factory=list)
    shard: Optional[StripedRun] = None
    result: Optional[SortResult] = None
    #: Disk arrays abandoned by node losses (their charged I/O still
    #: counts: the work happened before the crash).
    lost_systems: list[ParallelDiskSystem] = field(default_factory=list)

    @property
    def shard_records(self) -> int:
        return self.shard.n_records if self.shard is not None else 0

    def peek_shard(self) -> np.ndarray:
        """Read this node's shard without charging I/O."""
        if self.shard is None:
            return np.empty(0, dtype=np.int64)
        parts = [self.system.peek(a).keys for a in self.shard.addresses]
        return np.concatenate(parts)


@dataclass
class ClusterSortResult:
    """Outcome of a full cluster sort."""

    cluster: ClusterConfig
    config: SRMConfig
    n_records: int
    nodes: list[ClusterNode]
    splitters: np.ndarray
    exchange: ExchangeReport
    sample_read_ios: int
    #: Phase -> simulated ms (max across nodes per phase; ``link`` is
    #: the exchange's critical-path transfer time).
    makespan_breakdown: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.cluster.n_nodes

    @property
    def shard_sizes(self) -> list[int]:
        return [n.shard_records for n in self.nodes]

    @property
    def partition_skew(self) -> float:
        return partition_skew(self.shard_sizes)

    @property
    def makespan_ms(self) -> float:
        return float(sum(self.makespan_breakdown.values()))

    @property
    def total_parallel_ios(self) -> int:
        """Summed parallel I/Os across all arrays, lost ones included."""
        total = 0
        for n in self.nodes:
            total += n.system.stats.parallel_ios
            total += sum(s.stats.parallel_ios for s in n.lost_systems)
        return total

    @property
    def max_node_parallel_ios(self) -> int:
        """The busiest node's parallel I/O count (the I/O makespan)."""
        return max(n.system.stats.parallel_ios for n in self.nodes)

    def io_per_node(self) -> list[IOStats]:
        return [n.system.stats for n in self.nodes]

    def peek_sorted(self) -> np.ndarray:
        """Concatenate all shards in node order (verification aid)."""
        return np.concatenate([n.peek_shard() for n in self.nodes])


def cluster_sort(
    keys: np.ndarray,
    cluster: ClusterConfig,
    config: SRMConfig,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng: RngLike = None,
    run_length: int | None = None,
    timing: DiskTimingModel | None = DISK_1996,
    telemetry=None,
    node_loss: Optional[NodeLoss] = None,
    backend=None,
) -> tuple[np.ndarray, ClusterSortResult]:
    """Sort *keys* across ``P`` simulated nodes; returns (sorted, result).

    The sorted array is the concatenation of the per-node shards —
    bit-identical to a single-node sort of the same input.  *node_loss*
    kills a node mid-exchange; the sort still completes (and stays
    bit-identical) by rebuilding from the durable input, with every
    recovery I/O charged.  *backend* is a storage-backend spec (string
    or :class:`~repro.disks.backends.BackendSpec`) applied to every
    node's disk array; with an explicit mmap workdir each node's files
    land under its own ``node<n>/`` subdirectory.
    """
    keys = np.asarray(keys, dtype=np.int64)
    P = cluster.n_nodes
    backend_spec = parse_backend(backend)
    if isinstance(backend_spec, StorageBackend):
        raise ConfigError(
            "cluster_sort needs a backend spec (string or BackendSpec), "
            "not a StorageBackend instance — each node gets its own backend"
        )
    if keys.size == 0:
        raise ConfigError("cannot sort an empty file")
    if keys.size < P:
        raise ConfigError(f"{keys.size} records cannot feed {P} nodes")
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    root = ensure_rng(rng)
    layout_rngs, sample_rngs, recv_rngs, merge_rngs, rebuild_rngs = (
        spawn(r, P) for r in spawn(root, 5)
    )
    length = run_length if run_length is not None else config.memory_records

    cs_span = tel.span(
        SPAN_CLUSTER_SORT,
        n_records=int(keys.size),
        n_nodes=P,
        n_disks=config.n_disks,
        block_size=config.block_size,
        merge_order=config.merge_order,
        oversample=cluster.oversample,
    )

    system_seq = iter(range(10**9))

    def fresh_system() -> ParallelDiskSystem:
        # A unique child label per created system: rebuilt nodes get a
        # fresh subdirectory instead of colliding with the lost array's.
        label = f"node{next(system_seq)}"
        return ParallelDiskSystem(
            config.n_disks,
            config.block_size,
            timing=timing,
            backend=backend_spec.child(label).create(),
        )

    # -- phase 1: per-node ingest + run formation -----------------------
    parts = np.array_split(keys, P)
    nodes = [
        ClusterNode(index=i, system=fresh_system(), input_keys=part)
        for i, part in enumerate(parts)
    ]
    if getattr(tel, "trace", None) is not None:
        for n in nodes:
            n.system.tracer = StagedTracer(f"node{n.index}")
    breakdown: dict[str, float] = {}

    # -- causal tracing ------------------------------------------------
    # When the telemetry carries an armed TraceCollector, every node
    # system gets a StagedTracer buffering ops in node-local time; at
    # each phase barrier the buffers are flushed rebased onto the
    # cluster clock (``phase_start + (t - origin)`` — the very same
    # subtraction the phase fold performs, so the slowest node's final
    # record lands bit-exactly on the next phase start and the critical
    # path tiles the cluster makespan).
    collector = getattr(tel, "trace", None)
    trace_dom = collector.new_domain("cluster") if collector is not None else None
    trace_clock = 0.0
    trace_barrier: int | None = None

    def trace_begin() -> None:
        if collector is None:
            return
        for n in nodes:
            if n.system.tracer is not None:
                n.system.tracer.begin_phase(n.system.elapsed_ms)

    def trace_end(delta: float) -> None:
        nonlocal trace_clock, trace_barrier
        if collector is None:
            return
        phase_start = trace_clock
        trace_clock = trace_clock + delta
        best_id: int | None = None
        best_end = phase_start
        tracers = []
        for n in nodes:
            if n.system.tracer is not None:
                tracers.append(n.system.tracer)
            tracers.extend(
                s.tracer for s in n.lost_systems if s.tracer is not None
            )
        for tr in tracers:
            last_id, last_end = tr.flush(
                collector, trace_dom, phase_start, trace_barrier
            )
            if last_id is not None and (
                best_id is None or last_end >= best_end
            ):
                best_id, best_end = last_id, last_end
        if best_id is not None:
            trace_barrier = best_id

    def phase_deltas():
        marks = [(n.system, n.system.elapsed_ms) for n in nodes]

        def close() -> float:
            worst = 0.0
            for n, (sys0, ms0) in zip(nodes, marks):
                delta = (
                    n.system.elapsed_ms - ms0
                    if n.system is sys0
                    else n.system.elapsed_ms  # replaced mid-phase
                )
                worst = max(worst, delta)
            return worst

        return close

    close = phase_deltas()
    trace_begin()
    for node in nodes:
        rf_span = tel.span(
            SPAN_RUN_FORMATION, system=node.system, node=node.index,
            run_length=length,
        )
        infile = StripedFile.from_records(node.system, node.input_keys)
        node.runs = form_runs_load_sort(
            node.system, infile, length, strategy, layout_rngs[node.index],
            telemetry=telemetry,
        )
        rf_span.set(runs_formed=len(node.runs))
        rf_span.close()
    breakdown["run_formation"] = close()
    trace_end(breakdown["run_formation"])

    # -- phase 2: splitter selection ------------------------------------
    close = phase_deltas()
    trace_begin()
    sp_span = tel.span(SPAN_SPLITTER_SELECT, oversample=cluster.oversample)
    sample_read_ios = 0
    if P > 1:
        n_samples = cluster.oversample * (P - 1)
        samples = []
        for node in nodes:
            s, ops = sample_node_keys(
                node.system, node.runs, n_samples, sample_rngs[node.index]
            )
            samples.append(s)
            sample_read_ios += ops
        splitters = select_splitters(samples, P)
    else:
        splitters = np.empty(0, dtype=np.int64)
    tel.counter(CLUSTER_SAMPLE_READS).inc(sample_read_ios)
    sp_span.set(n_splitters=int(splitters.size), sample_reads=sample_read_ios)
    sp_span.close()
    breakdown["splitter_select"] = close()
    trace_end(breakdown["splitter_select"])

    # -- phase 3: all-to-all exchange -----------------------------------
    close = phase_deltas()
    trace_begin()
    ex_span = tel.span(SPAN_EXCHANGE, n_nodes=P)
    if P > 1:
        node_run_keys: list[list[np.ndarray]] = []
        for node in nodes:
            per_run = []
            for run in node.runs:
                blocks, _ = node.system.read_batch(run.addresses)
                per_run.append(np.concatenate([b.keys for b in blocks]))
            node_run_keys.append(per_run)
        transfers = plan_transfers(
            [n.runs for n in nodes], node_run_keys, splitters
        )

        def rebuild_node(idx: int) -> list[StripedRun]:
            node = nodes[idx]
            node.lost_systems.append(node.system)
            node.system = fresh_system()
            if collector is not None:
                # The replacement starts its private clock at zero, which
                # is exactly a fresh StagedTracer's origin; the loss makes
                # the cluster timeline inexact (declared in the summary).
                node.system.tracer = StagedTracer(f"node{idx}")
            infile = StripedFile.from_records(node.system, node.input_keys)
            return form_runs_load_sort(
                node.system, infile, length, strategy, rebuild_rngs[idx],
                telemetry=telemetry,
            )

        report = execute_exchange(
            nodes,
            transfers,
            cluster.link,
            recv_rngs,
            node_loss=node_loss,
            rebuild_node=rebuild_node,
            telemetry=telemetry,
        )
        # The exchange has committed: source runs are no longer needed.
        for node in nodes:
            for run in node.runs:
                for addr in run.addresses:
                    node.system.free(addr)
    else:
        if node_loss is not None:
            raise ConfigError("node loss needs at least two nodes")
        report = ExchangeReport()
        for node in nodes:
            node.received = node.runs
    tel.counter(CLUSTER_EXCHANGE_BLOCKS).inc(report.blocks_crossed)
    tel.counter(CLUSTER_SELF_BLOCKS).inc(report.self_blocks)
    tel.counter(CLUSTER_EXCHANGE_ROUNDS).inc(report.rounds)
    tel.counter(CLUSTER_NODE_LOSSES).inc(report.node_losses)
    tel.counter(CLUSTER_REBUILD_BLOCKS).inc(report.rebuild_blocks_resent)
    tel.counter(CLUSTER_REBUILD_READ_IOS).inc(report.rebuild_read_ios)
    tel.gauge(CLUSTER_LINK_MS).set(report.link_ms)
    ex_span.set(
        rounds=report.rounds,
        blocks_crossed=report.blocks_crossed,
        self_blocks=report.self_blocks,
        link_ms=report.link_ms,
        node_losses=report.node_losses,
    )
    ex_span.close()
    breakdown["exchange"] = close()
    trace_end(breakdown["exchange"])
    breakdown["link"] = report.link_ms
    if collector is not None:
        # The link phase is a serial chain of per-round slowest-link
        # spans; the per-message transfers hang off each round as
        # leaves.  ``acc`` replays the exact left fold that built
        # ``report.link_ms``, so the chain's last end hits the next
        # phase start bit-exactly.
        phase_start = trace_clock
        acc = 0.0
        dep = trace_barrier
        for ri, rms in enumerate(report.round_ms):
            s = phase_start + acc
            acc = acc + rms
            if rms > 0.0:
                links = (
                    report.round_links[ri]
                    if ri < len(report.round_links)
                    else []
                )
                for ln in links:
                    collector.add(
                        "link",
                        f"link:{ln['src']}->{ln['dst']}",
                        trace_dom, s, s, s + ln["ms"], dep=dep,
                        attrs={"blocks": ln["blocks"], "records": ln["records"]},
                    )
                dep = collector.add(
                    "link_round", "link", trace_dom,
                    s, s, phase_start + acc, dep=dep,
                    attrs={"round": ri, "messages": len(links)},
                )
        trace_clock = trace_clock + report.link_ms
        if dep is not None:
            trace_barrier = dep

    # -- phase 4: per-node shard merges ---------------------------------
    close = phase_deltas()
    trace_begin()
    for node in nodes:
        if not node.received:
            continue
        sm_span = tel.span(
            SPAN_SHARD_MERGE, system=node.system, node=node.index,
            n_runs_in=len(node.received),
        )
        before = node.system.stats.snapshot()
        res = SortResult(
            output=node.received[0],
            config=config,
            n_records=sum(r.n_records for r in node.received),
            runs_formed=len(node.received),
        )
        node.shard = run_merge_passes(
            node.system,
            node.received,
            config,
            res,
            strategy=strategy,
            rng=merge_rngs[node.index],
            timing=timing,
            telemetry=telemetry,
            next_run_id=10_000 * (node.index + 1),
        )
        res.output = node.shard
        res.io = node.system.stats.since(before)
        res.system = node.system
        node.result = res
        sm_span.set(n_merge_passes=res.n_merge_passes)
        sm_span.close()
    breakdown["shard_merge"] = close()
    trace_end(breakdown["shard_merge"])

    result = ClusterSortResult(
        cluster=cluster,
        config=config,
        n_records=int(keys.size),
        nodes=nodes,
        splitters=splitters,
        exchange=report,
        sample_read_ios=sample_read_ios,
        makespan_breakdown=breakdown,
    )
    if collector is not None:
        # A mid-exchange node loss restarts a private clock, so the
        # rebuilt node's records overlay the phase rather than tile it.
        collector.summary(
            trace_dom, result.makespan_ms, exact=report.node_losses == 0
        )
    tel.gauge(CLUSTER_PARTITION_SKEW).set(result.partition_skew)
    cs_span.set(
        partition_skew=result.partition_skew,
        makespan_ms=result.makespan_ms,
        total_parallel_ios=result.total_parallel_ios,
    )
    cs_span.close()
    return result.peek_sorted(), result
