"""Reference implementations the data plane is checked against.

* :func:`merge_loop_heapq` — the textbook heap-driven internal merge.
  :func:`heapq_merge` swaps it in for both loops of
  :mod:`repro.core.merge` (the batched demand-path drain and the
  engine-paced cycle loop), so a test runs the real ``merge_runs`` /
  ``srm_sort`` machinery with only the internal merge replaced.
* :func:`replacement_selection_record` — the textbook per-record
  replacement-selection heap loop, to compare against
  :func:`~repro.core.run_formation.form_runs_replacement_selection`.

Both must match the data plane bit for bit: output records and
payloads, ``ParRead``/flush schedule, I/O counters and engine clock.

:func:`attach_forecasts` implants the paper's forecast keys (§4) into a
whole run's block list at once; the blocks
:class:`~repro.core.writer.RunWriter` streams out must carry the same.
:func:`write_run` writes one sorted run through ``RunWriter``, as run
formation does, for tests that need runs on disk.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.merge as merge_mod
from repro.core.layout import LayoutStrategy
from repro.core.run_formation import _chunk_reader, _start_disk_stream
from repro.core.writer import RunWriter
from repro.disks.block import NO_KEY, Block
from repro.disks.files import StripedRun
from repro.errors import ScheduleError
from repro.telemetry import TELEMETRY_OFF
from repro.telemetry.schema import H_DRAIN_BATCH, MERGE_DRAIN_CYCLES, batch_edges


def attach_forecasts(blocks: list[Block], n_disks: int) -> list[Block]:
    """Implant forecast keys per the paper's run format (§4).

    Mutates (and returns) *blocks*, which must be the complete ordered
    block list of one sorted run.
    """
    n = len(blocks)
    if n == 0:
        return blocks
    first_keys = [b.first_key for b in blocks]

    def key_of(i: int) -> float:
        return int(first_keys[i]) if i < n else NO_KEY

    blocks[0].forecast = tuple(key_of(j) for j in range(n_disks))
    for i in range(1, n):
        blocks[i].forecast = (key_of(i + n_disks),)
    return blocks


def write_run(system, keys, run_id: int, start_disk: int, payloads=None) -> StripedRun:
    """Write sorted *keys* (and aligned *payloads*) as one forecast run."""
    writer = RunWriter(system, run_id, start_disk)
    writer.append(keys, payloads)
    return writer.finalize()


def merge_loop_heapq(
    sched, writer, block_data, runs, system, validate,
    eng=None, telemetry=None,
) -> int:
    """Heap-driven merge loop; a drop-in for either data-plane loop.

    It records one ``merge.drain_batch`` observation per key-range
    cycle, as the engine-paced loop does.
    """
    job = sched.job
    R = job.n_runs
    offsets = [0] * R
    heap: list[tuple[int, int]] = [
        (int(job.first_keys[r][0]), r) for r in range(R)
    ]
    heapq.heapify(heap)
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))

    heap_cycles = 0
    while heap:
        heap_cycles += 1
        key, r = heapq.heappop(heap)
        limit = heap[0][0] if heap else None
        b = sched.leading[r]
        sched.ensure_resident(r, b)
        if eng is not None:
            eng.wait_for(r, b)
        data, pay = block_data[(r, b)]
        off = offsets[r]
        if validate and int(data[off]) != key:
            raise ScheduleError(
                f"merge heap desync: expected key {key}, found {int(data[off])}"
            )
        if limit is None:
            hi = data.size
        else:
            hi = int(np.searchsorted(data, limit, side="left"))
            if hi <= off:
                # Duplicate keys across runs (key == limit): consume the
                # whole equal-key prefix in one step, since the heap's
                # run-index tie-break hands the turn straight back.
                hi = int(np.searchsorted(data, key, side="right"))
        writer.append(data[off:hi], None if pay is None else pay[off:hi])
        h_batch.observe(hi - off)
        if eng is not None:
            eng.compute([hi - off])

        if hi == data.size:
            del block_data[(r, b)]
            system.free(runs[r].addresses[b])
            sched.on_leading_depleted(r)
            offsets[r] = 0
            if not sched.run_exhausted(r):
                nb = sched.leading[r]
                if sched.is_resident(r, nb):
                    nxt = int(block_data[(r, nb)][0][0])
                else:
                    # Forecast knowledge: min_i H_i[r] is the first key
                    # of the run's earliest on-disk (= leading) block.
                    fk = sched.fds.next_block_key_of_run(r)
                    if fk == NO_KEY or math.isinf(fk):
                        raise ScheduleError(
                            f"run {r} not exhausted but FDS sees no block"
                        )
                    nxt = int(fk)
                heapq.heappush(heap, (nxt, r))
        else:
            offsets[r] = hi
            heapq.heappush(heap, (int(data[hi]), r))

        if eng is not None:
            eng.pump(sched)
    tel.counter(MERGE_DRAIN_CYCLES).inc(heap_cycles)
    return heap_cycles


@contextmanager
def heapq_merge():
    """Run every ``merge_runs`` inside the block on :func:`merge_loop_heapq`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge_mod, "merge_loop_batched", merge_loop_heapq)
        mp.setattr(merge_mod, "merge_loop_cycles", merge_loop_heapq)
        yield


def replacement_selection_record(
    system,
    infile,
    memory_records: int,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng=None,
    first_run_id: int = 0,
    free_input: bool = True,
) -> list[StripedRun]:
    """The textbook per-record replacement-selection loop."""
    if infile.n_records == 0:
        return []
    disk_stream = _start_disk_stream(system.n_disks, strategy, rng)
    refill = _chunk_reader(system, infile, free_input)
    buf = refill()
    buf_pos = 0
    has_payloads = buf is not None and buf[1] is not None

    def next_record() -> tuple[int, int] | None:
        nonlocal buf, buf_pos
        if buf is None:
            return None
        if buf_pos >= buf[0].size:
            buf = refill()
            buf_pos = 0
            if buf is None:
                return None
        keys, pays = buf
        v = int(keys[buf_pos])
        p = int(pays[buf_pos]) if pays is not None else 0
        buf_pos += 1
        return v, p

    # Heap of (epoch, key, arrival-sequence, payload); the sequence
    # breaks (epoch, key) ties FIFO.
    heap: list[tuple[int, int, int, int]] = []
    seq = 0
    while len(heap) < memory_records:
        rec = next_record()
        if rec is None:
            break
        heap.append((0, rec[0], seq, rec[1]))
        seq += 1
    heapq.heapify(heap)

    runs: list[StripedRun] = []
    run_id = first_run_id
    current_epoch = 0
    out: list[int] = []
    out_pay: list[int] = []

    def close_run() -> None:
        nonlocal out, out_pay, run_id
        if not out:
            return
        runs.append(
            write_run(
                system,
                np.asarray(out, dtype=np.int64),
                run_id,
                next(disk_stream),
                np.asarray(out_pay, dtype=np.int64) if has_payloads else None,
            )
        )
        run_id += 1
        out = []
        out_pay = []

    while heap:
        epoch, key, _, payload = heapq.heappop(heap)
        if epoch != current_epoch:
            close_run()
            current_epoch = epoch
        out.append(key)
        out_pay.append(payload)
        rec = next_record()
        if rec is not None:
            v, p = rec
            heapq.heappush(
                heap, (current_epoch if v >= key else current_epoch + 1, v, seq, p)
            )
            seq += 1
    close_run()
    return runs
