"""Streaming output-run writer with perfect write parallelism (§5.1).

The merger appends sorted record slices; the writer cuts them into
blocks of ``B``, implants forecast keys, and emits full ``D``-block
stripes as single parallel writes.  SRM's output buffer ``M_W`` holds
``2D`` blocks because stripe ``j`` can only be written once stripe
``j+1``'s block first-keys are known (block ``i`` implants the key of
block ``i + D``).  The writer enforces exactly that discipline and
records its buffer high-water mark so tests can verify the ``2D`` bound.

Buffering is a preallocated ring of ``2 x (2·D·B)`` record frames — the
``M_W`` window plus one spare window, so an append can land while two
stripes are still materializing.  The read head only ever advances by
whole ``D·B``-record stripes and the capacity is a multiple of that
stride, so the current stripe and its lookahead are always *contiguous*
views into the ring.  Draining a stripe copies it out of the ring once;
its ``D`` blocks are contiguous views of that copy, and their first and
last keys and forecasts come from strided slices of it.

Records may carry payloads: internally the ring is a 2-row matrix
(keys; payloads) so both columns flow through identical slicing.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..disks.block import NO_KEY, Block
from ..disks.files import StripedRun
from ..disks.striping import cyclic_disk
from ..disks.system import ParallelDiskSystem
from ..errors import DataError, ScheduleError
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import H_WRITER_OCCUPANCY, writer_occupancy_edges


class RunWriter:
    """Accumulates merge output and writes a forecast-format striped run."""

    def __init__(
        self,
        system: ParallelDiskSystem,
        run_id: int,
        start_disk: int,
        on_write: Optional[Callable[[list[int]], None]] = None,
        telemetry=None,
    ) -> None:
        if not 0 <= start_disk < system.n_disks:
            raise DataError(
                f"start disk {start_disk} out of range for D={system.n_disks}"
            )
        self.system = system
        self.run_id = run_id
        self.start_disk = start_disk
        #: Callback invoked after every parallel write with the disks
        #: written (the overlap engine's write-behind hook).
        self.on_write = on_write
        D, B = system.n_disks, system.block_size
        self._stripe = D * B
        #: Ring capacity: two M_W windows of 2·D·B records each.
        self._cap = 4 * D * B
        #: Ring storage, allocated on first append once the row count
        #: (keys only, or keys + payloads) is known.
        self._buf: np.ndarray | None = None
        self._rows: int | None = None
        self._head = 0  # read position; always a multiple of D·B
        self._pending = 0
        self._next_block = 0
        self._addresses: list = []
        self._first_keys: list[int] = []
        self._last_keys: list[int] = []
        self._n_records = 0
        self._finalized = False
        #: High-water mark of buffered blocks (must stay <= 2D = |M_W|).
        self.max_buffered_blocks = 0
        self._last_appended: int | None = None
        tel = telemetry if telemetry is not None else TELEMETRY_OFF
        self._h_occupancy = tel.histogram(
            H_WRITER_OCCUPANCY, writer_occupancy_edges(D)
        )

    @property
    def records_to_next_write(self) -> int:
        """Records the next appends may add before a stripe is written.

        After that many, a stripe is written every ``D·B`` records.
        """
        return 2 * self._stripe - self._pending

    # -- ingest ----------------------------------------------------------

    def append(self, keys: np.ndarray, payloads: np.ndarray | None = None) -> None:
        """Append a sorted slice of output records (with optional payloads)."""
        if self._finalized:
            raise ScheduleError("append after finalize")
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        if self._last_appended is not None and keys[0] < self._last_appended:
            raise DataError("output records appended out of order")
        if (keys[1:] < keys[:-1]).any():
            raise DataError("appended slice is not sorted")
        rows = 1 if payloads is None else 2
        if self._rows is None:
            self._rows = rows
            self._buf = np.empty((rows, self._cap), dtype=np.int64)
        elif self._rows != rows:
            raise DataError("payload presence must be consistent across appends")
        if payloads is not None:
            payloads = np.asarray(payloads, dtype=np.int64)
            if payloads.shape != keys.shape:
                raise DataError("payloads must align with keys")
        self._last_appended = int(keys[-1])
        self._n_records += keys.size

        buf = self._buf
        cap = self._cap
        window = 2 * self._stripe
        pos = 0
        n = keys.size
        B = self.system.block_size
        while pos < n:
            # Invariant on entry: _pending < 2·D·B, so at least one M_W
            # window of the ring is free.
            take = min(n - pos, cap - self._pending)
            tail = (self._head + self._pending) % cap
            first = min(take, cap - tail)
            buf[0, tail : tail + first] = keys[pos : pos + first]
            if payloads is not None:
                buf[1, tail : tail + first] = payloads[pos : pos + first]
            if take > first:
                wrap = take - first
                buf[0, :wrap] = keys[pos + first : pos + take]
                if payloads is not None:
                    buf[1, :wrap] = payloads[pos + first : pos + take]
            self._pending += take
            pos += take
            # Drain: stripe j is writable once stripes j and j+1 are both
            # fully materialized (2·D·B buffered records).
            while self._pending >= window:
                self._drain_stripe()
        # High-water is measured after draining: a stripe is written the
        # instant it becomes writable, so M_W never holds more than 2D
        # blocks at rest.
        self.max_buffered_blocks = max(self.max_buffered_blocks, -(-self._pending // B))

    def _drain_stripe(self) -> None:
        """Write the stripe at the ring head; the next one gives its forecasts."""
        stride = self._stripe
        B = self.system.block_size
        self._h_occupancy.observe(-(-self._pending // B))
        h = self._head
        la = (h + stride) % self._cap
        # Copy out of the ring: the frames are reused by later appends,
        # but the written blocks live on disk indefinitely.
        ahead = self._buf[0, la : la + stride : B].tolist()
        self._write_stripe(self._buf[:, h : h + stride].copy(), ahead)
        self._head = la
        self._pending -= stride

    # -- emit ----------------------------------------------------------------

    def _emit(self, writes: list) -> None:
        """Perform one parallel write and fire the ``on_write`` hook.

        On a fault-armed system ``write_stripe`` runs each block through
        the write retry ladder (transient write failures, torn writes,
        breaker escalation) and may append separately-charged parity
        rounds; the writer itself never needs to know — the addresses it
        allocated stay valid through any relocation.
        """
        disks = self.system.write_stripe(writes)
        if self.on_write is not None:
            # write_stripe reports the *physical* disks written (they
            # differ from the allocated addresses in degraded mode).
            self.on_write(disks)

    def _write_stripe(self, data: np.ndarray, ahead: list[int]) -> None:
        """Write the next (up to ``D``) blocks as one parallel write.

        *data* is an owned ``(rows, n)`` matrix with ``n <= D·B``; each
        block is a contiguous view of it, the last possibly partial.
        *ahead* holds the first keys of the ``D`` blocks that follow
        (``NO_KEY`` past the run's end): block ``i`` implants the key
        of block ``i + D``, and the initial block the keys of blocks
        ``0..D-1``.
        """
        D, B = self.system.n_disks, self.system.block_size
        keys = data[0]
        pays = data[1] if data.shape[0] == 2 else None
        firsts = keys[::B].tolist()
        lasts = keys[B - 1 :: B].tolist()
        if keys.size % B:
            lasts.append(int(keys[-1]))
        writes = []
        for m in range(len(firsts)):
            index = self._next_block + m
            if index == 0:
                fc = tuple(firsts + [NO_KEY] * (D - len(firsts)))
            else:
                fc = (ahead[m],)
            addr = self.system.allocate(cyclic_disk(self.start_disk, index, D))
            self._addresses.append(addr)
            lo = m * B
            block = Block(
                keys=keys[lo : lo + B],
                run_id=self.run_id,
                index=index,
                forecast=fc,
                payloads=pays[lo : lo + B] if pays is not None else None,
            )
            writes.append((addr, block))
        self._first_keys.extend(firsts)
        self._last_keys.extend(lasts)
        self._next_block += len(firsts)
        self._emit(writes)

    def finalize(self) -> StripedRun:
        """Flush remaining buffered blocks and return the finished run."""
        if self._finalized:
            raise ScheduleError("finalize called twice")
        self._finalized = True
        if self._n_records == 0:
            raise DataError("cannot finalize an empty run")
        D, B = self.system.n_disks, self.system.block_size
        # Linearize the ring tail (at most one wrap) into one matrix.
        if self._buf is None or self._pending == 0:
            tail = np.empty((self._rows or 1, 0), dtype=np.int64)
        else:
            h, cap, pend = self._head, self._cap, self._pending
            first = min(pend, cap - h)
            if first == pend:
                tail = self._buf[:, h : h + pend]
            else:
                tail = np.concatenate(
                    [self._buf[:, h:cap], self._buf[:, : pend - first]], axis=1
                )
        self._pending = 0
        # Remaining blocks, the last possibly partial, in stripes of D.
        n = tail.shape[1]
        if n:
            self._h_occupancy.observe(-(-n // B))
        stride = D * B
        for lo in range(0, n, stride):
            ahead = tail[0, lo + stride : lo + 2 * stride : B].tolist()
            ahead += [NO_KEY] * (D - len(ahead))
            self._write_stripe(tail[:, lo : lo + stride].copy(), ahead)
        self._buf = None
        return StripedRun(
            run_id=self.run_id,
            start_disk=self.start_disk,
            addresses=self._addresses,
            n_records=self._n_records,
            block_size=B,
            first_keys=np.asarray(self._first_keys, dtype=np.int64),
            last_keys=np.asarray(self._last_keys, dtype=np.int64),
        )
