"""The unit of transfer: a block of ``B`` contiguous records.

In the Vitter–Shriver D-disk model every I/O moves whole blocks.  For SRM
(paper §4) blocks additionally carry *implanted forecasting keys*:

* the initial block ``b_{r,0}`` of run ``r`` carries the smallest keys
  ``k_{r,0} .. k_{r,D-1}`` of the first ``D`` blocks of the run;
* block ``b_{r,i}`` (``i > 0``) carries the single key ``k_{r,i+D}`` —
  the smallest key of the *next* block of run ``r`` that lives on the
  same disk (cyclic striping places blocks ``i`` and ``i+D`` together).

The forecast payload is a handful of key values, so — as the paper notes
— the space overhead is negligible; we store it out-of-band on the block
object rather than stealing record slots.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import DataError

#: Sentinel forecast key meaning "run has no further block on this disk".
#: Any real key compares smaller, so exhausted chains sort last in the
#: forecasting structure.
NO_KEY: float = float("inf")


@dataclass(slots=True)
class Block:
    """A block of records plus SRM forecasting metadata.

    Parameters
    ----------
    keys:
        The record keys in this block, sorted ascending (sorted-run
        blocks) — at most ``B`` of them.  Records are modelled as their
        int64 keys; every algorithm in the paper depends only on the
        relative order of keys.
    run_id:
        Identifier of the run this block belongs to (or ``-1`` for
        blocks of an unsorted input file).
    index:
        Position of this block within its run (0-based).
    forecast:
        Implanted forecast key(s).  ``()`` for unsorted-file blocks,
        a length-``D`` tuple for a run's initial block, and a length-1
        tuple for every later block (``NO_KEY`` entries mark exhausted
        chains).
    payloads:
        Optional per-record payload handles (int64, aligned with
        ``keys``).  Payloads ride along with their keys through every
        algorithm; the scheduling never inspects them.
    checksum:
        Optional CRC-32 of the block's record bytes, sealed at write
        time when fault injection is active so corrupted transfers are
        detected on read rather than silently merged.  ``None`` means
        unsealed (the fault-free default; verification is skipped).
    """

    keys: np.ndarray
    run_id: int = -1
    index: int = 0
    forecast: tuple[float, ...] = field(default=())
    payloads: np.ndarray | None = None
    checksum: int | None = None

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys, dtype=np.int64)
        if self.keys.ndim != 1:
            raise DataError(f"block keys must be 1-D, got shape {self.keys.shape}")
        if self.keys.size == 0:
            raise DataError("a block must contain at least one record")
        if self.payloads is not None:
            self.payloads = np.asarray(self.payloads, dtype=np.int64)
            if self.payloads.shape != self.keys.shape:
                raise DataError(
                    f"payloads shape {self.payloads.shape} does not match "
                    f"keys shape {self.keys.shape}"
                )

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def first_key(self) -> int:
        """Smallest key in the block (``k_{r,i}`` in the paper)."""
        return int(self.keys[0])

    @property
    def last_key(self) -> int:
        """Largest key in the block."""
        return int(self.keys[-1])

    # -- integrity --------------------------------------------------------

    def compute_checksum(self) -> int:
        """CRC-32 over the record bytes (keys, then payloads if any).

        ``zlib.crc32`` consumes the arrays themselves through the buffer
        protocol — no ``tobytes()`` copy per sealed block; only a
        non-contiguous array (never produced by the pipeline, but legal
        input) pays for the contiguous staging copy that
        ``np.ascontiguousarray`` makes of it.
        """
        crc = zlib.crc32(np.ascontiguousarray(self.keys))
        if self.payloads is not None:
            crc = zlib.crc32(np.ascontiguousarray(self.payloads), crc)
        return crc

    def seal(self) -> "Block":
        """Stamp the block with its current checksum; returns ``self``."""
        self.checksum = self.compute_checksum()
        return self

    def verify(self) -> bool:
        """True if the contents match the sealed checksum.

        Unsealed blocks (``checksum is None``) verify trivially — the
        fault-free pipeline never pays for hashing.
        """
        return self.checksum is None or self.compute_checksum() == self.checksum


def xor_accumulate(acc: np.ndarray | None, arr: np.ndarray) -> np.ndarray:
    """XOR the int64 array *arr* into the parity accumulator *acc*.

    Arrays of different lengths (partial run-tail blocks) are combined
    as if zero-padded to the longer one, which is how a RAID-5 arm
    folds a short member into a full-width parity stripe.  *acc* is
    updated in place and returned, unless it is shorter than *arr*:
    then a zero-padded copy grows to hold it.  ``acc=None`` starts a
    new accumulator as a copy of *arr*, so an accumulator never aliases
    its caller's block and *arr* is never mutated.
    """
    if acc is None:
        return arr.copy()
    n = arr.size
    if n > acc.size:
        grown = np.zeros(n, dtype=np.int64)
        grown[: acc.size] = acc
        acc = grown
    head = acc if n == acc.size else acc[:n]
    np.bitwise_xor(head, arr, out=head)
    return acc


def split_into_blocks(
    keys: np.ndarray,
    block_size: int,
    run_id: int = -1,
    payloads: np.ndarray | None = None,
) -> list[Block]:
    """Cut a key array (and aligned payloads) into ``block_size`` blocks.

    The final block may be partial.  No forecast keys are attached:
    :class:`~repro.core.writer.RunWriter` writes forecast-format runs.
    """
    if block_size < 1:
        raise DataError(f"block_size must be >= 1, got {block_size}")
    keys = np.asarray(keys, dtype=np.int64)
    if payloads is not None:
        payloads = np.asarray(payloads, dtype=np.int64)
        if payloads.shape != keys.shape:
            raise DataError("payloads must align with keys")
    if keys.size == 0:
        return []
    return [
        Block(
            keys=keys[i : i + block_size],
            run_id=run_id,
            index=i // block_size,
            payloads=None if payloads is None else payloads[i : i + block_size],
        )
        for i in range(0, keys.size, block_size)
    ]
