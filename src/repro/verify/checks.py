"""Verification utilities: sortedness, permutation, on-disk format checks."""

from __future__ import annotations

import numpy as np

from ..disks.block import NO_KEY
from ..disks.files import StripedFile, StripedRun
from ..disks.system import ParallelDiskSystem
from ..errors import DataError


def is_sorted(keys: np.ndarray) -> bool:
    """True if *keys* is non-decreasing."""
    keys = np.asarray(keys)
    return bool(np.all(keys[:-1] <= keys[1:]))


def is_permutation_of(a: np.ndarray, b: np.ndarray) -> bool:
    """True if *a* and *b* hold the same multiset of keys."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size != b.size:
        return False
    return bool(np.array_equal(np.sort(a), np.sort(b)))


def assert_sorted_permutation(output: np.ndarray, original: np.ndarray) -> None:
    """Raise :class:`DataError` unless *output* is sorted(*original*)."""
    if not is_sorted(output):
        raise DataError("output is not sorted")
    if not is_permutation_of(output, original):
        raise DataError("output is not a permutation of the input")


def check_striped_run(system: ParallelDiskSystem, run: StripedRun) -> None:
    """Validate a run's complete on-disk invariants (§3 and §4).

    Checks, raising :class:`DataError` on the first violation:

    * block ``i`` lives on disk ``(start_disk + i) mod D``;
    * keys are sorted within and across blocks;
    * the initial block implants ``k_{r,0..D-1}``, every later block
      implants ``k_{r,i+D}`` (``NO_KEY`` past the end);
    * the recorded first/last key metadata matches the block contents.

    On a degraded system (a disk died mid-sort), the cyclic-placement
    rule is waived for stripe positions whose disk is dead — those
    blocks were legally relocated onto survivors — while every other
    invariant still holds.
    """
    D = system.n_disks
    blocks = []
    for i, addr in enumerate(run.addresses):
        expect_disk = (run.start_disk + i) % D
        if addr.disk != expect_disk and expect_disk not in system.dead_disks:
            raise DataError(
                f"block {i} on disk {addr.disk}, cyclic rule requires {expect_disk}"
            )
        blocks.append(system.peek(addr))

    prev_last = None
    for i, blk in enumerate(blocks):
        if not is_sorted(blk.keys):
            raise DataError(f"block {i} keys are not sorted")
        if prev_last is not None and blk.first_key < prev_last:
            raise DataError(f"block {i} overlaps its predecessor")
        prev_last = blk.last_key
        if blk.first_key != int(run.first_keys[i]) or blk.last_key != int(
            run.last_keys[i]
        ):
            raise DataError(f"block {i} metadata does not match its contents")

    first_keys = [b.first_key for b in blocks]

    def key_of(j: int) -> float:
        return int(first_keys[j]) if j < len(blocks) else NO_KEY

    expect0 = tuple(key_of(j) for j in range(D))
    if blocks[0].forecast != expect0:
        raise DataError(
            f"initial block forecast {blocks[0].forecast} != expected {expect0}"
        )
    for i in range(1, len(blocks)):
        expect = (key_of(i + D),)
        if blocks[i].forecast != expect:
            raise DataError(
                f"block {i} forecast {blocks[i].forecast} != expected {expect}"
            )

    total = sum(len(b) for b in blocks)
    if total != run.n_records:
        raise DataError(
            f"run holds {total} records, metadata claims {run.n_records}"
        )


def audit_checksums(system: ParallelDiskSystem) -> dict:
    """Verify every stored block's seal without charging I/O.

    The read-only half of :func:`repro.faults.degraded.scrub_and_repair`
    — a verification aid for tests and the chaos harness.  Returns
    ``{"checked": n, "sealed": n, "stale": [(disk, slot), ...]}``;
    ``stale`` lists blocks whose bytes no longer match their checksum
    (torn writes that nothing has re-read yet).  Unsealed blocks verify
    trivially and are excluded from ``sealed``.
    """
    checked = sealed = 0
    stale: list[tuple[int, int]] = []
    for d, disk in enumerate(system.disks):
        if d in system.dead_disks:
            continue
        for slot, blk in sorted(disk._slots.items()):
            checked += 1
            if blk.checksum is not None:
                sealed += 1
                if not blk.verify():
                    stale.append((d, slot))
    return {"checked": checked, "sealed": sealed, "stale": stale}


def check_superblock_run(system: ParallelDiskSystem, run: StripedFile) -> None:
    """Validate a DSM run's on-disk invariants.

    Checks that block ``j`` lives on disk ``j mod D`` — so superblock
    ``s`` is slot-synchronized across disks ``0..D-1``, the "logical
    single disk" layout — that keys are sorted within and across
    blocks, and that the record count matches.  On a degraded system,
    blocks whose expected disk is dead are exempt from the placement
    rule (they were relocated).
    """
    D = system.n_disks
    total = 0
    prev_last = None
    for j, addr in enumerate(run.addresses):
        s, want = divmod(j, D)
        if addr.disk != want and want not in system.dead_disks:
            raise DataError(
                f"superblock {s}: block {j} on disk {addr.disk}, expected {want}"
            )
        blk = system.peek(addr)
        if not is_sorted(blk.keys):
            raise DataError(f"superblock {s} holds an unsorted block")
        if prev_last is not None and blk.first_key < prev_last:
            raise DataError(f"superblock {s} overlaps its predecessor")
        prev_last = blk.last_key
        total += len(blk)
    if total != run.n_records:
        raise DataError(
            f"run holds {total} records, metadata claims {run.n_records}"
        )
