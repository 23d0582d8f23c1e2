"""Round-steppable execution of one sort job on a shared disk system.

The SRM driver (:func:`~repro.core.sort_records_on_system`) is a deep
recursive pipeline — run formation, merge passes, forecasting — with no
natural yield points.  Rather than invert it into a coroutine, the
service runs each job's driver on a parked worker thread and gates it
through ``ParallelDiskSystem.round_hook``: the hook fires immediately
before every *charged* stripe operation, and the gate blocks there
until the executor grants the job its next scheduling quantum.

Strictly one thread runs at a time — the executor blocks inside
:meth:`RoundGate.grant` until the job parks again — so the shared
system sees exactly the serial op sequence a solo run would issue, just
interleaved with other jobs' rounds.  Determinism is preserved by
construction: no two drivers ever touch the system concurrently.
"""

from __future__ import annotations

import threading

from ..core.mergesort import sort_records_on_system
from ..disks.system import ParallelDiskSystem
from ..errors import ReproError
from .jobs import JobSpec


class JobAborted(ReproError):
    """Raised inside a job's driver thread when the service cancels it."""


class RoundGate:
    """Two-event handshake serializing a driver thread with the executor.

    ``_parked`` is set while the job thread is blocked waiting for its
    turn (or finished); ``_turn`` is set while the job owns the system.
    The executor's :meth:`grant` releases the thread for exactly one
    round and returns only once it has parked again, so at any instant
    at most one of the two sides is running.
    """

    __slots__ = ("_turn", "_parked", "_cancelled")

    def __init__(self) -> None:
        self._turn = threading.Event()
        self._parked = threading.Event()
        self._cancelled = False

    # -- job-thread side ----------------------------------------------

    def wait_turn(self) -> None:
        """Park until the executor grants the next round.

        Installed as ``system.round_hook`` while this job is granted;
        also called explicitly as the driver thread's first action so
        input installation happens inside the first quantum.
        """
        self._parked.set()
        self._turn.wait()
        self._turn.clear()
        if self._cancelled:
            raise JobAborted("job cancelled by the service")

    # -- executor side ------------------------------------------------

    def grant(self) -> None:
        """Release the job for one round; block until it parks again."""
        self._parked.clear()
        self._turn.set()
        self._parked.wait()

    def cancel(self) -> None:
        """Abort the job: its next ``wait_turn`` raises :class:`JobAborted`.

        Blocks until the thread has unwound (the driver's ``finally``
        re-parks), so resource reclamation afterwards is race-free.
        """
        self._cancelled = True
        self.grant()


class JobDriver:
    """One job's sort pipeline on a daemon thread, stepped round by round.

    The thread's first action is ``gate.wait_turn()``, so nothing — not
    even uncharged input installation — touches the shared system until
    the executor grants the first quantum.  The sort's telemetry is kept
    off (``telemetry=None``): spans from interleaved jobs would nest
    meaninglessly; the service layer emits its own spans instead.
    """

    def __init__(self, system: ParallelDiskSystem, spec: JobSpec) -> None:
        self.system = system
        self.spec = spec
        self.gate = RoundGate()
        self.done = False
        self.aborted = False
        self.error: BaseException | None = None
        self.result = None
        self.sorted_keys = None
        self._thread = threading.Thread(
            target=self._run, name=f"sort-job-{spec.job_id}", daemon=True
        )

    def start(self) -> None:
        """Launch the thread; returns once it is parked before round 1."""
        self._thread.start()
        self.gate._parked.wait()

    def step(self) -> bool:
        """Grant one scheduling quantum; True once the job has finished.

        The quantum spans from the previous park point up to (and
        including) the next charged stripe operation plus any compute
        that follows it — or to pipeline completion.
        """
        self.gate.grant()
        return self.done

    def cancel(self) -> None:
        """Cancel a parked, unfinished job and join its thread."""
        if self.done:
            return
        self.gate.cancel()
        self._thread.join()

    def join(self) -> None:
        self._thread.join()

    def _run(self) -> None:
        spec = self.spec
        try:
            self.gate.wait_turn()
            self.result = sort_records_on_system(
                self.system,
                spec.keys,
                spec.config,
                rng=spec.seed,
                validate=spec.validate,
                run_length=spec.run_length,
                formation=spec.formation,
                telemetry=None,
            )
            # Uncharged read-back inside the final quantum, while the
            # degraded-mode remap state still matches this job's blocks.
            self.sorted_keys = self.result.peek_sorted(self.system)
        except JobAborted:
            self.aborted = True
        except BaseException as exc:  # surfaced by the executor
            self.error = exc
        finally:
            self.done = True
            self._parked_final()

    def _parked_final(self) -> None:
        # Wake the executor blocked in grant(); the thread is exiting,
        # so "parked" is permanently true from here on.
        self.gate._parked.set()
