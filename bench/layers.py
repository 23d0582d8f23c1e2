"""Outside-in per-layer wall time of a traced sort.

The benchmark's own wrappers replace the public functions and methods
of each layer for the duration of one sort.  Each wrapped call's
inclusive time, less the inclusive time of the wrapped calls it made,
adds to its layer's self time, and each call to its layer's call
count.  Nothing in the package under test knows it is being timed, and
every original is put back afterwards.

A wrapper costs time of its own, and self times are corrected for it.
Part of the cost lands inside the wrapped call's own timing window (and
so in the callee's self time), the rest outside it (in the caller's).
The inside part is calibrated on an empty function.  The whole cost is
measured in situ by a separate calibration sort in which every target
is wrapped twice: the outer *probe* wrapper's self time is exactly one
inner wrapper's cost, with the sort's real arguments and cache state,
which an empty-function loop underestimates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: ``(layer, "module" or "module:Class", attribute names)``.  Private
#: helpers are not wrapped: their time folds into the public caller.
#: Run formation and the merge are wrapped where ``core.mergesort``
#: looks them up, and the loser-tree drains where the merge does.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    (
        "core.run_formation",
        "repro.core.mergesort",
        ("form_runs_load_sort", "form_runs_replacement_selection"),
    ),
    ("core.merge", "repro.core.mergesort", ("merge_runs",)),
    ("core.losertree", "repro.core.merge", ("merge_loop_batched", "merge_loop_cycles")),
    (
        "core.schedule",
        "repro.core.schedule:MergeScheduler",
        ("initial_load", "ensure_resident", "maybe_prefetch", "on_leading_depleted"),
    ),
    (
        "core.events",
        "repro.core.events:OverlapEngine",
        ("on_parread", "on_flush", "on_write", "compute", "wait_for", "pump", "finish"),
    ),
    ("core.writer", "repro.core.writer:RunWriter", ("append", "finalize")),
    (
        "disks.system",
        "repro.disks.system:ParallelDiskSystem",
        ("read_stripe", "write_stripe", "charge_read_stripe", "allocate", "free"),
    ),
    ("disks.backends", "repro.disks.disk:Disk", ("read", "write", "free")),
    ("disks.block", "repro.disks.block:Block", ("compute_checksum",)),
    (
        "faults",
        "repro.faults.parity:ParityStore",
        (
            "add_block",
            "repick_parity_disk",
            "drain_pending",
            "note_parity_written",
            "seal_for_recovery",
            "note_free",
            "entry_for",
            "reconstruct_member",
            "rebuild_parity_block",
            "repair_in_place",
        ),
    ),
    ("faults", "repro.faults.degraded", ("scrub_addresses",)),
    ("telemetry.trace", "repro.telemetry.trace:TraceCollector", ("add",)),
)

#: Layer names in report order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

#: The timer slot of the outer probe wrappers.
PROBE = "probe"

#: Deepest nesting of wrapped calls the timer supports.
MAX_DEPTH = 256


def resolve_owner(path: str):
    """The module or class named by ``"module"`` / ``"module:Class"``."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def wrap_targets():
    """Every ``(layer, owner, name, original)`` the tracer replaces."""
    out = []
    for layer, path, names in LAYERS:
        owner = resolve_owner(path)
        for name in names:
            # Read the namespace, not getattr, so the exact object put
            # back is the one that was there.
            out.append((layer, owner, name, vars(owner)[name]))
    return out


class _Stat:
    __slots__ = ("self_s", "calls", "child_calls")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.child_calls = 0


class LayerTimer:
    """Self time and calls per layer, fed by wrappers.

    With ``probe=True`` :func:`traced` wraps every target a second time
    from outside, into the :data:`PROBE` slot, to measure wrapper cost.
    """

    def __init__(self, layers=LAYER_NAMES, probe: bool = False) -> None:
        self.probe = probe
        self.stats = {layer: _Stat() for layer in layers + (PROBE,)}
        # Per open wrapped call, by nesting level: time and count of
        # its wrapped children.  Level 0 collects calls made from
        # unwrapped code.  Preallocated, so a call allocates no
        # container for the garbage collector to track.
        self._child_s = [0.0] * MAX_DEPTH
        self._child_n = [0] * MAX_DEPTH
        self._level = [0]

    def wrap(self, layer: str, fn):
        """*fn* behind a timing wrapper that reports into *layer*."""
        params, args, defaults = _forwarding(fn)
        namespace = {
            "_lt_fn": fn,
            "_lt_stat": self.stats[layer],
            "_lt_child_s": self._child_s,
            "_lt_child_n": self._child_n,
            "_lt_level": self._level,
            "_lt_clock": time.perf_counter,
            **defaults,
        }
        exec(_WRAPPER.format(params=params, args=args), namespace)
        return functools.update_wrapper(namespace["timed"], fn)


# The wrapper is generated with the target's own parameter list, so it
# forwards an ordinary Python call: about 40 % cheaper per call than
# ``*args, **kwargs``, and every saved nanosecond is one the correction
# need not estimate.
_WRAPPER = """\
def timed{params}:
    _lt_d = _lt_level[0] + 1
    _lt_level[0] = _lt_d
    _lt_child_s[_lt_d] = 0.0
    _lt_child_n[_lt_d] = 0
    _lt_t0 = _lt_clock()
    try:
        return _lt_fn({args})
    finally:
        _lt_dt = _lt_clock() - _lt_t0
        _lt_level[0] = _lt_d - 1
        _lt_stat.self_s += _lt_dt - _lt_child_s[_lt_d]
        _lt_stat.calls += 1
        _lt_stat.child_calls += _lt_child_n[_lt_d]
        _lt_child_s[_lt_d - 1] += _lt_dt
        _lt_child_n[_lt_d - 1] += 1
"""


class _Ref(str):
    """A default value's name, printed bare in a generated signature."""

    __repr__ = str.__str__


def _forwarding(fn) -> tuple[str, str, dict]:
    """``(parameter list, call arguments, defaults)`` mirroring *fn*."""
    sig = inspect.signature(fn)
    params, args, defaults = [], [], {}
    for i, p in enumerate(sig.parameters.values()):
        if p.name.startswith("_lt_"):
            raise ValueError(f"{fn.__qualname__}: parameter {p.name} clashes with the wrapper")
        if p.default is not p.empty:
            defaults[f"_lt_default{i}"] = p.default
            p = p.replace(default=_Ref(f"_lt_default{i}"))
        params.append(p.replace(annotation=p.empty))
        args.append({
            p.VAR_POSITIONAL: f"*{p.name}",
            p.KEYWORD_ONLY: f"{p.name}={p.name}",
            p.VAR_KEYWORD: f"**{p.name}",
        }.get(p.kind, p.name))
    text = str(sig.replace(parameters=params, return_annotation=sig.empty))
    return text, ", ".join(args), defaults


@contextmanager
def traced(timer: LayerTimer):
    """Wrap every layer target for *timer*; restore the originals on exit."""
    targets = wrap_targets()
    try:
        for layer, owner, name, original in targets:
            fn = timer.wrap(layer, original)
            setattr(owner, name, timer.wrap(PROBE, fn) if timer.probe else fn)
        yield timer
    finally:
        for _, owner, name, original in targets:
            setattr(owner, name, original)


def calibrate_inner(n: int = 100_000, repeats: int = 5) -> float:
    """Seconds per call a wrapper adds inside its own timing window.

    Measured on an empty two-argument function: the wrapped function's
    self time minus what the bare call costs.
    """

    def empty(a, b):
        return None

    inner = []
    for _ in range(repeats):
        timer = LayerTimer(())
        fn = timer.wrap(PROBE, empty)
        t0 = time.perf_counter()
        for _ in range(n):
            empty(1, 2)
        bare = time.perf_counter() - t0
        for _ in range(n):
            fn(1, 2)
        inner.append(timer.stats[PROBE].self_s - bare)
    return max(0.0, statistics.median(inner) / n)


@dataclass(frozen=True)
class WrapperCost:
    """Per-call wrapper cost, in seconds, split by where it lands."""

    inner_s: float  # inside the wrapped call's window: callee self time
    outer_s: float  # outside it: caller self time


def wrapper_cost(probed: LayerTimer, inner_s: float) -> WrapperCost:
    """The in-situ cost of one wrapper, from a probed sort's probe self time."""
    probe = probed.stats[PROBE]
    total = probe.self_s / probe.calls if probe.calls else 0.0
    inner = min(inner_s, total)
    return WrapperCost(inner_s=inner, outer_s=total - inner)


def corrected_self(timer: LayerTimer, cost: WrapperCost) -> dict[str, float]:
    """Each layer's self time less the wrapper cost it absorbed."""
    return {
        layer: max(0.0, s.self_s - s.calls * cost.inner_s - s.child_calls * cost.outer_s)
        for layer, s in timer.stats.items()
        if layer != PROBE
    }


def layer_metrics(
    traced: list[tuple[float, LayerTimer]], cost: WrapperCost, untraced_s: float
) -> dict[str, float]:
    """Per-layer ``self_s``/``share``/``calls`` and the three checks.

    *traced* holds ``(wall seconds, timer)`` per traced sort.  Layer
    values come from the traced sort of median wall time: ``self_s`` is
    corrected for wrapper cost, ``share`` is that over the corrected
    traced wall time, and ``layers.residual_frac`` is the traced time no
    layer claims.  ``layers.overhead_frac`` (the tracing slowdown) and
    ``layers.unexplained_frac`` (how far the corrected self times miss
    the untraced median) compare medians over all traced sorts, so one
    sort slowed by the host does not decide them.
    """
    traced = sorted(traced, key=lambda p: p[0])
    traced_s, timer = traced[(len(traced) - 1) // 2]
    stats = timer.stats
    corrected = corrected_self(timer, cost)
    wrapped_calls = sum(s.calls for s in stats.values())
    corrected_total = traced_s - wrapped_calls * (cost.inner_s + cost.outer_s)
    out: dict[str, float] = {}
    for layer, value in corrected.items():
        out[f"{layer}.self_s"] = value
        out[f"{layer}.share"] = value / corrected_total
        out[f"{layer}.calls"] = stats[layer].calls
    explained = statistics.median(sum(corrected_self(t, cost).values()) for _, t in traced)
    out["layers.residual_frac"] = (traced_s - sum(s.self_s for s in stats.values())) / traced_s
    out["layers.overhead_frac"] = statistics.median(s for s, _ in traced) / untraced_s - 1.0
    out["layers.unexplained_frac"] = abs(explained - untraced_s) / untraced_s
    return out
