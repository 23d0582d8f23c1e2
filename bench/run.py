"""Run the canonical SRM benchmark.

Usage::

    python -m bench.run [--seed S] [--seconds T] [--sets K] [--smoke]
                        [--out FILE] [--compare BASE.json]
    python -m bench.run --workload NAME [--seed S] [--seconds T] [--trace 0|1]
                        [--smoke] [--out FILE] [--compare BASE.json]

Without ``--workload`` every workload runs in its own child process, one
at a time, and the combined results go to ``--out``.  With
``--workload`` one workload runs in this process: a warm-up sort, then
timed sorts for ``--seconds`` (at least three).  With ``--trace 1`` a
wrapper-cost calibration sort follows the warm-up, and each timed sort
is paired with one sort under the layer wrappers.  Every output is
checked.  The last line printed is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from . import ROOT, SRC
from .layers import LayerTimer, calibrate_inner, layer_metrics, traced, wrapper_cost

#: Timed sorts (or traced pairs) per run even when ``--seconds`` is shorter.
MIN_TIMED = 3
#: Set-up samples per run; set-up-only repeats make up any shortfall.
MIN_SETUPS = 10
#: ``--smoke`` divides every workload's record count by this, and
#: defaults the timed budget to ``SMOKE_SECONDS``.
SMOKE_SCALE = 20
SMOKE_SECONDS = 1.0
#: Seconds a child workload process may take before it is killed.
CHILD_TIMEOUT_S = 600
#: Failed over attempted sorts.  Reported with the end-to-end metrics
#: but not declared in ``BENCHMARK.json``, whose metrics are never 0.
SORT_FAILED_FRAC = {"unit": "fraction", "better": "lower"}


class WrongOutput(Exception):
    """A sort finished but its output is not the sorted input."""


@dataclass
class Outcome:
    setup_s: float
    sort_s: float
    exact: dict
    counts: dict


def sort_once(workload, inputs, seed, timer=None) -> Outcome:
    """Set up, sort and check once; *timer*'s wrappers are armed only
    around the sort."""
    setup_s, s = timed_setup(workload, inputs, seed)
    with s:
        # Every sort starts from the same collector state.
        gc.collect()
        with traced(timer) if timer is not None else contextlib.nullcontext():
            t1 = time.perf_counter()
            s.run()
            sort_s = time.perf_counter() - t1
        if not s.output_ok(inputs):
            raise WrongOutput(f"{workload.name}: output is not the sorted input")
        return Outcome(setup_s, sort_s, s.exact_metrics(), s.layer_counts())


def timed_setup(workload, inputs, seed):
    """``(seconds, Sort)``: one set-up, from a collected heap."""
    from .workloads import Sort

    gc.collect()
    t0 = time.perf_counter()
    s = Sort(workload, inputs, seed)
    return time.perf_counter() - t0, s


class Tally:
    """Attempted and failed sorts; a failure is logged, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args, **kwargs) -> Outcome | None:
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None


def _sampled(samples: list[float], value: float) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {
        "value": value,
        "n": len(samples),
        "p25": q1,
        "p75": q3,
        "min": min(samples),
        "max": max(samples),
        "samples": samples,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: int = 1) -> dict:
    """One workload in this process; returns its results entry."""
    from .workloads import WORKLOADS, make_inputs

    w = WORKLOADS[name]
    inputs = make_inputs(w, seed, scale)
    n = int(inputs.keys.size)
    tally = Tally()
    tally.attempt(sort_once, w, inputs, seed)  # warm-up
    probed = LayerTimer(probe=True) if trace else None
    if trace and tally.attempt(sort_once, w, inputs, seed, timer=probed) is None:
        probed = None
    timed: list[Outcome] = []
    traced: list[tuple[Outcome, LayerTimer]] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        t = time.perf_counter()
        out = tally.attempt(sort_once, w, inputs, seed)
        if out is not None:
            timed.append(out)
        if trace:
            # Traced sorts pair with untraced ones, so both see the
            # same stretch of host load.
            timer = LayerTimer()
            out = tally.attempt(sort_once, w, inputs, seed, timer=timer)
            if out is not None:
                traced.append((out, timer))
        now = time.perf_counter()
        # Start another round only if it should end within the budget.
        if rounds >= MIN_TIMED and now - start + (now - t) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    entry: dict = {"workload": name, "n": n, "timed_sorts": len(timed)}
    metrics: dict = {}
    drift = []
    every = timed + [o for o, _ in traced]
    if timed:
        walls = [o.sort_s for o in timed]
        # Traced sorts set up unwrapped, so their set-ups count too.
        setups = [o.setup_s for o in every]
        while len(setups) < MIN_SETUPS:
            setup_s, s = timed_setup(w, inputs, seed)
            s.close()
            setups.append(setup_s)
        untraced_s = statistics.median(walls)
        entry["samples"] = {"sort_s": walls, "setup_s": setups}
        metrics["records_per_s"] = _sampled([n / s for s in walls], n / untraced_s)
        metrics["setup_s"] = _sampled(setups, statistics.median(setups))
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "n": 1}
        for key, value in timed[0].exact.items():
            metrics[key] = {"value": value, "n": len(timed)}
            # Deterministic at a fixed seed, traced or not.
            if any(o.exact[key] != value for o in every):
                drift.append(key)
                print(f"{name}: {key} differs between repeats", file=sys.stderr)
    entry["metrics"] = metrics

    if timed and traced and probed is not None:
        cost = wrapper_cost(probed, calibrate_inner())
        layers = layer_metrics([(o.sort_s, t) for o, t in traced], cost, untraced_s)
        layers.update(traced[0][0].counts)
        entry["layers"] = layers
        entry["samples"]["traced_s"] = [o.sort_s for o, _ in traced]
        entry["wrapper_cost_s"] = asdict(cost)

    metrics["sort_failed_frac"] = {"value": tally.failed / tally.attempted, "n": tally.attempted}
    entry["attempted"] = tally.attempted
    entry["failed"] = tally.failed
    entry["correct"] = tally.failed == 0 and not drift
    return entry


def annotate(entry: dict, spec: dict) -> dict:
    """Give every metric of *entry* its declared unit (and direction)."""
    declared = _declared(spec)
    for name, m in entry["metrics"].items():
        d = declared.get(name, SORT_FAILED_FRAC)
        m.update(unit=d["unit"], better=d["better"])
    if "layers" in entry:
        entry["layers"] = {
            name: {"value": v, "unit": declared[name]["unit"]}
            for name, v in entry["layers"].items()
        }
    return entry


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_rev": _git("rev-parse", "HEAD"),
        # Uncommitted changes: the tree measured is not exactly git_rev.
        "git_dirty": bool(_git("status", "--porcelain")),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": SMOKE_SCALE if args.smoke else 1,
        "min_timed_sorts": MIN_TIMED,
        "min_setups": MIN_SETUPS,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _declared(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def final_line(entry: dict, spec: dict, trace: bool) -> dict:
    """The one-line result: declared metrics with value and unit."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = entry.get("layers", {}) if trace else entry["metrics"]
    metrics = {
        k: {"value": source[k]["value"], "unit": source[k]["unit"]}
        for k in names
        if k in source
    }
    return {
        "correct": entry["correct"] and len(metrics) == len(names),
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def print_entry(entry: dict) -> None:
    print(
        f"{entry['workload']}: N={entry['n']} timed_sorts={entry['timed_sorts']} "
        f"attempted={entry['attempted']} failed={entry['failed']}"
    )
    for k, m in entry["metrics"].items():
        spread = f"  [p25 {m['p25']:.6g}, p75 {m['p75']:.6g}]" if "p25" in m else ""
        print(f"  {k:<26} {m['value']:>16.6g} {m['unit']:<10} n={m['n']}{spread}")
    layers = {k: m["value"] for k, m in entry.get("layers", {}).items()}
    for k, v in layers.items():
        if k.endswith(".self_s") and v:
            layer = k[: -len(".self_s")]
            print(
                f"  {layer:<26} self {v:9.4f} s  share {layers[layer + '.share']:6.1%}"
                f"  calls {layers[layer + '.calls']:.0f}"
            )
    for k in ("layers.residual_frac", "layers.overhead_frac", "layers.unexplained_frac"):
        if k in layers:
            print(f"  {k:<26} {layers[k]:+.2%}")


def run_children(args, names: list[str]) -> list[dict]:
    """Every workload in its own child process, one at a time.

    The sets of one workload run back to back, so that they see nearly
    the same host and differ by as little as the host allows.
    """
    from .workloads import SCRATCH

    sets: list[dict] = [{} for _ in range(args.sets)]
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for name in names:
            for i, results in enumerate(sets):
                out = Path(tmp) / f"{i}-{name}.json"
                cmd = [
                    sys.executable, "-m", "bench.run", "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", "1", "--out", str(out),
                ] + (["--smoke"] if args.smoke else [])
                try:
                    subprocess.run(
                        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S
                    )
                except subprocess.TimeoutExpired:
                    print(f"{name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
                if out.exists():
                    results[name] = json.loads(out.read_text())["sets"][0][name]
                else:
                    results[name] = {
                        "workload": name, "n": 0, "timed_sorts": 0, "attempted": 1,
                        "failed": 1, "correct": False,
                        "metrics": {"sort_failed_frac": dict(SORT_FAILED_FRAC, value=1.0, n=1)},
                    }
    return sets


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m bench.run", description=__doc__.splitlines()[0]
    )
    ap.add_argument("--workload", help="run only this workload, in this process")
    ap.add_argument("--seed", type=int, default=1, help="input and placement seed")
    ap.add_argument(
        "--seconds", type=float,
        help="timed-sort budget per workload (default: run_seconds of "
        f"BENCHMARK.json; {SMOKE_SECONDS:g} with --smoke)",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="1: also run the traced sort (with --workload, print "
                    "per-layer metrics last instead of end-to-end ones)")
    ap.add_argument("--sets", type=int, default=1,
                    help="full sets of runs to record (all workloads)")
    ap.add_argument("--smoke", action="store_true",
                    help=f"divide every record count by {SMOKE_SCALE}")
    ap.add_argument("--out", type=Path, help="write the results file here")
    ap.add_argument("--compare", type=Path, metavar="BASE",
                    help="gate the new results against this results file")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: package source {SRC / 'repro'} not found", file=sys.stderr)
        return 2

    from .compare import gate, load_spec
    from .workloads import WORKLOADS

    spec = load_spec()
    if args.workload is not None and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    scale = SMOKE_SCALE if args.smoke else 1

    if args.workload is not None:
        entry = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), scale)
        sets = [{args.workload: annotate(entry, spec)}]
    else:
        sets = run_children(args, list(WORKLOADS))
    results = {"provenance": provenance(args), "sets": sets}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")

    for results_set in sets:
        for entry in results_set.values():
            print_entry(entry)
    status = 0 if all(e["correct"] for s in sets for e in s.values()) else 1
    if args.compare is not None:
        status |= gate(json.loads(args.compare.read_text()), results, spec)
    if args.workload is not None:
        line = final_line(sets[0][args.workload], spec, bool(args.trace))
        if not line["correct"]:
            status = 1
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
