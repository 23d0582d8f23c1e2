"""Regression gate between two benchmark results files.

``python -m bench.compare BASE.json NEW.json`` prints one row per
workload and end-to-end metric (base, new, change, bound, status) and
exits 1 when any row fails:

* a wall-based metric worsened by more than its ``BENCHMARK.json`` bound;
* an exact metric (an I/O count or simulated time, deterministic at a
  fixed seed) changed at all;
* ``sort_failed_frac`` rose, or a workload or metric went missing.

When the spread (interquartile range over median) of either side's
samples is wider than the bound, the row is ``unresolved`` rather than
``unchanged``; it is ``improved`` only if every new sample beats every
base sample.  With one file holding several sets of runs, its first set
is compared against the rest: the check that the benchmark agrees with
itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from . import ROOT

#: Metrics that are deterministic at a fixed seed and scale.
EXACT = frozenset({"parallel_ios_per_stripe", "read_overhead_v", "sim_makespan_ms"})

#: Statuses that fail the gate.
FAILING = frozenset({"regressed", "changed", "failed", "missing"})


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    return json.loads(Path(path).read_text())


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    base: float | None
    new: float | None
    bound: float
    status: str

    @property
    def change(self) -> float | None:
        if self.base is None or self.new is None or self.base == 0:
            return None
        return self.new / self.base - 1.0


def _spread(samples: list[float]) -> float:
    """Interquartile range over median; 0 with fewer than two samples."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    med = statistics.median(samples)
    return (q3 - q1) / abs(med) if med else 0.0


def _side(sets: list[dict], workload: str, metric: str):
    """(per-set values, pooled samples) of one metric on one side."""
    values, samples = [], []
    for s in sets:
        m = s.get(workload, {}).get("metrics", {}).get(metric)
        if m is None:
            continue
        values.append(m["value"])
        samples.extend(m.get("samples", [m["value"]]))
    return values, samples


def _row(workload, metric, bound, better, base_sets, new_sets, exact) -> Row:
    bv, bs = _side(base_sets, workload, metric)
    nv, ns = _side(new_sets, workload, metric)
    if not bv or not nv:
        return Row(workload, metric, bv[0] if bv else None, nv[0] if nv else None,
                   bound, "missing" if bv else "new")
    b, n = statistics.median(bv), statistics.median(nv)
    if exact:
        status = "same" if len(set(bv) | set(nv)) == 1 else "changed"
        return Row(workload, metric, b, n, 0.0, status)
    sign = -1.0 if better == "higher" else 1.0
    worse = sign * (n - b) / abs(b) if b else 0.0
    if max(_spread(bs), _spread(ns)) > bound:
        all_better = (
            max(ns) < min(bs) if better == "lower" else min(ns) > max(bs)
        )
        status = "improved" if all_better else "unresolved"
    elif worse > bound:
        status = "regressed"
    elif worse < -bound:
        status = "improved"
    else:
        status = "unchanged"
    return Row(workload, metric, b, n, bound, status)


def compare(base: dict, new: dict, spec: dict) -> list[Row]:
    """Rows for every workload in *base* × end-to-end metric of *spec*."""
    base_sets, new_sets = base["sets"], new["sets"]
    same_inputs = all(
        base["provenance"].get(k) == new["provenance"].get(k) for k in ("seed", "scale")
    )
    workloads = list(dict.fromkeys(w for s in base_sets for w in s))
    rows: list[Row] = []
    for w in workloads:
        if not any(w in s for s in new_sets):
            rows.append(Row(w, "*", None, None, 0.0, "missing"))
            continue
        for m in spec["end_to_end"]:
            exact = m["name"] in EXACT
            if exact and not same_inputs:
                continue
            rows.append(_row(w, m["name"], m["bound"], m["better"], base_sets, new_sets, exact))
        b = max(_side(base_sets, w, "sort_failed_frac")[0], default=0.0)
        n = max(_side(new_sets, w, "sort_failed_frac")[0], default=1.0)
        rows.append(Row(w, "sort_failed_frac", b, n, 0.0, "failed" if n > b else "same"))
    return rows


def render(rows: list[Row]) -> str:
    def fmt(v):
        return "-" if v is None else f"{v:.6g}"

    lines = [f"{'workload':<15} {'metric':<24} {'base':>13} {'new':>13} "
             f"{'change':>8} {'bound':>6}  status"]
    for r in rows:
        change = "-" if r.change is None else f"{100 * r.change:+.2f}%"
        lines.append(
            f"{r.workload:<15} {r.metric:<24} {fmt(r.base):>13} {fmt(r.new):>13} "
            f"{change:>8} {100 * r.bound:>5.0f}%  {r.status}"
        )
    return "\n".join(lines)


def gate(base: dict, new: dict, spec: dict | None = None) -> int:
    """Print the comparison; 1 if any row fails, else 0."""
    rows = compare(base, new, spec if spec is not None else load_spec())
    print(render(rows))
    failed = [r for r in rows if r.status in FAILING]
    print(f"compare: {len(rows)} rows, {len(failed)} failing")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m bench.compare", description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path, nargs="?")
    args = ap.parse_args(argv)
    base = json.loads(args.base.read_text())
    if args.new is not None:
        new = json.loads(args.new.read_text())
    elif len(base["sets"]) >= 2:
        base, new = dict(base, sets=base["sets"][:1]), dict(base, sets=base["sets"][1:])
    else:
        ap.error("one file needs at least two sets of runs")
    return gate(base, new)


if __name__ == "__main__":
    sys.exit(main())
