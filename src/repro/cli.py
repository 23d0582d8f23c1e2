"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro table1 [--trials N] [--seed S]
    python -m repro table2 [--paper-v | --trials N]
    python -m repro table3 [--blocks-per-run L] [--block-size B] [--full]
    python -m repro table4 [--blocks-per-run L] [--block-size B]
    python -m repro figure1
    python -m repro sort --n 100000 --disks 4 --block 64 --k 4 [--dsm]
    python -m repro sort --telemetry run.jsonl
    python -m repro sort --trace run.jsonl [--overlap full]
    python -m repro inspect run.jsonl [--check] [--attribution]
    python -m repro trace run.jsonl [--out run.trace.json]
    python -m repro chaos [--quick] [--check] [--out chaos.jsonl]
    python -m repro demo

``--full`` switches Table 3/4 to paper-scale run lengths (slow).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .analysis import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    figure1,
    render_comparison,
    table1,
    table2,
    table3,
    table4,
)
from .core import (
    OVERLAP_MODES,
    DSMConfig,
    LayoutStrategy,
    OverlapConfig,
    SRMConfig,
    srm_sort,
)
from .baselines import dsm_sort
from .errors import ConfigError
from .telemetry import RunReport, Telemetry
from .workloads import uniform_permutation

#: Paper-scale Table 3 run length (blocks per run).
FULL_BLOCKS_PER_RUN = 1000


def _cmd_table1(args: argparse.Namespace) -> int:
    grid = table1(n_trials=args.trials, rng=args.seed)
    print(render_comparison(PAPER_TABLE1, grid))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    v = PAPER_TABLE1 if args.paper_v else table1(n_trials=args.trials, rng=args.seed)
    grid = table2(v)
    print(render_comparison(PAPER_TABLE2, grid))
    return 0


def _table3_grid(args: argparse.Namespace):
    blocks = FULL_BLOCKS_PER_RUN if args.full else args.blocks_per_run
    return table3(
        blocks_per_run=blocks,
        block_size=args.block_size,
        n_trials=args.trials,
        rng=args.seed,
    )


def _cmd_table3(args: argparse.Namespace) -> int:
    grid = _table3_grid(args)
    print(render_comparison(PAPER_TABLE3, grid))
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    grid = table4(_table3_grid(args))
    print(render_comparison(PAPER_TABLE4, grid))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    f = figure1()
    print("Figure 1 reproduction (N_b = 12 balls, C = 5 chains, D = 4 bins)")
    print(f"  (a) dependent instance occupancies: {[int(x) for x in f.dependent_instance]}"
          f"  -> max {int(f.dependent_instance.max())} in bin 2")
    print(f"  (b) classical instance occupancies: {[int(x) for x in f.classical_instance]}"
          f"  -> max {int(f.classical_instance.max())} in bin 2")
    print(f"  exact E[max] dependent = {f.dependent_expected_max:.4f}")
    print(f"  exact E[max] classical = {f.classical_expected_max:.4f}")
    print(f"  §7.2 conjecture (dependent <= classical): "
          f"{'holds' if f.conjecture_holds else 'VIOLATED'}")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    keys = uniform_permutation(args.n, rng=args.seed)
    backend = args.backend
    if args.workdir is not None:
        if backend != "mmap":
            print("error: --workdir requires --backend mmap", file=sys.stderr)
            return 2
        backend = f"mmap:{args.workdir}"
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.dsm and (args.overlap is not None or args.workers > 1):
        print("error: --dsm runs neither the overlap engine nor merge "
              "workers; drop --overlap and --workers", file=sys.stderr)
        return 2
    merge_workers = args.workers if args.workers > 1 else None
    telemetry = None
    if args.telemetry is not None or args.trace is not None:
        telemetry = Telemetry(
            algo="dsm" if args.dsm else "srm",
            n_records=args.n,
            n_disks=args.disks,
            block_size=args.block,
            seed=args.seed,
        )
        if args.trace is not None:
            telemetry.attach_trace()
    overlap = None
    t0 = time.perf_counter()
    try:
        if args.overlap is not None:
            overlap = OverlapConfig(
                mode=args.overlap,
                prefetch_depth=args.prefetch_depth,
                cpu_us_per_record=args.cpu_us,
            )
        if args.dsm:
            cfg = DSMConfig.matching_srm(
                SRMConfig.from_k(args.k, args.disks, args.block)
            )
            out, res = dsm_sort(keys, cfg, telemetry=telemetry, backend=backend)
            name = "DSM"
        else:
            cfg = SRMConfig.from_k(args.k, args.disks, args.block)
            out, res = srm_sort(
                keys, cfg, rng=args.seed, overlap=overlap, telemetry=telemetry,
                backend=backend, merge_workers=merge_workers,
            )
            name = "SRM"
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dt = time.perf_counter() - t0
    if telemetry is not None:
        telemetry.set_meta(merge_order=cfg.merge_order)
        telemetry.finish()
        for path in {args.telemetry, args.trace} - {None}:
            telemetry.write_jsonl(path)
    ok = bool(np.array_equal(out, np.sort(keys)))
    print(f"{name}: sorted {args.n} records on D={args.disks}, B={args.block}, "
          f"R={cfg.merge_order} in {dt:.2f}s  (correct: {ok})")
    print(f"  runs formed: {res.runs_formed}, merge passes: {res.n_merge_passes}")
    print(f"  parallel I/Os: {res.io.parallel_ios} "
          f"(reads {res.io.parallel_reads}, writes {res.io.parallel_writes})")
    print(f"  read efficiency: {res.io.read_efficiency:.3f}, "
          f"write efficiency: {res.io.write_efficiency:.3f}")
    if backend is not None and backend != "memory":
        bs = res.system.backend.stats()
        print(f"  backend: {bs['kind']} at {bs.get('workdir')} — "
              f"{bs.get('file_bytes', 0) / 1e6:.1f} MB of slot files, "
              f"{bs.get('blocks_written', 0)} blocks written, "
              f"{bs.get('blocks_read', 0)} read"
              + (f", merge workers: {args.workers}" if merge_workers else ""))
    if args.trace is not None and telemetry is not None:
        col = telemetry.trace
        print(f"  trace: {col.emitted} records emitted "
              f"({col.dropped} dropped) -> {args.trace}")
        print(f"  render: repro trace {args.trace}   "
              f"attribute: repro inspect {args.trace} --attribution")
    if overlap is not None and res.overlap_reports:
        stall = sum(r.cpu_stall_ms for r in res.overlap_reports)
        eager = sum(r.eager_reads for r in res.overlap_reports)
        demand = sum(r.demand_reads for r in res.overlap_reports)
        util = float(np.mean([r.disk_utilization for r in res.overlap_reports]))
        print(f"  overlap engine ({overlap.mode}, depth {overlap.prefetch_depth}): "
              f"simulated merge wall-clock {res.simulated_merge_ms:.0f} ms")
        print(f"    cpu stall {stall:.0f} ms, eager reads {eager}, "
              f"demand reads {demand}, mean disk utilization {util:.2f}")
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import load_events
    from .telemetry.trace import trace_events_from_stream, write_chrome_trace

    events = load_events(args.input)
    recs, sums = trace_events_from_stream(events)
    if not recs and not sums:
        print("error: no trace records in stream "
              "(capture one with sort --trace)", file=sys.stderr)
        return 1
    out = args.out
    if out is None:
        stem = args.input[:-6] if args.input.endswith(".jsonl") else args.input
        out = stem + ".trace.json"
    doc = write_chrome_trace(out, events)
    doms = doc["otherData"]["domains"]
    print(f"wrote {out}: {len(recs)} trace records, {len(doms)} domains, "
          f"{len(doc['traceEvents'])} Chrome trace events")
    for dom, info in sorted(doms.items()):
        tag = "exact" if info["exact"] else "inexact"
        print(f"  {dom}: makespan {info['makespan_ms']:.3f} ms [{tag}]")
    dropped = doc["otherData"].get("dropped", 0)
    if dropped:
        print(f"  WARNING: ring overflow dropped {dropped} records")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    report = RunReport.from_jsonl(args.trace)
    print(report.render())
    if args.attribution:
        print()
        print(report.render_attribution())
    if args.check:
        failures = report.check()
        if failures:
            print("\ncheck FAILED:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\ncheck passed")
    return 0


def _cmd_records(args: argparse.Namespace) -> int:
    from .sorting import external_sort_records

    rng = np.random.default_rng(args.seed)
    keys = rng.integers(0, max(2, args.n // 8), size=args.n)  # duplicates
    rows = np.arange(args.n)
    out_k, out_p, stats = external_sort_records(
        keys, rows, memory_records=args.memory, n_disks=args.disks,
        block_size=args.block, rng=args.seed,
    )
    stable = bool(np.array_equal(out_p, np.argsort(keys, kind="stable")))
    print(f"sorted {stats.n_records} (key, payload) records: "
          f"R={stats.merge_order}, {stats.merge_passes} passes, "
          f"{stats.parallel_ios} parallel I/Os")
    print(f"  payloads follow keys: "
          f"{bool(np.array_equal(keys[out_p], out_k))}")
    print(f"  stable (ties keep input order): {stable}")
    return 0 if stable else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .occupancy import (
        classical_expected_max_lower_bound,
        expected_max_occupancy,
        gf_expected_max_bound,
    )

    print("Occupancy C(kD, D)/k: lower bound <= Monte-Carlo <= GF upper bound")
    print(f"{'k':>6} {'D':>6} {'lower':>8} {'MC':>8} {'upper':>8}")
    for k, d in [(5, 5), (5, 50), (20, 50), (100, 50), (100, 1000)]:
        mc = expected_max_occupancy(k * d, d, n_trials=args.trials, rng=args.seed).mean / k
        lo = classical_expected_max_lower_bound(k * d, d) / k
        hi = gf_expected_max_bound(k * d, d) / k
        print(f"{k:>6} {d:>6} {lo:>8.3f} {mc:>8.3f} {hi:>8.3f}")
    return 0


def _cmd_reproduce_all(args: argparse.Namespace) -> int:
    from .experiments import run_all_experiments

    blocks = FULL_BLOCKS_PER_RUN if args.full else args.blocks_per_run
    report = run_all_experiments(
        out_dir=args.out,
        rng=args.seed,
        occupancy_trials=args.trials,
        blocks_per_run=blocks,
    )
    for o in report.outcomes:
        print(o.report)
        print()
    print(report.summary())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    print("SRM vs DSM on the same memory and data (N = 200_000, D = 8, B = 32):\n")
    keys = uniform_permutation(200_000, rng=0)
    srm_cfg = SRMConfig.from_k(4, 8, 32)
    dsm_cfg = DSMConfig.matching_srm(srm_cfg)
    run_length = srm_cfg.memory_records
    srm_out, srm_res = srm_sort(keys, srm_cfg, rng=1, run_length=run_length)
    dsm_out, dsm_res = dsm_sort(keys, dsm_cfg, run_length=run_length)
    assert np.array_equal(srm_out, dsm_out)
    print(f"  SRM (R={srm_cfg.merge_order}): passes={srm_res.n_merge_passes}, "
          f"I/Os={srm_res.io.parallel_ios}")
    print(f"  DSM (R={dsm_cfg.merge_order}): passes={dsm_res.n_merge_passes}, "
          f"I/Os={dsm_res.io.parallel_ios}")
    ratio = srm_res.io.parallel_ios / dsm_res.io.parallel_ios
    print(f"  I/O ratio SRM/DSM = {ratio:.2f}  (paper Table 4 regime: < 1)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import run_chaos

    report = run_chaos(
        n_records=args.n,
        n_disks=args.disks,
        k=args.k,
        block_size=args.block,
        seed=args.seed,
        quick=args.quick,
    )
    print(report.render())
    if args.out is not None:
        report.write_jsonl(args.out)
        print(f"wrote {args.out}")
    if args.check:
        failures = report.failures()
        if failures:
            print("\nchaos check FAILED:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nchaos check passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Simple Randomized Mergesort on Parallel Disks' "
        "(Barve, Grove, Vitter; SPAA 1996)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="overhead v(k,D) by ball throwing")
    t1.add_argument("--trials", type=int, default=400)
    t1.add_argument("--seed", type=int, default=1996)
    t1.set_defaults(func=_cmd_table1)

    t2 = sub.add_parser("table2", help="C_SRM/C_DSM ratio, worst-case v")
    t2.add_argument("--trials", type=int, default=400)
    t2.add_argument("--seed", type=int, default=1996)
    t2.add_argument("--paper-v", action="store_true",
                    help="use the paper's published Table 1 values for v")
    t2.set_defaults(func=_cmd_table2)

    for name, fn, helptext in [
        ("table3", _cmd_table3, "overhead v(k,D) from SRM merge simulation"),
        ("table4", _cmd_table4, "C'_SRM/C_DSM ratio, average-case v"),
    ]:
        t = sub.add_parser(name, help=helptext)
        t.add_argument("--blocks-per-run", type=int, default=100)
        t.add_argument("--block-size", type=int, default=8)
        t.add_argument("--trials", type=int, default=1)
        t.add_argument("--seed", type=int, default=1996)
        t.add_argument("--full", action="store_true",
                       help=f"paper-scale run length ({FULL_BLOCKS_PER_RUN} blocks/run)")
        t.set_defaults(func=fn)

    f1 = sub.add_parser("figure1", help="dependent vs classical occupancy instance")
    f1.set_defaults(func=_cmd_figure1)

    s = sub.add_parser("sort", help="sort random records and report I/O stats")
    s.add_argument("--n", type=int, default=100_000)
    s.add_argument("--disks", type=int, default=4)
    s.add_argument("--block", type=int, default=64)
    s.add_argument("--k", type=int, default=4)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dsm", action="store_true", help="use the DSM baseline")
    s.add_argument("--overlap", choices=list(OVERLAP_MODES), default=None,
                   help="drive merges through the discrete-event overlap "
                   "engine and report simulated wall-clock")
    s.add_argument("--prefetch-depth", type=int, default=2,
                   help="read-ahead window in eager ParReads (with --overlap)")
    s.add_argument("--cpu-us", type=float, default=1.0,
                   help="merge CPU cost per record in microseconds "
                   "(with --overlap)")
    s.add_argument("--backend", choices=["memory", "mmap"], default="memory",
                   help="block storage backend: in-RAM dicts (default) or "
                        "one mmap'd slot file per simulated disk "
                        "(out-of-core; inputs may exceed RAM)")
    s.add_argument("--workdir", metavar="DIR", default=None,
                   help="directory for the mmap backend's disk files "
                        "(default: self-cleaning temp dir; explicit dirs "
                        "are kept)")
    s.add_argument("--workers", type=int, default=1, metavar="W",
                   help="process-parallel Merge Path drain width for SRM "
                        "merges (>1 requires --backend mmap; default 1 = "
                        "serial data plane)")
    s.add_argument("--telemetry", metavar="PATH", default=None,
                   help="capture a structured JSONL trace to PATH "
                   "(render it with 'repro inspect PATH')")
    s.add_argument("--trace", metavar="PATH", default=None,
                   help="arm causal event tracing and write the "
                        "telemetry stream (with per-op trace records) "
                        "to PATH; export Chrome/Perfetto JSON with "
                        "'repro trace PATH', attribute the makespan "
                        "with 'repro inspect PATH --attribution'")
    s.set_defaults(func=_cmd_sort)

    ins = sub.add_parser(
        "inspect",
        help="render a telemetry JSONL trace as a per-phase run report",
    )
    ins.add_argument("trace", help="JSONL file written by sort --telemetry")
    ins.add_argument("--check", action="store_true",
                     help="exit 1 unless paper-bound assertions hold "
                     "(Theorem-1 read overhead, §5.4 flush occupancy, "
                     "critical path == makespan for exact trace domains)")
    ins.add_argument("--attribution", action="store_true",
                     help="decompose each traced domain's makespan along "
                     "its critical path (read/write/compute/stall/"
                     "recovery), with per-lane utilization and stragglers")
    ins.set_defaults(func=_cmd_inspect)

    tr = sub.add_parser(
        "trace",
        help="export a captured trace as Chrome trace-event JSON "
        "(Perfetto / chrome://tracing)",
    )
    tr.add_argument("input", help="JSONL file written by sort --trace")
    tr.add_argument("--out", metavar="PATH", default=None,
                    help="output JSON path (default: INPUT with a "
                    ".trace.json suffix)")
    tr.set_defaults(func=_cmd_trace)

    r = sub.add_parser("records", help="stable key+payload record sort demo")
    r.add_argument("--n", type=int, default=50_000)
    r.add_argument("--disks", type=int, default=4)
    r.add_argument("--block", type=int, default=64)
    r.add_argument("--memory", type=int, default=8192)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(func=_cmd_records)

    b = sub.add_parser("bounds", help="occupancy bounds sandwich table")
    b.add_argument("--trials", type=int, default=1000)
    b.add_argument("--seed", type=int, default=1996)
    b.set_defaults(func=_cmd_bounds)

    ra = sub.add_parser("reproduce-all", help="regenerate every table + figure")
    ra.add_argument("--out", type=str, default=None,
                    help="directory for per-experiment reports")
    ra.add_argument("--trials", type=int, default=400)
    ra.add_argument("--blocks-per-run", type=int, default=100)
    ra.add_argument("--full", action="store_true",
                    help=f"paper-scale Table 3 ({FULL_BLOCKS_PER_RUN} blocks/run)")
    ra.add_argument("--seed", type=int, default=1996)
    ra.set_defaults(func=_cmd_reproduce_all)

    d = sub.add_parser("demo", help="quick SRM-vs-DSM comparison")
    d.set_defaults(func=_cmd_demo)

    ch = sub.add_parser(
        "chaos",
        help="fault and latency sweep: every plan must sort bit-identically",
    )
    ch.add_argument("--n", type=int, default=20_000,
                    help="records per sort (default: %(default)s)")
    ch.add_argument("--disks", type=int, default=4)
    ch.add_argument("--k", type=int, default=2,
                    help="merge order R = kD")
    ch.add_argument("--block", type=int, default=16)
    ch.add_argument("--seed", type=int, default=1234,
                    help="root seed for data, layout, and fault streams")
    ch.add_argument("--quick", action="store_true",
                    help="core scenarios only: transient/corrupt/death plus "
                         "write storm, torn writes, parity rebuild, and "
                         "double death; no latency or cliff-grid scenarios "
                         "(CI smoke)")
    ch.add_argument("--check", action="store_true",
                    help="exit 1 unless every resilience property holds")
    ch.add_argument("--out", metavar="PATH", default=None,
                    help="write the scenario results as JSONL to PATH")
    ch.set_defaults(func=_cmd_chaos)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
