"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``."""

import copy
import json
import shutil
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench.compare import FAILING, compare, load_spec
from bench.layers import LayerTimer, traced, wrap_targets
from bench.run import SMOKE_SCALE, run_workload
from bench.workloads import WORKLOADS, Sort

SPEC = load_spec()


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "bench.run", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    t0 = time.perf_counter()
    proc = _run(["--smoke", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), elapsed


def test_smoke_runs_every_workload_quickly(smoke):
    results, elapsed = smoke
    assert elapsed < 30
    assert list(results["sets"][0]) == list(WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_smoke_emits_every_declared_metric_with_its_unit(smoke):
    results, _ = smoke
    for name, entry in results["sets"][0].items():
        assert entry["correct"], name
        assert entry["metrics"]["sort_failed_frac"]["value"] == 0
        for kind, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for m in SPEC[kind]:
                got = entry[key][m["name"]]
                assert got["unit"] == m["unit"], (name, m["name"])
                assert isinstance(got["value"], (int, float)), (name, m["name"])
        for m in SPEC["end_to_end"]:
            assert entry["metrics"][m["name"]]["value"] > 0, (name, m["name"])


def test_smoke_records_provenance(smoke):
    prov = smoke[0]["provenance"]
    for key in ("cpu_count", "affinity", "python", "numpy", "git_rev", "seed"):
        assert key in prov
    assert prov["scale"] == SMOKE_SCALE
    entry = smoke[0]["sets"][0]["keys-mem"]
    assert len(entry["samples"]["sort_s"]) == entry["timed_sorts"] >= 3


def test_wrong_output_counts_as_failed_sort(monkeypatch):
    real_run = Sort.run
    calls = []

    def run_then_corrupt(self):
        real_run(self)
        calls.append(self)
        if len(calls) == 2:
            blk = self.system.peek(self.result.output.addresses[0])
            blk.keys[0] = blk.keys[-1] + 1

    monkeypatch.setattr(Sort, "run", run_then_corrupt)
    entry = run_workload("keys-mem", seed=1, seconds=0, trace=False, scale=SMOKE_SCALE)
    assert entry["attempted"] == 4  # warm-up + three timed sorts
    assert entry["failed"] == 1
    assert entry["metrics"]["sort_failed_frac"]["value"] == 0.25
    assert not entry["correct"]
    assert entry["timed_sorts"] == 2


def _results(rates, seed=1):
    """A one-workload, one-set results file with the given rate samples."""
    metrics = {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]}
    metrics["records_per_s"] = {"value": sorted(rates)[len(rates) // 2], "samples": rates}
    metrics["sort_failed_frac"] = {"value": 0.0}
    return {
        "provenance": {"seed": seed, "scale": 1},
        "sets": [{"keys-mem": {"metrics": metrics}}],
    }


def _status(rows, metric):
    return next(r.status for r in rows if r.metric == metric)


def test_compare_passes_identical_and_fails_a_drop_past_the_bound():
    rates = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = _results(rates)
    rows = compare(base, copy.deepcopy(base), SPEC)
    assert not [r for r in rows if r.status in FAILING]
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "records_per_s")
    within = _results([(1 - bound + 0.05) * r for r in rates])
    assert _status(compare(base, within, SPEC), "records_per_s") == "unchanged"
    slow = _results([(1 - bound - 0.05) * r for r in rates])
    assert _status(compare(base, slow, SPEC), "records_per_s") == "regressed"


def test_compare_flags_changed_exact_metrics_wide_spreads_and_failures():
    base = _results([100.0, 101.0, 99.0])
    new = copy.deepcopy(base)
    new["sets"][0]["keys-mem"]["metrics"]["read_overhead_v"]["value"] = 1.001
    new["sets"][0]["keys-mem"]["metrics"]["sort_failed_frac"]["value"] = 0.1
    rows = compare(base, new, SPEC)
    assert _status(rows, "read_overhead_v") == "changed"
    assert _status(rows, "sort_failed_frac") == "failed"
    noisy = _results([60.0, 100.0, 140.0, 80.0, 120.0])
    assert _status(compare(base, noisy, SPEC), "records_per_s") == "unresolved"


def test_layer_wrappers_are_restored():
    targets = wrap_targets()
    timer = LayerTimer(probe=True)
    with pytest.raises(RuntimeError), traced(timer):
        for _, owner, name, original in targets:
            assert vars(owner)[name] is not original
        raise RuntimeError("sort failed mid-trace")
    for _, owner, name, original in targets:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name}"


def test_traced_run_restores_wrappers_and_reports_layers():
    targets = wrap_targets()
    entry = run_workload("parity-faults", seed=2, seconds=0, trace=True, scale=SMOKE_SCALE)
    assert entry["correct"]
    for _, owner, name, original in targets:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name}"
    layers = entry["layers"]
    assert layers["faults.calls"] > 0 and layers["disks.block.calls"] > 0
    assert 0 <= layers["layers.residual_frac"] <= 0.05


def test_without_package_source_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "keys-mem", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
