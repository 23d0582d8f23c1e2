"""docs/API.md's signature rows must name the real parameters.

A row that drops or invents a parameter misleads every reader who
configures a sort from the docs, so this test parses the backticked
call signature of each entry point listed below and compares its
parameter names, in order, against :func:`inspect.signature`.
Defaults written as ``...`` in the docs stand for "see the code".
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro import external_sort, external_sort_records, srm_sort
from repro.baselines.dsm import dsm_mergesort, dsm_sort, write_superblock_run
from repro.baselines.psv import psv_merge, psv_mergesort, write_single_disk_runs_parallel
from repro.core.config import OverlapConfig
from repro.core.merge import merge_runs
from repro.core.parallel_merge import parallel_merge_runs

API = Path(__file__).resolve().parent.parent / "docs" / "API.md"

DOCUMENTED = [
    external_sort,
    external_sort_records,
    srm_sort,
    dsm_sort,
    dsm_mergesort,
    write_superblock_run,
    psv_mergesort,
    psv_merge,
    write_single_disk_runs_parallel,
    merge_runs,
    parallel_merge_runs,
    OverlapConfig,
]


def documented_parameters(name: str) -> list[str]:
    """Parameter names of the one backticked ``name(...)`` row."""
    rows = re.findall(rf"`{name}\(([^`]*?)\)(?: -> [^`]*)?`", API.read_text())
    assert len(rows) == 1, f"expected one signature row for {name}, found {len(rows)}"
    tree = ast.parse(f"def {name}({rows[0]}): pass")
    args = tree.body[0].args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


@pytest.mark.parametrize("fn", DOCUMENTED, ids=lambda fn: fn.__name__)
def test_signature_row_matches_code(fn):
    assert documented_parameters(fn.__name__) == list(
        inspect.signature(fn).parameters
    )
