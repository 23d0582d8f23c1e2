"""Canonical end-to-end SRM benchmark (run with ``python -m bench.run``).

Four named workloads drive the public sorting API; each reports wall
throughput, set-up time, peak memory and the paper's I/O currencies,
and a separate traced sort splits the wall time by layer.  See
``bench/README.md``.
"""

import sys
from pathlib import Path

#: Root of the checkout the benchmark lives in.
ROOT = Path(__file__).resolve().parent.parent
#: Source tree of the package under test.
SRC = ROOT / "src"

# The checkout's own source tree wins over any installed copy, so the
# benchmark always measures the code it ships with.
if (SRC / "repro").is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
