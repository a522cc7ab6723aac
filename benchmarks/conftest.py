"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper, prints the
same rows/series the paper reports (run with ``-s`` to see them inline) and
writes the rendered text to ``benchmarks/out/`` for inspection.
"""

from __future__ import annotations

import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"

# Benchmarks share oracles with the test suite (``tests.train.overlap_oracle``);
# make the repo root importable when pytest runs from inside benchmarks/.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.append(_REPO_ROOT)


def emit(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it."""
    print(f"\n{text}\n")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
