"""Print the per-metric change recorded in ``BENCH_*.json`` files.

    python3 scripts/bench_delta.py BENCH_16.json
    python3 scripts/bench_delta.py BENCH_16.json BENCH_17.json

A ``BENCH_*.json`` file holds the raw ``perfbench/run.py --trace 0``
result lines of alternating parent/change runs and, per workload and
metric, a summary: each side's median and quartiles, and how many pairs
the change won.  With one file this prints that file's parent -> change
delta; with two, it compares the change side of the first with the change
side of the second, so a chain of files reads as one trajectory.  Host
wall times outside perfbench (``end_to_end``) are printed the same way.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _rows(bench: dict, side: str) -> dict[tuple[str, str], float]:
    """(workload or "end-to-end", metric) -> median on ``side``."""
    rows = {}
    for workload, entry in bench.get("workloads", {}).items():
        for metric, summary in entry["summary"].items():
            rows[(workload, metric)] = summary[side]["median"]
    for metric, sides in bench.get("end_to_end", {}).items():
        rows[("end-to-end", metric)] = sides[side]["median"]
    return rows


def delta_lines(old: dict[tuple[str, str], float],
                new: dict[tuple[str, str], float]) -> list[str]:
    lines = [f"{'workload':<26}{'metric':<28}{'before':>12}{'after':>12}{'delta':>9}"]
    for key in sorted(old.keys() & new.keys()):
        before, after = old[key], new[key]
        rel = f"{(after - before) / before:+.1%}" if before else "n/a"
        lines.append(f"{key[0]:<26}{key[1]:<28}{before:>12.4g}{after:>12.4g}{rel:>9}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    benches = [json.loads(Path(p).read_text()) for p in argv]
    if len(benches) == 1:
        old, new = _rows(benches[0], "parent"), _rows(benches[0], "change")
    else:
        old, new = _rows(benches[0], "change"), _rows(benches[1], "change")
    print("\n".join(delta_lines(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
