"""Attribute a cProfile run to the ``repro`` packages ("layers").

The profiler is attached from outside the program: nothing under
``src/`` knows it is being measured. A function's self time goes to the
``repro`` package its source file lives in. Time in code outside
``repro`` (builtins such as ``heapq.heappush``, the standard library,
generated dataclass methods) goes to the layer of whichever function
called it, split by the profiler's per-caller record; what no ``repro``
function called is ``other`` (the harness itself, for one).
"""

from __future__ import annotations

import pstats
import re

#: The layers whose self time an op is charged with; ``repro.train`` runs
#: only in set-up, where spans time it.
LAYERS = ("sim", "net", "mpi", "fleet")

_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")

# The profiler identifies a function by its source file and name. These
# name the public calls and the current max-min solver; after a rename the
# count reads 0, which the harness flags instead of reporting a saving.
ENGINE_STEP = ("repro/sim/engine.py", "step")
FABRIC_TRANSFER = ("repro/net/fabric.py", "transfer")
MAXMIN = ("repro/net/fabric.py", "_compute_maxmin_rates")


def _layer(func: tuple[str, int, str]) -> str | None:
    """The ``repro`` package that defines ``func``, or None outside repro."""
    match = _PACKAGE.search(func[0])
    return match.group(1) if match else None


def self_time_by_layer(stats: pstats.Stats) -> dict[str, float]:
    """Seconds of profiled self time per layer, plus ``other``."""
    totals: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        layer = _layer(func)
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + tt
            continue
        charged = 0.0
        for caller, record in callers.items():
            caller_layer = _layer(caller) or "other"
            totals[caller_layer] = totals.get(caller_layer, 0.0) + record[2]
            charged += record[2]
        # Time with no recorded caller (the outermost frame).
        totals["other"] = totals.get("other", 0.0) + max(0.0, tt - charged)
    return totals


def _matching(stats: pstats.Stats, target: tuple[str, str]):
    path, name = target
    for func, record in stats.stats.items():
        if func[2] == name and func[0].replace("\\", "/").endswith(path):
            yield record


def call_count(stats: pstats.Stats, target: tuple[str, str]) -> int:
    """Calls of the function ``target`` names, 0 if it no longer exists."""
    return sum(record[1] for record in _matching(stats, target))


def cumulative_s(stats: pstats.Stats, target: tuple[str, str]) -> float:
    """Profiled seconds inside ``target`` including its callees."""
    return sum(record[3] for record in _matching(stats, target))
