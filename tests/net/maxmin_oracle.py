"""The retired from-scratch max-min solver, kept as a test oracle.

:meth:`repro.net.Fabric._compute_maxmin_rates` warm-starts every pass from
the previous pass's filling rounds.  This module keeps the solver it
replaced, which re-solves every pass from nothing: links are numbered in
first-seen order and each round's bottleneck is popped from a lazy heap.
It reads only the topology, the scale factors and the flows' paths, so
agreement between the two (every rate's ``float.hex``, after every
reallocation) checks the warm start.  ``tests/net/test_maxmin_warm.py``
runs that differential check.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from types import SimpleNamespace

from repro.net.topology import Topology

__all__ = ["oracle_maxmin_rates"]


def oracle_maxmin_rates(
    topology: Topology,
    link_scale: dict[int, float],
    per_flow_cap: float,
    flow_paths: Sequence[tuple[int, ...]],
) -> list[float]:
    """Max-min fair rates of flows on ``flow_paths``, in activation order."""
    flows = [SimpleNamespace(path=path, rate=0.0) for path in flow_paths]
    if not flows:
        return []
    links = topology.links
    scale = link_scale
    number: dict[int, int] = {}  # link index -> first-seen number
    residual: list[float] = []
    members: list[list[int]] = []  # positions in ``flows``, per link
    paths: list[list[int]] = []  # each flow's path as link numbers
    for k, flow in enumerate(flows):
        flow.rate = 0.0
        path = []
        for li in flow.path:
            j = number.get(li)
            if j is None:
                j = number[li] = len(residual)
                residual.append(links[li].params.bandwidth * scale.get(li, 1.0))
                members.append([k])
            else:
                members[j].append(k)
            path.append(j)
        paths.append(path)
    unfixed = [len(m) for m in members]
    heap = [(r / n, j) for j, (r, n) in enumerate(zip(residual, unfixed))]
    heapq.heapify(heap)
    fixed = bytearray(len(flows))
    n_unfixed = len(flows)
    cap = per_flow_cap
    while n_unfixed:
        if not heap:
            raise RuntimeError("active flow with no links (fabric bug)")
        share, j = heapq.heappop(heap)
        n = unfixed[j]
        if not n or residual[j] / n != share:
            continue  # stale entry: the link's share moved since the push
        if share >= cap:
            # Every remaining flow is rail-limited, not link-limited.
            for k, flow in enumerate(flows):
                if not fixed[k]:
                    flow.rate = cap
            break
        touched: set[int] = set()
        for k in members[j]:
            if fixed[k]:
                continue
            fixed[k] = 1
            flows[k].rate = share
            n_unfixed -= 1
            path = paths[k]
            for i in path:
                left = residual[i] - share
                residual[i] = left if left > 0.0 else 0.0
                unfixed[i] -= 1
            touched.update(path)
        for i in touched:
            n = unfixed[i]
            if n:
                heapq.heappush(heap, (residual[i] / n, i))
    return [flow.rate for flow in flows]
