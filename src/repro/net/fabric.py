"""Flow-level network simulator with max-min fair bandwidth sharing.

Every in-flight transfer is a fluid *flow* along a routed path.  Whenever the
set of active flows changes, bandwidth is re-allocated max-min fairly
(progressive filling): the most-contended link is saturated first, its flows
are fixed at the fair share, and the procedure recurses on the residual
capacities.  This is the standard fluid approximation for congestion-
controlled fabrics such as InfiniBand with credit-based flow control, and it
is exactly the regime that distinguishes the paper's collective algorithms —
the multi-color trees win because their flows *avoid* sharing links, which a
fixed-latency model could not show.

The fabric is driven by the discrete-event :class:`~repro.sim.Engine`: flow
completions are events, and rate changes reschedule the next completion.
Each reallocation runs one progressive-filling pass, which picks every
round's bottleneck link from a lazy heap rather than rescanning all used
links, and schedules one plain timeout for the earliest completion; a later
pass supersedes it through a generation number instead of cancelling it.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.net.topology import Topology
from repro.sim.engine import Engine, Event

__all__ = ["Fabric", "Flow", "FabricStats"]

_BYTES_EPS = 1e-6  # flows with fewer remaining bytes are considered done


@dataclass
class Flow:
    """One in-flight transfer."""

    fid: int
    src: int
    dst: int
    path: tuple[int, ...]
    nbytes: float
    remaining: float
    event: Event
    rate: float = 0.0


@dataclass
class FabricStats:
    """Aggregate fabric counters (useful for tests and reports)."""

    transfers_started: int = 0
    transfers_completed: int = 0
    bytes_completed: float = 0.0
    link_bytes: dict[int, float] = field(default_factory=dict)


class Fabric:
    """Simulates concurrent transfers over a :class:`Topology`."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        *,
        software_overhead: float = 0.0,
        loopback_bandwidth: float = 60e9,
        per_flow_cap: float = math.inf,
    ):
        """
        Parameters
        ----------
        software_overhead:
            Fixed per-message cost (seconds) added before a flow starts —
            models MPI/verbs software stack ("alpha" in alpha-beta models).
        loopback_bandwidth:
            Rate for ``src == dst`` transfers (a host-local memcpy).
        per_flow_cap:
            Upper bound on any single flow's rate (one NIC rail / QP); see
            :class:`~repro.net.params.NetworkParams.per_flow_cap`.
        """
        if software_overhead < 0:
            raise ValueError("software_overhead must be >= 0")
        if loopback_bandwidth <= 0:
            raise ValueError("loopback_bandwidth must be positive")
        if per_flow_cap <= 0:
            raise ValueError("per_flow_cap must be positive")
        self.engine = engine
        self.topology = topology
        self.software_overhead = software_overhead
        self.loopback_bandwidth = loopback_bandwidth
        self.per_flow_cap = per_flow_cap
        self.stats = FabricStats()
        self._active: dict[int, Flow] = {}
        self._next_fid = 0
        self._last_update = 0.0
        self._timer_generation = 0
        self._realloc_pending = False
        self._link_scale: dict[int, float] = {}

    # -- public API --------------------------------------------------------
    @property
    def active_flows(self) -> tuple[Flow, ...]:
        return tuple(self._active.values())

    def transfer(self, src: int, dst: int, nbytes: float) -> Event:
        """Start moving ``nbytes`` from host ``src`` to host ``dst``.

        Returns an event that triggers (value = the :class:`Flow`) when the
        last byte arrives.  Zero-byte transfers still pay latency/overhead.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        ev = self.engine.event()
        self.stats.transfers_started += 1
        fid = self._next_fid
        self._next_fid += 1
        if src == dst:
            duration = self.software_overhead + nbytes / self.loopback_bandwidth
            flow = Flow(fid, src, dst, (), float(nbytes), 0.0, ev)
            self.engine.process(self._delayed_complete(flow, duration))
            return ev
        path = self.topology.route(src, dst)
        delay = self.software_overhead + self.topology.path_latency(path)
        flow = Flow(fid, src, dst, path, float(nbytes), float(nbytes), ev)
        if nbytes <= _BYTES_EPS:
            self.engine.process(self._delayed_complete(flow, delay))
            return ev
        self.engine.process(self._delayed_activate(flow, delay))
        return ev

    def link_bandwidth(self, link_index: int) -> float:
        """Effective bandwidth of a link: nominal capacity times any live
        degradation factor installed by :meth:`scale_links`."""
        nominal = self.topology.links[link_index].params.bandwidth
        return nominal * self._link_scale.get(link_index, 1.0)

    def scale_links(self, link_indices: Iterable[int], factor: float) -> None:
        """Degrade (or restore) links *mid-flight*.

        Unlike :meth:`Topology.with_scaled_links`, which builds a new static
        topology, this changes the capacity seen by flows already on the
        wire: progress at the old rates is accounted first, then the max-min
        shares are recomputed.  ``factor == 1.0`` removes the degradation.
        """
        if not 0 < factor < math.inf:
            raise ValueError(
                f"link scale factor must be finite and positive, got {factor}"
            )
        n_links = len(self.topology.links)
        for li in link_indices:
            if not 0 <= li < n_links:
                raise ValueError(f"link index {li} out of range [0, {n_links})")
            if factor == 1.0:
                self._link_scale.pop(li, None)
            else:
                self._link_scale[li] = factor
        self._update_progress()
        self._request_reallocate()

    def scale_host_links(self, host_rank: int, factor: float) -> None:
        """Scale every link touching ``host_rank`` (a flapping NIC, live)."""
        vertex = self.topology.host(host_rank)
        indices = [
            link.index
            for link in self.topology.links
            if vertex in (link.src, link.dst)
        ]
        self.scale_links(indices, factor)

    # -- internals -----------------------------------------------------------
    def _delayed_complete(self, flow: Flow, delay: float):
        yield self.engine.timeout(delay)
        self._finish(flow)

    def _delayed_activate(self, flow: Flow, delay: float):
        yield self.engine.timeout(delay)
        self._update_progress()
        self._active[flow.fid] = flow
        self._request_reallocate()

    def _request_reallocate(self) -> None:
        """Coalesce rate recomputation: many flow arrivals/completions at
        one simulation timestamp trigger a single max-min pass."""
        if self._realloc_pending:
            return
        self._realloc_pending = True
        ev = Event(self.engine)
        ev.callbacks.append(self._run_reallocate)
        ev.succeed()

    def _run_reallocate(self, _ev: Event) -> None:
        self._realloc_pending = False
        self._reallocate()

    def _finish(self, flow: Flow) -> None:
        self.stats.transfers_completed += 1
        self.stats.bytes_completed += flow.nbytes
        for link in flow.path:
            self.stats.link_bytes[link] = (
                self.stats.link_bytes.get(link, 0.0) + flow.nbytes
            )
        flow.event.succeed(flow)

    def _update_progress(self) -> None:
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._active.values():
                flow.remaining -= flow.rate * dt
        self._last_update = now

    def _reallocate(self) -> None:
        """Recompute max-min fair rates and schedule the next completion.

        One plain timeout carries the timer generation as its value; a later
        reallocation bumps the generation, so a superseded timer that still
        fires finds a mismatch and does nothing.
        """
        self._compute_maxmin_rates()
        self._timer_generation += 1
        if not self._active:
            return
        horizon = min(
            (f.remaining / f.rate) for f in self._active.values() if f.rate > 0
        )
        timer = self.engine.timeout(max(horizon, 0.0), self._timer_generation)
        timer.callbacks.append(self._completion_timer)

    def _completion_timer(self, timer: Event) -> None:
        if timer.value != self._timer_generation:
            return  # superseded by a later reallocation
        self._update_progress()
        finished = [
            f for f in self._active.values() if f.remaining <= _BYTES_EPS * f.nbytes
        ]
        if not finished:
            # Numerical guard: force the closest flow to completion.
            finished = [min(self._active.values(), key=lambda f: f.remaining)]
        for flow in finished:
            del self._active[flow.fid]
            self._finish(flow)
        self._request_reallocate()

    def _compute_maxmin_rates(self) -> None:
        """Progressive-filling max-min fair allocation over active flows.

        Each round saturates the link with the smallest fair share
        ``residual / unfixed`` and fixes that link's unfixed flows at the
        share.  Used links are numbered in first-seen order (active flows in
        insertion order, then path order), and the bottleneck comes from a
        lazy min-heap keyed ``(share, number)``: an entry is live only while
        its key still equals the link's current share, and every link a
        round touches gets one fresh entry.  The number breaks exact ties the
        way a first-seen scan would, and flows are fixed in that order with a
        sequential clamp at zero, so every rate is the same float a full
        rescan gives.  A pass costs O(flows * path_length * log(used_links)).
        """
        flows = list(self._active.values())
        if not flows:
            return
        links = self.topology.links
        scale = self._link_scale
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
        cap = self.per_flow_cap
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
