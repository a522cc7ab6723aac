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

The fabric is driven by the discrete-event :class:`~repro.sim.Engine`: a
flow's start after its latency, a loopback's completion and the next flow
completion are each one plain timeout with a callback.  Each reallocation
runs one progressive-filling pass and schedules one timeout for the earliest
completion; a later pass supersedes it through a generation number instead
of cancelling it.

Passes are warm-started.  Consecutive passes differ by a few arrivals and
departures, so each pass replays the previous pass's filling rounds up to
the first round a changed flow could alter and refills only from there:

* **State kept across passes.**  Per link: its active flows in activation
  order, a tie-break key (the first flow's activation order, then the
  link's position in its path) and a history of ``(round, residual,
  unfixed)`` after every round that touched it.  Per round: the flows it
  fixed and the running maximum of its share.  Per flow: the round that
  fixed it.  Arrivals and departures are queued as they happen and folded
  in at the next pass as per-link changes ``delta`` of the unfixed count.
* **Divergence round D.**  A link is *changed* if a queued flow crosses it.
  Before a round, a link's residual depends only on which flows are fixed
  and at what share, so the old rounds repeat until (a) a round's
  bottleneck is a changed link, or (b) a changed link's new share
  ``residual / (unfixed + delta)`` is at most the round's share.  A
  departed flow's bottleneck is on its own path, so it was fixed at a round
  >= D.  Ties count as divergence, so the key never has to be compared
  with a replayed round's.
* **Cap round.**  The round in which every remaining flow is rail-limited
  (share >= ``per_flow_cap``) is logged too.  If D falls after it, no
  changed link's new share is below the cap, and the arrivals simply get
  the cap.
* **Refill.**  Otherwise each touched link's history is cut at D, the
  changed links' unfixed counts move by ``delta``, the flows fixed at
  rounds >= D and the arrivals are reset, and filling resumes at D.
* :meth:`Fabric.scale_links` changes capacities, so the next pass
  re-solves from round 0.

Every rate is the same float a from-scratch solve gives:
``tests/net/maxmin_oracle.py`` keeps that solver, and
``tests/net/test_maxmin_warm.py`` compares the two after every pass.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.net.topology import Topology
from repro.sim.engine import Engine, Event

__all__ = ["Fabric", "Flow", "FabricStats"]

_BYTES_EPS = 1e-6  # flows with fewer remaining bytes are considered done
_UNFIXED = -1  # ``Flow._round`` of a flow the solver has not fixed yet
_DEPARTED = -2  # ``Flow._round`` of a finished flow
_NEVER = 1 << 62  # bottleneck round of a link that is not a bottleneck


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
    # Max-min solver state: the hop key of the flow's first link (-1 until
    # a pass first sees it) and the filling round that fixed its rate.
    _hop: int = field(default=-1, init=False, repr=False, compare=False)
    _round: int = field(default=_UNFIXED, init=False, repr=False, compare=False)


@dataclass
class FabricStats:
    """Aggregate fabric counters (useful for tests and reports).

    ``maxmin_passes`` counts reallocations; each pass's filling rounds are
    either replayed from the previous pass or refilled.
    """

    transfers_started: int = 0
    transfers_completed: int = 0
    bytes_completed: float = 0.0
    link_bytes: dict[int, float] = field(default_factory=dict)
    maxmin_passes: int = 0
    maxmin_rounds_replayed: int = 0
    maxmin_rounds_refilled: int = 0


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
        # Warm-start state of the max-min solver (module docstring).
        self._arrivals: list[Flow] = []
        self._departures: list[Flow] = []
        self._resolve = True  # capacities changed: re-solve from round 0
        self._next_hop = 0
        # Per link index:
        self._capacity: list[float] = []
        self._members: list[dict[int, Flow]] = []  # hop key -> flow, in order
        self._key: list[int] = []  # hop key of the first member
        self._history: list[list[tuple[int, float, int]]] = []
        self._bottleneck_round: list[int] = []
        self._residual: list[float] = []  # filling state at the current round
        self._unfixed: list[int] = []
        # Per filling round:
        self._fixed_in: list[list[Flow]] = []
        self._reach: list[float] = []  # running max of the round thresholds
        self._capped = False  # the last round is a cap round

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
            self.engine.timeout(duration, flow).callbacks.append(self._complete)
            return ev
        path = self.topology.route(src, dst)
        delay = self.software_overhead + self.topology.path_latency(path)
        flow = Flow(fid, src, dst, path, float(nbytes), float(nbytes), ev)
        if nbytes <= _BYTES_EPS:
            self.engine.timeout(delay, flow).callbacks.append(self._complete)
            return ev
        self.engine.timeout(delay, flow).callbacks.append(self._activate)
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
        shares are recomputed from scratch.  ``factor == 1.0`` removes the
        degradation.
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
        self._resolve = True
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
    def _complete(self, timer: Event) -> None:
        self._finish(timer.value)

    def _activate(self, timer: Event) -> None:
        flow = timer.value
        self._update_progress()
        self._active[flow.fid] = flow
        self._arrivals.append(flow)
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
            flow._round = _DEPARTED
            self._departures.append(flow)
            self._finish(flow)
        self._request_reallocate()

    # -- warm-started max-min -----------------------------------------------
    def _compute_maxmin_rates(self) -> None:
        """Progressive-filling max-min fair allocation, warm-started.

        Each round saturates the link with the smallest fair share
        ``residual / unfixed`` and fixes that link's unfixed flows at the
        share, in activation order, subtracting it from every link on their
        paths with a sequential clamp at zero.  Exact ties go to the
        smaller key, which orders links as a first-seen scan of the active
        flows' paths would; the bottleneck comes from a lazy min-heap keyed
        ``(share, key)``, whose entry is live only while its share is the
        link's current one.

        The pass replays the logged rounds before the divergence round D
        (:meth:`_divergence_round`: rules (a) and (b) of the module
        docstring) and refills from D on, or carries the cap round over; a
        :meth:`scale_links` pass re-solves from round 0.  Either way every
        rate is the float a from-scratch solve gives.  A refill costs
        O(hops of the reset flows * log(links)).
        """
        self.stats.maxmin_passes += 1
        resolve = self._resolve or len(self._capacity) != len(self.topology.links)
        if resolve:
            self._sync_links()
        arrivals, delta = self._fold_flow_changes()
        start = 0 if resolve else self._divergence_round(delta)

        log = self._fixed_in
        cap = self.per_flow_cap
        refill: list[Flow] = []
        if start == len(log) and self._capped:
            # Every flow is still rail-limited: arrivals join the cap round.
            last = log[-1]
            last[:] = [flow for flow in last if flow._round >= 0]
            for flow in arrivals:
                flow.rate = cap
                flow._round = start - 1
                last.append(flow)
            if not last:  # every capped flow left and none arrived
                start -= 1
                del log[start:]
                del self._reach[start:]
                self._capped = False
        else:
            for flows in log[start:]:
                for flow in flows:
                    if flow._round >= 0:
                        flow._round = _UNFIXED
                        refill.append(flow)
            del log[start:]
            del self._reach[start:]
            self._capped = False
            refill.extend(arrivals)
        self.stats.maxmin_rounds_replayed += start

        # Cut the history of every link that a reset flow or a changed
        # link touches at ``start``; move the changed links' unfixed counts
        # by their delta.
        members = self._members
        history = self._history
        bottleneck_round = self._bottleneck_round
        restore = set(delta)
        for flow in refill:
            restore.update(flow.path)
        for li in restore:
            hist = history[li]
            while hist and hist[-1][0] >= start:
                hist.pop()
            if bottleneck_round[li] >= start:
                bottleneck_round[li] = _NEVER
        for li, d in delta.items():
            if d:
                history[li][:] = [(r, left, n + d) for r, left, n in history[li]]
        if not refill:
            return

        # Restore those links to their state before round ``start``.
        capacity = self._capacity
        key = self._key
        residual = self._residual
        unfixed = self._unfixed
        heap = []
        for li in restore:
            hist = history[li]
            if hist:
                _, left, n = hist[-1]
            else:
                left, n = capacity[li], len(members[li])
            residual[li] = left
            unfixed[li] = n
            if n:
                heap.append((left / n, key[li], li))
        heapq.heapify(heap)
        reach = self._reach
        top = reach[-1] if reach else 0.0
        r = start
        n_unfixed = len(refill)
        while n_unfixed:
            if not heap:
                raise RuntimeError("active flow with no links (fabric bug)")
            share, _, j = heapq.heappop(heap)
            n = unfixed[j]
            if not n or residual[j] / n != share:
                continue  # stale entry: the link's share moved since the push
            if share >= cap:
                # Every remaining flow is rail-limited, not link-limited.
                fixed = [flow for flow in refill if flow._round < 0]
                for flow in fixed:
                    flow.rate = cap
                    flow._round = r
                log.append(fixed)
                # Rule (b) at a cap round is "new share < cap".
                reach.append(math.nextafter(cap, -math.inf))
                self._capped = True
                r += 1
                break
            bottleneck_round[j] = r
            fixed = []
            touched = set()
            for flow in members[j].values():
                if flow._round >= 0:
                    continue
                flow._round = r
                flow.rate = share
                fixed.append(flow)
                path = flow.path
                for i in path:
                    left = residual[i] - share
                    residual[i] = left if left > 0.0 else 0.0
                    unfixed[i] -= 1
                touched.update(path)
            n_unfixed -= len(fixed)
            for i in touched:
                n = unfixed[i]
                left = residual[i]
                history[i].append((r, left, n))
                if n:
                    heapq.heappush(heap, (left / n, key[i], i))
            log.append(fixed)
            if share > top:
                top = share
            reach.append(top)
            r += 1
        self.stats.maxmin_rounds_refilled += r - start

    def _sync_links(self) -> None:
        """Re-read every link's capacity and track links added since."""
        self._resolve = False
        links = self.topology.links
        scale = self._link_scale
        self._capacity = [
            link.params.bandwidth * scale.get(li, 1.0) for li, link in enumerate(links)
        ]
        for _ in range(len(self._members), len(links)):
            self._members.append({})
            self._key.append(0)
            self._history.append([])
            self._bottleneck_round.append(_NEVER)
            self._residual.append(0.0)
            self._unfixed.append(0)

    def _fold_flow_changes(self) -> tuple[list[Flow], dict[int, int]]:
        """Move queued departures and arrivals into the per-link member
        maps.  Returns the arrivals and, per changed link, the change in
        its member count; a changed link's key is recomputed."""
        members = self._members
        delta: dict[int, int] = {}
        for flow in self._departures:
            hop = flow._hop
            if hop < 0:
                continue  # finished before any pass saw it
            for li in flow.path:
                del members[li][hop]
                hop += 1
                delta[li] = delta.get(li, 0) - 1
        self._departures.clear()
        arrivals = []
        for flow in self._arrivals:
            if flow._round == _DEPARTED:
                continue
            flow._hop = hop = self._next_hop
            self._next_hop += len(flow.path)
            for li in flow.path:
                members[li][hop] = flow
                hop += 1
                delta[li] = delta.get(li, 0) + 1
            arrivals.append(flow)
        self._arrivals.clear()
        key = self._key
        for li in delta:
            if members[li]:
                key[li] = next(iter(members[li]))
        return arrivals, delta

    def _divergence_round(self, delta: dict[int, int]) -> int:
        """The first logged round that the changed links could alter.

        Rule (a): a changed link was that round's bottleneck.  Rule (b): a
        changed link's new share, ``residual / (unfixed + delta)`` as it
        stood before the round, is at most the round's share.  Shares are
        found by bisecting the running maximum of the round shares, which
        can only report a round early, never late.
        """
        reach = self._reach
        start = len(reach)
        bottleneck_round = self._bottleneck_round
        for li in delta:
            if bottleneck_round[li] < start:
                start = bottleneck_round[li]
        capacity = self._capacity
        members = self._members
        history = self._history
        for li, d in delta.items():
            if not start:
                break
            # The link's state before rounds lo..r is what the previous
            # history entry (or round 0) left; new members count from it.
            left, n, lo = capacity[li], len(members[li]), 0
            for r, after, unfixed in history[li]:
                if lo >= start:
                    break
                hi = r + 1 if r + 1 < start else start
                if n > 0:
                    i = bisect_left(reach, left / n, lo, hi)
                    if i < hi:
                        start = i
                        break
                left, n, lo = after, unfixed + d, r + 1
            else:
                if n > 0 and lo < start:
                    start = bisect_left(reach, left / n, lo, start)
        return start
