"""Network topologies: vertices, links and deterministic routing.

Vertices are hosts (``"h<i>"``) or switches (``"s:<name>"``); hosts are
addressed by integer rank in the public API.  Each cable contributes two
directed links so that opposite directions never contend (full duplex, as on
InfiniBand).

Routing is shortest-path with deterministic ECMP: among equal-cost next
hops, the choice is keyed by a hash of ``(src, dst)`` — the standard
switch behaviour the paper's multi-color trees are designed around.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.net.params import LinkParams, NetworkParams
from repro.utils.rng import derive_seed

__all__ = ["Topology", "fat_tree", "star", "ring", "full_mesh"]


@dataclass(frozen=True)
class Link:
    """A directed link ``src -> dst``."""

    index: int
    src: str
    dst: str
    params: LinkParams


@dataclass
class Topology:
    """A directed graph of hosts and switches with capacitated links."""

    name: str
    n_hosts: int
    links: list[Link] = field(default_factory=list)
    _adjacency: dict[str, list[int]] = field(default_factory=dict)
    _route_cache: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    _dist_cache: dict[str, dict[str, int]] = field(default_factory=dict)

    def host(self, rank: int) -> str:
        """Vertex name of host ``rank``."""
        if not 0 <= rank < self.n_hosts:
            raise ValueError(f"host rank {rank} out of range [0, {self.n_hosts})")
        return f"h{rank}"

    def add_link(self, src: str, dst: str, params: LinkParams) -> int:
        """Add one directed link; returns its index."""
        idx = len(self.links)
        self.links.append(Link(idx, src, dst, params))
        self._adjacency.setdefault(src, []).append(idx)
        self._route_cache.clear()
        self._dist_cache.clear()
        return idx

    def add_cable(self, a: str, b: str, params: LinkParams) -> tuple[int, int]:
        """Add a full-duplex cable (two directed links)."""
        return self.add_link(a, b, params), self.add_link(b, a, params)

    @property
    def vertices(self) -> set[str]:
        verts = set(self._adjacency)
        for link in self.links:
            verts.add(link.dst)
        return verts

    def out_links(self, vertex: str) -> list[Link]:
        return [self.links[i] for i in self._adjacency.get(vertex, [])]

    # -- routing ------------------------------------------------------------
    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Link indices along the path from host ``src`` to host ``dst``.

        The empty tuple denotes a loopback (``src == dst``).  Paths are
        shortest by hop count with deterministic ECMP tie-breaking, and are
        cached.
        """
        if src == dst:
            return ()
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        path = self._bfs_route(self.host(src), self.host(dst), ecmp_key=key)
        self._route_cache[key] = path
        return path

    def _hops_to(self, dst: str) -> dict[str, int]:
        """Hop distance from every vertex to ``dst`` (BFS on the reverse
        graph), cached per destination until the next :meth:`add_link`."""
        dist = self._dist_cache.get(dst)
        if dist is not None:
            return dist
        rev: dict[str, list[Link]] = {}
        for link in self.links:
            rev.setdefault(link.dst, []).append(link)
        dist = {dst: 0}
        queue = deque([dst])
        while queue:
            v = queue.popleft()
            for link in rev.get(v, ()):
                if link.src not in dist:
                    dist[link.src] = dist[v] + 1
                    queue.append(link.src)
        self._dist_cache[dst] = dist
        return dist

    def _bfs_route(
        self, src: str, dst: str, ecmp_key: tuple[int, int]
    ) -> tuple[int, ...]:
        # Walk forward from src, choosing among next hops one step closer to
        # dst by ECMP hash.
        dist = self._hops_to(dst)
        if src not in dist:
            raise ValueError(f"no route from {src} to {dst} in topology {self.name!r}")
        path: list[int] = []
        vertex = src
        hop = 0
        while vertex != dst:
            candidates = [
                link
                for link in self.out_links(vertex)
                if dist.get(link.dst, 1 << 30) == dist[vertex] - 1
            ]
            if not candidates:
                raise ValueError(f"routing dead-end at {vertex} (topology bug)")
            pick = derive_seed(0, ecmp_key, vertex, hop) % len(candidates)
            chosen = candidates[pick]
            path.append(chosen.index)
            vertex = chosen.dst
            hop += 1
        return tuple(path)

    def with_scaled_links(self, vertex: str, factor: float) -> "Topology":
        """A copy with every link touching ``vertex`` scaled by ``factor``.

        Used for fault injection: ``factor < 1`` models a degraded NIC or
        flapping cable on one host/switch.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        clone = Topology(name=f"{self.name}[{vertex}x{factor}]", n_hosts=self.n_hosts)
        for link in self.links:
            params = link.params
            if link.src == vertex or link.dst == vertex:
                params = LinkParams(
                    bandwidth=params.bandwidth * factor, latency=params.latency
                )
            clone.add_link(link.src, link.dst, params)
        return clone

    def path_latency(self, path: tuple[int, ...]) -> float:
        """Sum of link propagation latencies along ``path``."""
        return sum(self.links[i].params.latency for i in path)

    def path_bottleneck(self, path: tuple[int, ...]) -> float:
        """Minimum link bandwidth along ``path`` (B/s); inf for loopback."""
        if not path:
            return float("inf")
        return min(self.links[i].params.bandwidth for i in path)


def star(n_hosts: int, params: NetworkParams, name: str = "star") -> Topology:
    """All hosts attached to one non-blocking crossbar switch."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    topo = Topology(name=name, n_hosts=n_hosts)
    for h in range(n_hosts):
        topo.add_cable(topo.host(h), "s:x", params.host_link)
    return topo


def fat_tree(
    n_hosts: int,
    params: NetworkParams,
    hosts_per_leaf: int = 4,
    oversubscription: float = 1.0,
    name: str = "fat-tree",
) -> Topology:
    """A two-level leaf/spine fat tree.

    ``oversubscription`` > 1 shrinks aggregate uplink capacity relative to
    downlink capacity (1.0 = non-blocking, as on the paper's cluster).  The
    number of spines equals the uplinks per leaf, which is ``hosts_per_leaf /
    oversubscription`` rounded up (minimum 1).
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    if hosts_per_leaf < 1:
        raise ValueError("hosts_per_leaf must be >= 1")
    if oversubscription < 1.0:
        raise ValueError("oversubscription must be >= 1.0")
    topo = Topology(name=name, n_hosts=n_hosts)
    n_leaves = (n_hosts + hosts_per_leaf - 1) // hosts_per_leaf
    n_spines = max(1, round(hosts_per_leaf / oversubscription))
    if n_leaves == 1:
        # Degenerate: a single leaf is just a star.
        for h in range(n_hosts):
            topo.add_cable(topo.host(h), "s:leaf0", params.host_link)
        return topo
    for h in range(n_hosts):
        leaf = f"s:leaf{h // hosts_per_leaf}"
        topo.add_cable(topo.host(h), leaf, params.host_link)
    # Size each leaf-spine cable so a leaf's aggregate uplink bandwidth is
    # hosts_per_leaf * host_bw / oversubscription, split across spines.
    uplink_bw = (
        hosts_per_leaf * params.host_link.bandwidth / (oversubscription * n_spines)
    )
    uplink = LinkParams(bandwidth=uplink_bw, latency=params.fabric_link.latency)
    for leaf_idx in range(n_leaves):
        for spine_idx in range(n_spines):
            topo.add_cable(f"s:leaf{leaf_idx}", f"s:spine{spine_idx}", uplink)
    return topo


def ring(n_hosts: int, params: NetworkParams, name: str = "ring") -> Topology:
    """Hosts connected directly in a bidirectional ring (no switches)."""
    if n_hosts < 2:
        raise ValueError("a ring needs at least two hosts")
    topo = Topology(name=name, n_hosts=n_hosts)
    for h in range(n_hosts):
        topo.add_cable(topo.host(h), topo.host((h + 1) % n_hosts), params.host_link)
    return topo


def full_mesh(n_hosts: int, params: NetworkParams, name: str = "mesh") -> Topology:
    """Every pair of hosts connected directly (idealized network)."""
    if n_hosts < 2:
        raise ValueError("a mesh needs at least two hosts")
    topo = Topology(name=name, n_hosts=n_hosts)
    for a in range(n_hosts):
        for b in range(a + 1, n_hosts):
            topo.add_cable(topo.host(a), topo.host(b), params.host_link)
    return topo
