"""Unit tests for topologies and routing."""

from collections import deque

import pytest

from repro.net import LinkParams, NetworkParams, fat_tree, full_mesh, ring, star
from repro.utils.rng import derive_seed

SIMPLE = NetworkParams(
    host_link=LinkParams(bandwidth=100.0, latency=1e-3),
    fabric_link=LinkParams(bandwidth=100.0, latency=1e-3),
    software_overhead=0.0,
)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(bandwidth=0.0, latency=0.0)
    with pytest.raises(ValueError):
        LinkParams(bandwidth=1.0, latency=-1.0)


def test_serialization_time():
    lp = LinkParams(bandwidth=200.0, latency=0.0)
    assert lp.serialization_time(100.0) == pytest.approx(0.5)


def test_star_routes_two_hops():
    topo = star(4, SIMPLE)
    path = topo.route(0, 3)
    assert len(path) == 2
    assert topo.links[path[0]].src == "h0"
    assert topo.links[path[-1]].dst == "h3"


def test_route_loopback_empty():
    topo = star(4, SIMPLE)
    assert topo.route(2, 2) == ()
    assert topo.path_bottleneck(()) == float("inf")


def test_route_is_cached_and_deterministic():
    topo = fat_tree(16, SIMPLE, hosts_per_leaf=4)
    p1 = topo.route(0, 9)
    p2 = topo.route(0, 9)
    assert p1 == p2
    # fresh topology gives identical routing
    topo2 = fat_tree(16, SIMPLE, hosts_per_leaf=4)
    assert topo2.route(0, 9) == p1


def _uncached_route(topo, src, dst):
    """Shortest path with the same ECMP rule, from a fresh reverse BFS."""
    into = {}
    for link in topo.links:
        into.setdefault(link.dst, []).append(link)
    target = topo.host(dst)
    dist = {target: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for link in into.get(v, ()):
            if link.src not in dist:
                dist[link.src] = dist[v] + 1
                queue.append(link.src)
    path, vertex = [], topo.host(src)
    while vertex != target:
        nxt = [
            link for link in topo.out_links(vertex)
            if dist.get(link.dst, -1) == dist[vertex] - 1
        ]
        chosen = nxt[derive_seed(0, (src, dst), vertex, len(path)) % len(nxt)]
        path.append(chosen.index)
        vertex = chosen.dst
    return tuple(path)


@pytest.mark.parametrize(
    "topo", [fat_tree(64, SIMPLE), ring(8, SIMPLE)], ids=["fat_tree64", "ring8"]
)
def test_cached_routes_match_uncached_bfs(topo):
    n = topo.n_hosts
    for src in range(n):
        for dst in range(n):
            if src != dst:
                assert topo.route(src, dst) == _uncached_route(topo, src, dst)


def test_add_link_invalidates_route_distances():
    topo = ring(8, SIMPLE)
    assert len(topo.route(0, 4)) == 4
    assert len(topo.route(1, 4)) == 3  # distances to h4 now cached
    topo.add_link("h0", "h4", SIMPLE.host_link)
    assert len(topo.route(0, 4)) == 1
    assert topo.route(1, 4) == _uncached_route(topo, 1, 4)


def test_fat_tree_hop_counts():
    topo = fat_tree(16, SIMPLE, hosts_per_leaf=4)
    # same leaf: host->leaf->host
    assert len(topo.route(0, 1)) == 2
    # cross leaf: host->leaf->spine->leaf->host
    assert len(topo.route(0, 15)) == 4


def test_fat_tree_single_leaf_degenerates_to_star():
    topo = fat_tree(3, SIMPLE, hosts_per_leaf=4)
    assert len(topo.route(0, 2)) == 2


def test_fat_tree_oversubscription_shrinks_uplinks():
    non_blocking = fat_tree(8, SIMPLE, hosts_per_leaf=4, oversubscription=1.0)
    oversub = fat_tree(8, SIMPLE, hosts_per_leaf=4, oversubscription=2.0)

    def uplink_bw(topo):
        return sum(
            l.params.bandwidth
            for l in topo.links
            if l.src == "s:leaf0" and l.dst.startswith("s:spine")
        )

    assert uplink_bw(oversub) == pytest.approx(uplink_bw(non_blocking) / 2)


def test_fat_tree_validation():
    with pytest.raises(ValueError):
        fat_tree(0, SIMPLE)
    with pytest.raises(ValueError):
        fat_tree(8, SIMPLE, hosts_per_leaf=0)
    with pytest.raises(ValueError):
        fat_tree(8, SIMPLE, oversubscription=0.5)


def test_ring_neighbors_one_hop():
    topo = ring(6, SIMPLE)
    assert len(topo.route(2, 3)) == 1
    assert len(topo.route(5, 0)) == 1  # wraps around
    # opposite side of ring: 3 hops either way
    assert len(topo.route(0, 3)) == 3


def test_ring_validation():
    with pytest.raises(ValueError):
        ring(1, SIMPLE)


def test_full_mesh_single_hop_everywhere():
    topo = full_mesh(5, SIMPLE)
    for a in range(5):
        for b in range(5):
            if a != b:
                assert len(topo.route(a, b)) == 1


def test_path_latency_sums_links():
    topo = star(2, SIMPLE)
    path = topo.route(0, 1)
    assert topo.path_latency(path) == pytest.approx(2e-3)


def test_host_rank_bounds():
    topo = star(2, SIMPLE)
    with pytest.raises(ValueError):
        topo.host(2)
    with pytest.raises(ValueError):
        topo.host(-1)


def test_no_route_raises():
    from repro.net.topology import Topology

    topo = Topology(name="broken", n_hosts=2)
    topo.add_cable("h0", "s:a", SIMPLE.host_link)
    # h1 never wired up
    with pytest.raises(ValueError, match="no route"):
        topo.route(0, 1)
