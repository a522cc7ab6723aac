"""Property-based tests for the flow fabric (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Fabric, LinkParams, NetworkParams, fat_tree, star
from repro.sim import Engine

FAST = NetworkParams(
    host_link=LinkParams(bandwidth=100.0, latency=0.0),
    fabric_link=LinkParams(bandwidth=100.0, latency=0.0),
    software_overhead=0.0,
)


@settings(max_examples=25, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(0, 7),          # src
            st.integers(0, 7),          # dst
            st.floats(1.0, 500.0),      # bytes
            st.floats(0.0, 5.0),        # start offset
        ),
        min_size=1,
        max_size=20,
    )
)
def test_all_transfers_complete_and_conserve_bytes(transfers):
    eng = Engine()
    fab = Fabric(eng, star(8, FAST))
    total = 0.0

    def launch(src, dst, nbytes, offset):
        yield eng.timeout(offset)
        yield fab.transfer(src, dst, nbytes)

    for src, dst, nbytes, offset in transfers:
        total += nbytes
        eng.process(launch(src, dst, nbytes, offset))
    eng.run()
    assert fab.stats.transfers_completed == len(transfers)
    assert fab.stats.bytes_completed == pytest.approx(total)
    assert not fab.active_flows


@settings(max_examples=25, deadline=None)
@given(
    n_flows=st.integers(1, 12),
    nbytes=st.floats(10.0, 1000.0),
)
def test_completion_no_faster_than_physics(n_flows, nbytes):
    """n identical flows into one sink take >= n * nbytes / bandwidth."""
    eng = Engine()
    fab = Fabric(eng, star(8, FAST))
    evs = [fab.transfer(src % 7, 7, nbytes) for src in range(n_flows)]
    eng.run(eng.all_of(evs))
    lower_bound = n_flows * nbytes / 100.0
    assert eng.now >= lower_bound * (1 - 1e-9)


@settings(max_examples=15, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        min_size=2,
        max_size=12,
    ),
    cap=st.floats(10.0, 100.0),
)
def test_per_flow_cap_respected(pairs, cap):
    eng = Engine()
    topo = fat_tree(16, FAST, hosts_per_leaf=4)
    fab = Fabric(eng, topo, per_flow_cap=cap)
    evs = [fab.transfer(a, b, 200.0) for a, b in pairs]

    def audit():
        while fab.stats.transfers_completed < len(evs):
            for flow in fab.active_flows:
                assert flow.rate <= cap * (1 + 1e-9)
            yield eng.timeout(0.05)

    eng.process(audit())
    eng.run(eng.all_of(evs))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000))
def test_fabric_deterministic(seed):
    import numpy as np

    def simulate():
        rng = np.random.default_rng(seed)
        eng = Engine()
        fab = Fabric(eng, star(6, FAST))
        finish = []
        evs = []
        for _ in range(8):
            src, dst = rng.integers(0, 6, size=2)
            if src == dst:
                dst = (dst + 1) % 6
            ev = fab.transfer(int(src), int(dst), float(rng.uniform(10, 300)))
            ev.callbacks.append(lambda _e: finish.append(eng.now))
            evs.append(ev)
        eng.run(eng.all_of(evs))
        return finish

    assert simulate() == simulate()


# -- max-min optimality certificate --------------------------------------------
#
# A feasible allocation is max-min fair iff every flow either sits at the
# per-flow cap or crosses a saturated link on which no other flow is faster.
# The check below uses only the topology, the scale factors the test itself
# applied and the rates the fabric reports, never the solver.

_REL = 1e-9


def _audit_every_reallocation(fab, cap, scale):
    """Wrap ``fab._reallocate`` so the certificate is checked after each
    pass; returns the list of simulated times at which it was checked."""
    checked = []
    solve = fab._reallocate

    def audited():
        solve()
        _assert_maxmin_certificate(fab, cap, scale)
        checked.append(fab.engine.now)

    fab._reallocate = audited
    return checked


def _assert_maxmin_certificate(fab, cap, scale):
    links = fab.topology.links
    load: dict[int, float] = {}
    fastest: dict[int, float] = {}
    for flow in fab.active_flows:
        assert flow.rate <= cap * (1 + _REL)
        for li in flow.path:
            load[li] = load.get(li, 0.0) + flow.rate
            fastest[li] = max(fastest.get(li, 0.0), flow.rate)

    def capacity(li):
        return links[li].params.bandwidth * scale.get(li, 1.0)

    for li, total in load.items():
        assert total <= capacity(li) * (1 + _REL), f"link {li} oversubscribed"
    for flow in fab.active_flows:
        if flow.rate >= cap * (1 - _REL):
            continue
        assert any(
            load[li] >= capacity(li) * (1 - _REL)
            and flow.rate >= fastest[li] * (1 - _REL)
            for li in flow.path
        ), f"flow {flow.fid} at {flow.rate} has no bottleneck link"


def _topology(kind):
    if kind == "star":
        return star(8, FAST)
    if kind == "fat-tree":
        return fat_tree(16, FAST, hosts_per_leaf=4)
    return fat_tree(16, FAST, hosts_per_leaf=4, oversubscription=2.0)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["star", "fat-tree", "fat-tree-oversubscribed"]),
    transfers=st.lists(
        st.tuples(
            st.integers(0, 15),         # src (mod hosts)
            st.integers(0, 15),         # dst (mod hosts)
            st.floats(1.0, 500.0),      # bytes
            st.floats(0.0, 5.0),        # start offset
        ),
        min_size=1,
        max_size=24,
    ),
    cap=st.one_of(st.just(math.inf), st.floats(5.0, 150.0)),
    rescales=st.lists(
        st.tuples(
            st.floats(0.0, 6.0),        # when
            st.integers(0, 1 << 16),    # link (mod links)
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
        ),
        max_size=6,
    ),
)
def test_rates_carry_maxmin_certificate(kind, transfers, cap, rescales):
    eng = Engine()
    topo = _topology(kind)
    fab = Fabric(eng, topo, per_flow_cap=cap)
    scale: dict[int, float] = {}
    checked = _audit_every_reallocation(fab, cap, scale)
    n = topo.n_hosts

    def launch(src, dst, nbytes, offset):
        yield eng.timeout(offset)
        yield fab.transfer(src, dst, nbytes)

    def rescale(when, li, factor):
        yield eng.timeout(when)
        if factor == 1.0:
            scale.pop(li, None)
        else:
            scale[li] = factor
        fab.scale_links([li], factor)

    for src, dst, nbytes, offset in transfers:
        eng.process(launch(src % n, dst % n, nbytes, offset))
    for when, link, factor in rescales:
        eng.process(rescale(when, link % len(topo.links), factor))
    eng.run()
    assert fab.stats.transfers_completed == len(transfers)
    if any(src % n != dst % n for src, dst, _, _ in transfers):
        assert checked


@pytest.mark.parametrize("kind", ["star", "fat-tree"])
def test_symmetric_all_to_all_ties_carry_maxmin_certificate(kind):
    """Equal bandwidths and equal loads: every link's share ties exactly."""
    eng = Engine()
    topo = _topology(kind)
    fab = Fabric(eng, topo)
    checked = _audit_every_reallocation(fab, math.inf, {})
    n = topo.n_hosts
    evs = [fab.transfer(a, b, 100.0) for a in range(n) for b in range(n) if a != b]
    eng.run(eng.all_of(evs))
    assert checked
