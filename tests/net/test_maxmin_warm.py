"""Differential tests: the warm-started max-min solver against the oracle.

After every reallocation each active flow's rate must be the very float
(compared as ``float.hex``) that the retired from-scratch solver in
``tests/net/maxmin_oracle.py`` computes for the same flows, paths, scale
factors and per-flow cap.  The oracle shares no code with the fabric.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi import ALLREDUCE_COMPILERS
from repro.mpi.datatypes import SizeBuffer
from repro.mpi.runner import build_world
from repro.mpi.schedule import ScheduleExecutor
from repro.net import Fabric, LinkParams, NetworkParams, fat_tree, star
from repro.sim import Engine
from tests.net.maxmin_oracle import oracle_maxmin_rates

FAST = NetworkParams(
    host_link=LinkParams(bandwidth=100.0, latency=0.0),
    fabric_link=LinkParams(bandwidth=100.0, latency=0.0),
    software_overhead=0.0,
)


def _topology(kind):
    if kind == "star":
        return star(8, FAST)
    if kind == "fat-tree":
        return fat_tree(16, FAST, hosts_per_leaf=4)
    return fat_tree(16, FAST, hosts_per_leaf=4, oversubscription=2.0)


def _compare_every_reallocation(fab, cap, scale):
    """Wrap ``fab._reallocate`` so every pass's rates are compared with the
    oracle's; returns a list that gains one entry per compared pass."""
    compared = []
    solve = fab._reallocate

    def checked():
        solve()
        flows = fab.active_flows
        want = oracle_maxmin_rates(fab.topology, scale, cap, [f.path for f in flows])
        got = [f.rate.hex() for f in flows]
        assert got == [w.hex() for w in want], f"pass {len(compared)} at {fab.engine.now}"
        compared.append(len(flows))

    fab._reallocate = checked
    return compared


_HOST = st.one_of(st.integers(0, 3), st.integers(0, 15))  # mod hosts


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["star", "fat-tree", "fat-tree-oversubscribed"]),
    transfers=st.lists(
        st.tuples(
            _HOST,                      # src
            _HOST,                      # dst
            st.sampled_from([50.0, 100.0, 100.0, 237.5, 400.0]),  # bytes
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.25, 4.0]),  # start
        ),
        min_size=1,
        max_size=30,
    ),
    cap=st.sampled_from([math.inf, math.inf, 12.5, 25.0, 33.0, 50.0, 80.0]),
    rescales=st.lists(
        st.tuples(
            st.sampled_from([0.25, 0.5, 1.0, 1.75, 3.0]),  # when
            st.integers(0, 1 << 16),    # link (mod links)
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
        ),
        max_size=4,
    ),
)
# A link fixed early keeps a history entry when a later arrival joins it:
# the refill must see that entry's unfixed count moved by the arrival.
@example(
    kind="star",
    transfers=[(0, 1, 50.0, 0.0), (0, 2, 50.0, 0.0), (0, 2, 50.0, 0.0),
               (2, 1, 50.0, 0.5)],
    cap=math.inf,
    rescales=[],
)
def test_warm_rates_match_oracle_after_every_pass(kind, transfers, cap, rescales):
    """Arrivals at shared start times, departures of equal-sized flows at
    one instant, mid-flight ``scale_links`` and capped rounds: round
    numbers and byte counts are chosen so that exact ties are common."""
    eng = Engine()
    topo = _topology(kind)
    fab = Fabric(eng, topo, per_flow_cap=cap)
    scale: dict[int, float] = {}
    compared = _compare_every_reallocation(fab, cap, scale)
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
    assert len(compared) == fab.stats.maxmin_passes
    if any(src % n != dst % n for src, dst, _, _ in transfers):
        assert compared


@pytest.mark.parametrize("cap", [math.inf, 25.0, 50.0], ids=["uncapped", "cap25", "cap50"])
@pytest.mark.parametrize("kind", ["star", "fat-tree"])
def test_all_to_all_ties_match_oracle_in_waves(kind, cap):
    """Equal bandwidths and loads, so every share ties exactly; a second
    all-to-all wave starts while the first is in flight, and a cap of 25
    ties with the first wave's fair share."""
    eng = Engine()
    topo = _topology(kind)
    fab = Fabric(eng, topo, per_flow_cap=cap)
    compared = _compare_every_reallocation(fab, cap, {})
    n = topo.n_hosts

    def wave(offset, nbytes):
        yield eng.timeout(offset)
        evs = [
            fab.transfer(a, b, nbytes) for a in range(n) for b in range(n) if a != b
        ]
        yield eng.all_of(evs)

    eng.process(wave(0.0, 100.0))
    eng.process(wave(10.0, 50.0))
    eng.run()
    assert fab.stats.transfers_completed == 2 * n * (n - 1)
    assert len(compared) == fab.stats.maxmin_passes > 2


def test_multicolor_32_counts_passes_and_replays_most_rounds():
    """The 1 MiB multicolor allreduce on 32 ranks (a fingerprinted run)
    makes 873 passes with 15,161 filling rounds in all, as many as the
    from-scratch solver runs, and warm starts replay at least half of them;
    a solver that re-solves every pass replays none."""
    engine, world, comm = build_world(32)
    count = (1 << 20) // 4
    schedule = ALLREDUCE_COMPILERS["multicolor"](32, count, 4)
    buffers = [SizeBuffer(count, 4) for _ in range(32)]
    engine.run(ScheduleExecutor(comm, schedule, buffers).launch())
    assert engine.now.hex() == "0x1.f9d643efb290ap-13"
    stats = world.fabric.stats
    assert stats.maxmin_passes == 873
    rounds = stats.maxmin_rounds_replayed + stats.maxmin_rounds_refilled
    assert rounds == 15161
    assert stats.maxmin_rounds_replayed >= rounds / 2
