"""Tests for the collective profiler."""

import pytest

from repro.mpi.profiler import profile_allreduce
from repro.utils.units import MB


def test_profile_basic_fields():
    p = profile_allreduce(8, int(8 * MB), algorithm="ring")
    assert p.elapsed > 0
    assert p.total_wire_bytes > 0
    # link accounting is hop-weighted: >= the per-transfer payload count
    assert p.hop_weighted_bytes >= p.total_wire_bytes
    assert 0 < p.efficiency <= 1.0
    assert p.wire_amplification > 1.0
    assert len(p.per_rank_sent) == 8
    # A clean profiled run finished every rank's schedule slice.
    assert len(p.steps_completed) == 8
    assert all(done == total > 0 for done, total in p.steps_completed.values())


def test_multicolor_uses_more_core_than_contiguous_ring():
    mc = profile_allreduce(16, int(16 * MB), algorithm="multicolor")
    ring = profile_allreduce(16, int(16 * MB), algorithm="ring")
    assert mc.core_bytes > ring.core_bytes


def test_ring_is_balanced_multicolor_less_so():
    """Every ring member relays equal bytes; multicolor's internal nodes
    send more than its leaves per color (offset by rotation, but the root
    skips the upward send)."""
    ring = profile_allreduce(16, int(16 * MB), algorithm="ring")
    assert ring.max_rank_imbalance < 1.3


def test_efficiency_close_to_bound_for_pipelined_ring():
    p = profile_allreduce(8, int(64 * MB), algorithm="ring")
    assert p.efficiency > 0.3


def test_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown allreduce algorithm 'sorcery'"):
        profile_allreduce(4, 1024, algorithm="sorcery")
