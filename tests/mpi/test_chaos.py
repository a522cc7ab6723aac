"""Tests for the exhaustive chaos sweep (repro.mpi.chaos).

The full sweeps — every allreduce algorithm and the shuffle, every fault
point, at 2 and 4 ranks — run in tier-1, so every fault point of both
planes goes through the one guarded retry loop on every change.  They sit
beside the smoke slice and the unit tests of the enumeration itself.
"""

import numpy as np
import pytest

from repro.mpi.chaos import (
    DEFAULT_KINDS,
    ChaosPoint,
    chaos_input,
    chaos_sweep,
    enumerate_points,
    reference_run,
    run_point,
    smoke_algorithms,
)
from repro.mpi.collectives import ALLREDUCE_COMPILERS, ALLREDUCE_FAMILIES

ALL_ALGORITHMS = sorted(ALLREDUCE_COMPILERS)


# -- enumeration --------------------------------------------------------------


def test_chaos_input_is_deterministic_and_distinct():
    a = chaos_input(0, 24)
    b = chaos_input(1, 24)
    np.testing.assert_array_equal(a, chaos_input(0, 24))
    assert a.dtype == np.int64
    assert not np.array_equal(a, b)


def test_smoke_algorithms_cover_every_family():
    smoke = smoke_algorithms()
    assert len(smoke) == len(ALLREDUCE_FAMILIES)
    for name, members in zip(smoke, ALLREDUCE_FAMILIES.values()):
        assert name == members[0]
        assert name in ALLREDUCE_COMPILERS


def test_reference_run_records_boundaries_and_sends():
    ref = reference_run("ring", 4)
    assert ref.elapsed > 0
    for r in range(4):
        assert ref.boundaries[r][0] == 0.0
        assert ref.boundaries[r] == tuple(sorted(ref.boundaries[r]))
        assert ref.send_times[r]  # every rank sends in a 4-rank allreduce
        assert all(t <= ref.elapsed for t in ref.send_times[r])


def test_enumerate_points_covers_every_rank_and_kind():
    points, ref = enumerate_points("multicolor", 4)
    kinds = {p.kind for p in points}
    assert kinds == set(DEFAULT_KINDS)
    for r in range(4):
        crashes = [p for p in points if p.kind == "crash" and p.rank == r]
        drops = [p for p in points if p.kind == "drop" and p.rank == r]
        assert len(crashes) == len(ref.boundaries[r])
        assert any(p.at == 0.0 for p in crashes)
        assert len(drops) == len(ref.send_times[r])


def test_enumerate_points_kind_filter_and_cap():
    points, ref = enumerate_points(
        "ring", 4, kinds=("crash",), max_points_per_rank=2
    )
    assert {p.kind for p in points} == {"crash"}
    for r in range(4):
        mine = [p for p in points if p.rank == r]
        assert len(mine) <= 2
        if len(ref.boundaries[r]) > 2:
            assert all("subsampled" in p.note for p in mine)  # never silent


def test_enumerate_points_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown chaos kind"):
        enumerate_points("ring", 4, kinds=("gamma-ray",))


def test_chaos_sweep_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown allreduce algorithm 'quantum'"):
        chaos_sweep(["quantum"], n_ranks=(2,))


# -- single points ------------------------------------------------------------


def test_crash_point_repairs_and_stays_bit_exact():
    points, ref = enumerate_points("ring", 4, kinds=("crash",))
    # A mid-flight crash of rank 2 (not the trivial t=0 boundary).
    point = [p for p in points if p.rank == 2 and p.at > 0][0]
    outcome = run_point(point, reference=ref)
    assert outcome.ok, outcome.detail
    assert outcome.fired
    assert outcome.repairs == 1
    assert outcome.retries == 0
    assert outcome.survivors == (0, 1, 3)


def test_drop_point_retries_and_names_victim():
    points, ref = enumerate_points("multicolor", 4, kinds=("drop",))
    point = [p for p in points if p.rank == 1][0]
    outcome = run_point(point, reference=ref)
    assert outcome.ok, outcome.detail
    assert outcome.fired
    assert outcome.repairs == 0
    assert outcome.retries >= 1
    assert outcome.diagnosis_named_victim is True
    assert outcome.survivors == (0, 1, 2, 3)


# -- sweeps -------------------------------------------------------------------


def test_smoke_sweep_at_4_ranks():
    report = chaos_sweep(smoke_algorithms(), n_ranks=(4,))
    assert report.n_points > 0
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)
    # The rendered report is what CI prints on failure; keep it well-formed.
    assert f"total: {report.n_points} points, 0 failed" in report.format()


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_full_sweep_at_2_ranks(name):
    report = chaos_sweep([name], n_ranks=(2,))
    assert report.n_points > 0
    assert report.all_ok, report.format()


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_full_sweep_at_4_ranks(name):
    report = chaos_sweep([name], n_ranks=(4,))
    assert report.n_points > 0
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)


def test_report_summary_rows_aggregate_by_algorithm():
    report = chaos_sweep(["binomial"], n_ranks=(2, 4))
    rows = report.summary_rows()
    assert [r["n_ranks"] for r in rows] == [2, 4]
    assert all(r["algorithm"] == "binomial" for r in rows)
    assert sum(r["points"] for r in rows) == report.n_points
    assert all(r["failed"] == 0 for r in rows)


def test_chaos_point_str_mentions_everything():
    p = ChaosPoint("ring", 4, "drop", 2, 0.125, note="send 3/9")
    s = str(p)
    assert "ring@4" in s and "drop" in s and "rank 2" in s and "send 3/9" in s


# -- shuffle (data-plane) chaos -----------------------------------------------


from repro.mpi.chaos import SHUFFLE_KINDS  # noqa: E402


def test_shuffle_reference_run_records_boundaries_and_sends():
    ref = reference_run("shuffle", 4)
    assert ref.algorithm == "shuffle"
    assert ref.elapsed > 0
    for r in range(4):
        assert ref.boundaries[r][0] == 0.0
        assert ref.send_times[r]  # every rank sends in a 4-rank shuffle
        assert all(t <= ref.elapsed for t in ref.send_times[r])


def test_enumerate_shuffle_points_covers_every_rank_and_kind():
    points, ref = enumerate_points("shuffle", 4)
    assert {p.kind for p in points} == set(SHUFFLE_KINDS)
    assert all(p.algorithm == "shuffle" for p in points)
    for r in range(4):
        crashes = [p for p in points if p.kind == "crash" and p.rank == r]
        corrupts = [p for p in points if p.kind == "corrupt" and p.rank == r]
        assert len(crashes) == len(ref.boundaries[r])
        assert any(p.at == 0.0 for p in crashes)
        assert len(corrupts) == len(ref.send_times[r])


def test_enumerate_shuffle_points_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown chaos kind"):
        enumerate_points("shuffle", 4, kinds=("degrade",))


def test_shuffle_crash_point_repairs_and_conserves():
    points, ref = enumerate_points("shuffle", 4, kinds=("crash",))
    point = [p for p in points if p.rank == 2 and p.at > 0][0]
    outcome = run_point(point, reference=ref)
    assert outcome.ok, outcome.detail
    assert outcome.fired
    assert outcome.repairs == 1
    assert outcome.retries == 0
    assert outcome.survivors == (0, 1, 3)


def test_shuffle_corrupt_point_retries_and_names_victim():
    points, ref = enumerate_points("shuffle", 4, kinds=("corrupt",))
    point = [p for p in points if p.rank == 1][0]
    outcome = run_point(point, reference=ref)
    assert outcome.ok, outcome.detail
    assert outcome.fired
    assert outcome.repairs == 0
    assert outcome.retries >= 1
    assert outcome.diagnosis_named_victim is True
    assert outcome.survivors == (0, 1, 2, 3)


def test_shuffle_smoke_sweep_at_2_ranks():
    report = chaos_sweep(["shuffle"], (2,), max_points_per_rank=3)
    assert report.n_points > 0
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)


def test_shuffle_full_sweep_at_2_ranks():
    report = chaos_sweep(["shuffle"], (2,))
    assert report.n_points > 0
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)


def test_shuffle_full_sweep_at_4_ranks():
    report = chaos_sweep(["shuffle"], (4,))
    assert report.n_points > 0
    assert report.all_ok, report.format()
    assert all(o.fired for o in report.outcomes)
