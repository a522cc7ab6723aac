"""Tests for tables, figures and comparators."""

import pytest

from repro.analysis import (
    PAPER_TABLE1,
    fig6_series,
    fig_dimd_series,
    fig_dpt_series,
    ordering_matches,
    relative_error,
    render_table1,
    render_table2,
    table1_rows,
    table2_rows,
)
from repro.analysis.compare import improvement_pct
from repro.cluster.specs import MINSKY_NODE
from repro.train.pipeline import _allreduce_time
from repro.utils.ascii import render_series, render_table


def test_table1_rows_structure():
    rows = table1_rows(models=("resnet50",), node_counts=(8,))
    assert len(rows) == 1
    r = rows[0]
    assert r["base_s"] > r["opt_s"]
    assert r["speedup_pct"] > 0
    assert r["paper_base_s"] == PAPER_TABLE1[("resnet50", 8)][0]


def test_render_table1_mentions_paper_values():
    text = render_table1(table1_rows(models=("resnet50",), node_counts=(8,)))
    assert "Table 1" in text
    assert "(498)" in text


def test_table2_has_measured_row():
    rows = table2_rows()
    assert rows[-1]["measured"]
    assert rows[-1]["batch"] == 8192
    text = render_table2(rows)
    assert "Goyal" in text and "This reproduction" in text
    # The measured row simulated the headline 256-GPU allreduce (64 nodes,
    # ResNet-50's 102,228,128 gradient bytes); read it back from the cache
    # and pin every bit of it.
    hits = _allreduce_time.cache_info().hits
    elapsed = _allreduce_time(
        64, 102228128, "multicolor", MINSKY_NODE.host_reduce_bandwidth
    )
    assert _allreduce_time.cache_info().hits == hits + 1
    assert elapsed.hex() == "0x1.00a550e25c83ap-6"


def test_fig6_multicolor_fastest():
    x, series, meta = fig6_series(node_counts=(8, 16))
    assert x == [8, 16]
    for i in range(2):
        assert series["multicolor"][i] <= series["ring"][i]
        assert series["ring"][i] < series["openmpi_default"][i]


def test_fig_dimd_gains_direction():
    _x, series, _meta = fig_dimd_series("imagenet-1k", node_counts=(8,))
    for model in ("googlenet_bn", "resnet50"):
        assert series[f"{model} file I/O"][0] > series[f"{model} DIMD"][0]


def test_fig_dpt_gains_direction():
    _x, series, _meta = fig_dpt_series(node_counts=(8,))
    for model in ("googlenet_bn", "resnet50"):
        assert series[f"{model} baseline"][0] > series[f"{model} optimized"][0]


def test_comparators():
    assert relative_error(110, 100) == pytest.approx(0.1)
    assert improvement_pct(200, 150) == pytest.approx(25.0)
    assert ordering_matches([1, 2, 3], "asc")
    assert ordering_matches([3, 2, 1], "desc")
    assert not ordering_matches([1, 3, 2], "asc")
    with pytest.raises(ValueError):
        relative_error(1, 0)
    with pytest.raises(ValueError):
        ordering_matches([1], "sideways")
    with pytest.raises(ValueError):
        improvement_pct(0, 1)


def test_render_table_basic():
    text = render_table(["a", "b"], [[1, 2.5], ["x", 0.0001]])
    assert "| a" in text or "a |" in text
    with pytest.raises(ValueError):
        render_table(["a"], [[1, 2]])


def test_render_series_basic():
    text = render_series(
        [1, 2, 3], {"s1": [1.0, 2.0, 3.0], "s2": [3.0, 2.0, 1.0]},
        title="demo", xlabel="x", ylabel="y",
    )
    assert "demo" in text
    assert "s1" in text and "s2" in text
    assert render_series([], {}) == "(empty chart)"
