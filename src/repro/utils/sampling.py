"""Deterministic even-spread subsampling shared by the sweep harnesses."""

from __future__ import annotations

from typing import Sequence, TypeVar

__all__ = ["spread_sample"]

T = TypeVar("T")


def spread_sample(seq: Sequence[T], cap: int | None) -> list[T]:
    """Evenly spaced subset of at most ``cap`` items, first and last kept.

    ``cap=None`` keeps everything; a cap below 1 is rejected rather than
    silently sampling nothing.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"sample cap must be >= 1, got {cap}")
    if cap is None or len(seq) <= cap:
        return list(seq)
    stride = (len(seq) - 1) / (cap - 1) if cap > 1 else 1
    return [seq[round(i * stride)] for i in range(cap)]
