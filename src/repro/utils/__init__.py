"""Shared utilities: units, deterministic RNG helpers, sampling, ASCII rendering."""

from repro.utils.units import (
    KB,
    MB,
    GB,
    KIB,
    MIB,
    GIB,
    Gbps,
    bytes_per_second,
    format_bytes,
    format_duration,
    format_rate,
)
from repro.utils.rng import derive_seed, rng_for
from repro.utils.sampling import spread_sample

__all__ = [
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "Gbps",
    "bytes_per_second",
    "format_bytes",
    "format_duration",
    "format_rate",
    "derive_seed",
    "rng_for",
    "spread_sample",
]
