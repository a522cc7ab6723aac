"""Bit-exact fingerprints of simulated allreduce times.

The Fig. 5 goldens allow 1% and the benchmark allows 1e-9 relative, so
neither notices a fabric change that moves a result by one ulp.  These
values pin every bit of ``elapsed`` (as ``float.hex``) for collectives
whose flows contend on shared links, so any reordering of the max-min
arithmetic, the completion timer or the routing fails here by name.
"""

import pytest

from repro.mpi import simulate_allreduce

FINGERPRINTS = [
    ("multicolor", 64, "0x1.10c22282acd77p-12"),
    ("ring", 16, "0x1.072a327fce344p-11"),
    ("rsag", 64, "0x1.76de38ec281dbp-11"),
    ("multicolor", 32, "0x1.f9d643efb290ap-13"),
]


@pytest.mark.parametrize(
    ("algorithm", "ranks", "expected"),
    FINGERPRINTS,
    ids=[f"{a}-{n}" for a, n, _ in FINGERPRINTS],
)
def test_allreduce_elapsed_is_bit_exact(algorithm, ranks, expected):
    elapsed = simulate_allreduce(ranks, 1 << 20, algorithm=algorithm).elapsed
    assert elapsed.hex() == expected
