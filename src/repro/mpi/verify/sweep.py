"""The ``repro verify`` sweep: prove the whole compiler zoo at once.

Three layers, composed by :func:`run_sweep`:

* every registered allreduce compiler x rank counts x segment sizes,
  each proved against :func:`~repro.mpi.verify.contracts.allreduce_contract`
  (a segment size that yields a schedule equal to one already proved at
  that rank count — compilers that ignore ``segment_bytes``, or payloads
  smaller than one segment — is deduplicated rather than re-verified), plus
  the unified training-step DAG of every algorithm
  (:func:`~repro.train.stepdag.compile_bucketed_step`, staged memory)
  proved against
  :func:`~repro.mpi.verify.contracts.train_step_contract`;
* the auxiliary collectives — alltoallv with a deliberately ragged count
  matrix (including zero-length blocks), the dissemination barrier,
  binomial reduce and broadcast — against their own contracts;
* optionally, the Fig. 5 golden cross-check
  (:func:`crosscheck_goldens`): for every golden configuration the
  alpha-beta critical path of the compiled schedule must not exceed the
  recorded simulated time, pinning the bounds pass to measured reality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.mpi.collectives import (
    ALLREDUCE_COMPILERS,
    compile_alltoallv,
    compile_binomial_bcast,
    compile_binomial_reduce,
    compile_dissemination_barrier,
)
from repro.mpi.schedule import Schedule
from repro.mpi.verify import (
    Contract,
    VerificationReport,
    allreduce_contract,
    alltoallv_contract,
    analyze_bounds,
    barrier_contract,
    broadcast_contract,
    reduce_contract,
    train_step_contract,
    verify_schedule,
)
from repro.utils.units import MB

__all__ = ["GoldenCheck", "SweepResult", "crosscheck_goldens", "run_sweep", "sweep_cases"]

GOLDENS_PATH = (
    Path(__file__).resolve().parents[4] / "benchmarks" / "data" / "fig5_goldens.json"
)

DEFAULT_RANKS = (2, 4, 6, 16)
DEFAULT_COUNT = 1003          # prime-ish: ragged chunking in every compiler
DEFAULT_SEGMENT_KIBS = (1, 64)


def _ragged_counts(n: int) -> tuple[tuple[int, ...], ...]:
    """Uneven alltoallv matrix with zero blocks, like a skewed shuffle."""
    return tuple(
        tuple((s * 7 + d * 3 + 1) % 11 for d in range(n)) for s in range(n)
    )


def sweep_cases(
    *,
    algorithms: list[str] | None = None,
    ranks: tuple[int, ...] = DEFAULT_RANKS,
    count: int = DEFAULT_COUNT,
    segment_kibs: tuple[int, ...] = DEFAULT_SEGMENT_KIBS,
    itemsize: int = 4,
) -> Iterator[tuple[str, Schedule, Contract | None]]:
    """Yield ``(label, schedule, contract)`` for every sweep case."""
    # Lazy: stepdag pulls in the compiler registry's training-side users.
    from repro.train.stepdag import compile_bucketed_step

    names = sorted(ALLREDUCE_COMPILERS) if algorithms is None else algorithms
    for name in names:
        compiler = ALLREDUCE_COMPILERS[name]
        for n in ranks:
            contract = allreduce_contract(n, count)
            seen: list[Schedule] = []
            for seg_kib in segment_kibs:
                schedule = compiler(
                    n, count, itemsize, segment_bytes=seg_kib * 1024
                )
                if schedule in seen:
                    continue  # this segment size did not change the schedule
                seen.append(schedule)
                yield f"{name} n={n} seg={seg_kib}KiB", schedule, contract
            yield (
                f"step[{name}] n={n} buckets=4",
                compile_bucketed_step(
                    n, count, itemsize,
                    forward_time=1e-3, backward_time=2e-3, optim_time=5e-4,
                    n_buckets=4, algorithm=name, memory="staged",
                ),
                train_step_contract(n, count),
            )
    for n in ranks:
        counts = _ragged_counts(n)
        yield (
            f"alltoallv n={n}",
            compile_alltoallv(counts, itemsize),
            alltoallv_contract(counts),
        )
        yield f"barrier n={n}", compile_dissemination_barrier(n), barrier_contract(n)
        yield (
            f"reduce n={n}",
            compile_binomial_reduce(n, count, itemsize),
            reduce_contract(n, count),
        )
        yield (
            f"broadcast n={n}",
            compile_binomial_bcast(n, count, itemsize),
            broadcast_contract(n, count),
        )


@dataclass(frozen=True)
class GoldenCheck:
    """One Fig. 5 golden vs the schedule's analytic critical path."""

    key: str                  # "algorithm/NNMB"
    critical_path_s: float
    golden_elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.critical_path_s <= self.golden_elapsed_s


def crosscheck_goldens(*, max_mb: float | None = None) -> list[GoldenCheck]:
    """Critical-path lower bound <= simulated golden, for every golden.

    A violation means the bounds model claims the schedule cannot run as
    fast as the simulator measured it running — i.e. the schedule, the
    model, or the golden is wrong.
    """
    goldens = json.loads(GOLDENS_PATH.read_text())["elapsed_s"]
    checks: list[GoldenCheck] = []
    for key in sorted(goldens):
        algorithm, size = key.split("/")
        mb = float(size[:-2])
        if max_mb is not None and mb > max_mb:
            continue
        nbytes = int(mb * MB)
        itemsize = 4  # float32, matching simulate_allreduce's default
        schedule = ALLREDUCE_COMPILERS[algorithm](
            16, max(1, nbytes // itemsize), itemsize,
            segment_bytes=max(64 * 1024, nbytes // 64),
        )
        bounds = analyze_bounds(schedule)
        checks.append(GoldenCheck(
            key=key,
            critical_path_s=bounds.critical_path_s,
            golden_elapsed_s=goldens[key],
        ))
    return checks


@dataclass
class SweepResult:
    """Everything one ``repro verify`` invocation established."""

    reports: list[VerificationReport] = field(default_factory=list)
    golden_checks: list[GoldenCheck] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.reports) and all(
            c.ok for c in self.golden_checks
        )

    @property
    def total_wall_time_s(self) -> float:
        return sum(r.wall_time_s for r in self.reports)

    def format(self, *, verbose: bool = False) -> str:
        lines: list[str] = []
        failed = [r for r in self.reports if not r.ok]
        for report in self.reports:
            if verbose or not report.ok:
                lines.append(report.format())
        lines.append(
            f"verified {len(self.reports)} schedule(s) in "
            f"{self.total_wall_time_s:.2f} s: "
            f"{len(self.reports) - len(failed)} proved, {len(failed)} failed"
        )
        if self.golden_checks:
            bad = [c for c in self.golden_checks if not c.ok]
            for c in self.golden_checks:
                if verbose or not c.ok:
                    mark = "ok" if c.ok else "VIOLATED"
                    lines.append(
                        f"  golden {c.key}: critical path "
                        f"{c.critical_path_s * 1e3:.3f} ms <= simulated "
                        f"{c.golden_elapsed_s * 1e3:.3f} ms {mark}"
                    )
            lines.append(
                f"golden cross-check: {len(self.golden_checks) - len(bad)}"
                f"/{len(self.golden_checks)} lower bounds hold"
            )
        return "\n".join(lines)


def run_sweep(
    *,
    algorithms: list[str] | None = None,
    ranks: tuple[int, ...] = DEFAULT_RANKS,
    count: int = DEFAULT_COUNT,
    segment_kibs: tuple[int, ...] = DEFAULT_SEGMENT_KIBS,
    itemsize: int = 4,
    goldens: bool = False,
    goldens_max_mb: float | None = None,
) -> SweepResult:
    """Verify every sweep case; optionally cross-check the Fig. 5 goldens."""
    result = SweepResult()
    for _label, schedule, contract in sweep_cases(
        algorithms=algorithms, ranks=ranks, count=count,
        segment_kibs=segment_kibs, itemsize=itemsize,
    ):
        result.reports.append(verify_schedule(schedule, contract))
    if goldens:
        result.golden_checks = crosscheck_goldens(max_mb=goldens_max_mb)
    return result
