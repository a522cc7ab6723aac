"""Exhaustive chaos sweep over the schedule-level fault space.

The schedule IR makes a collective's fault space *finite*: every rank's
execution is a sequence of step completions (strand boundaries) and every
message is a discrete send.  One harness enumerates every (rank x
boundary) crash point and every (rank x send) drop/delay/corrupt point of
a *plane* and runs each through that plane's guarded call — both share
the one retry loop, :func:`repro.mpi.schedule.guard_attempts`, with
surgical repair enabled.  There are two planes:

* **allreduce** — any registered algorithm name; the gradient allreduce
  under :func:`repro.mpi.schedule.run_guarded`;
* **shuffle** — the name ``"shuffle"``; one transactional DIMD round
  (:func:`repro.data.shuffle.distributed_shuffle`) under
  :func:`repro.data.guard.run_shuffle_guarded`, which also takes
  ``corrupt`` faults.

Every point is checked against the shared invariants, written once:

1. **No deadlock** — total simulated time is bounded by the watchdog
   budget: ``(retries + repairs + 1) * timeout + backoff``.
2. **Telemetry consistency** — one diagnosis per retry, geometric
   backoff, exactly one repair and zero retries for a fired crash, no
   repair for any other fault, and every diagnosis naming the injected
   victim rank (watchdog stalls and CRC corruption alike).

plus the plane's own result invariants:

* allreduce — **survivor bit-exactness**: the surviving group's result
  equals the exact integer sum of the survivors' inputs (int64 inputs,
  so the comparison is bit-exact, not approximate);
* shuffle — **record conservation** (the multiset of (record bytes,
  label) pairs across the surviving stores equals the pre-shuffle
  multiset: a crashed rank's partition is dealt to the survivors),
  **repair determinism** (surviving partitions are bit-identical to a
  fault-free shuffle over the same survivor group) and **no open
  transactions** (every store's shuffle transaction is finalized or
  rolled back, never leaked).

Fault points are discovered from an instrumented *reference run*: a
fault-free execution whose per-rank progress times give the crash
boundaries and whose send-observer timestamps give the send points.

Used by ``repro chaos`` (CLI) and ``tests/mpi/test_chaos.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.data.dimd import DIMDStore, deal_records
from repro.data.guard import run_shuffle_guarded
from repro.data.shuffle import ShuffleProgress, distributed_shuffle
from repro.mpi.collectives import (
    ALLREDUCE_COMPILERS,
    ALLREDUCE_FAMILIES,
    allreduce_compiler,
)
from repro.mpi.datatypes import ArrayBuffer
from repro.mpi.runner import build_world
from repro.mpi.schedule import (
    CollectiveTelemetry,
    CollectiveTimeout,
    ExecutionProgress,
    RankFailure,
    ScheduleExecutor,
    run_guarded,
)
from repro.train.injection import FaultInjector, FaultPlan, FaultSpec
from repro.utils.sampling import spread_sample

__all__ = [
    "ChaosOutcome",
    "ChaosPoint",
    "ChaosReport",
    "ReferenceRun",
    "chaos_input",
    "chaos_sweep",
    "enumerate_points",
    "reference_run",
    "run_point",
    "shuffle_chaos_stores",
    "smoke_algorithms",
]

DEFAULT_COUNT = 24          # elements per rank buffer (ragged across ranks)
DEFAULT_ITEMSIZE = 8        # int64 payloads -> exact integer sums
DEFAULT_KINDS = ("crash", "drop", "delay")
SHUFFLE_KINDS = ("crash", "drop", "delay", "corrupt")
#: Watchdog timeout as a multiple of the fault-free reference elapsed time.
DEFAULT_TIMEOUT_FACTOR = 64.0
#: Shuffle sweep sizing: records per rank and the forced multi-pass chunk.
SHUFFLE_PER_RANK = 6
SHUFFLE_CHUNK_BYTES = 128
SHUFFLE_SEED = 7


def chaos_input(rank: int, count: int) -> np.ndarray:
    """Deterministic int64 input for ``rank`` (distinct across ranks)."""
    rng = np.random.default_rng(0xC4A05 + rank)
    return rng.integers(-(2**31), 2**31, size=count).astype(np.int64)


def shuffle_chaos_stores(
    n_ranks: int, *, per_rank: int = SHUFFLE_PER_RANK
) -> list[DIMDStore]:
    """Deterministic opaque-blob stores, distinct across ranks and records."""
    stores = []
    for rank in range(n_ranks):
        rng = np.random.default_rng(0x5F0C4A05 + rank)
        records = [
            bytes(rng.integers(0, 256, size=int(rng.integers(40, 56)), dtype=np.uint8))
            for _ in range(per_rank)
        ]
        labels = np.arange(rank * per_rank, (rank + 1) * per_rank, dtype=np.int64)
        stores.append(DIMDStore(records, labels, learner=rank))
    return stores


def smoke_algorithms() -> list[str]:
    """One representative algorithm per structural family (CI smoke slice)."""
    return [members[0] for members in ALLREDUCE_FAMILIES.values()]


@dataclass(frozen=True)
class ChaosPoint:
    """One injectable fault: (algorithm, group size, kind, victim, time)."""

    algorithm: str  # allreduce algorithm name, or "shuffle"
    n_ranks: int
    kind: str       # "crash" | "drop" | "delay" | "corrupt" (shuffle only)
    rank: int       # victim (crash) / sender (drop, delay, corrupt)
    at: float       # simulated seconds into the collective
    note: str = ""

    def __str__(self) -> str:
        return (
            f"{self.algorithm}@{self.n_ranks}: {self.kind} rank {self.rank} "
            f"at t={self.at:.3g}s" + (f" ({self.note})" if self.note else "")
        )


@dataclass
class ChaosOutcome:
    """What happened when one :class:`ChaosPoint` ran under the guard."""

    point: ChaosPoint
    ok: bool
    fired: bool
    survivors: tuple[int, ...]
    retries: int
    repairs: int
    sim_time: float
    diagnosis_named_victim: bool | None  # None when no diagnosis was produced
    detail: str = ""


@dataclass
class ChaosReport:
    """Aggregated outcomes of one sweep."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def summary_rows(self) -> list[dict]:
        """Per (algorithm, n_ranks) aggregate counts, in sweep order."""
        rows: dict[tuple[str, int], dict] = {}
        for o in self.outcomes:
            key = (o.point.algorithm, o.point.n_ranks)
            row = rows.setdefault(
                key,
                {
                    "algorithm": key[0], "n_ranks": key[1], "points": 0,
                    "fired": 0, "failed": 0, "retries": 0, "repairs": 0,
                },
            )
            row["points"] += 1
            row["fired"] += int(o.fired)
            row["failed"] += int(not o.ok)
            row["retries"] += o.retries
            row["repairs"] += o.repairs
        return list(rows.values())

    def format(self) -> str:
        lines = [
            f"{'algorithm':<20} {'ranks':>5} {'points':>7} {'fired':>6} "
            f"{'repairs':>8} {'retries':>8} {'failed':>7}"
        ]
        for row in self.summary_rows():
            lines.append(
                f"{row['algorithm']:<20} {row['n_ranks']:>5} "
                f"{row['points']:>7} {row['fired']:>6} {row['repairs']:>8} "
                f"{row['retries']:>8} {row['failed']:>7}"
            )
        lines.append(
            f"total: {self.n_points} points, {len(self.failures)} failed"
        )
        for o in self.failures[:20]:
            lines.append(f"FAIL {o.point}: {o.detail}")
        if len(self.failures) > 20:
            lines.append(f"... and {len(self.failures) - 20} more failures")
        return "\n".join(lines)


@dataclass(frozen=True)
class ReferenceRun:
    """Instrumented fault-free run: where the fault points live in time."""

    algorithm: str
    n_ranks: int
    elapsed: float
    #: rank -> sorted progress times (strand boundaries), 0.0 first.
    boundaries: dict[int, tuple[float, ...]]
    #: rank -> sorted distinct times this rank posted a send.
    send_times: dict[int, tuple[float, ...]]


# -- the allreduce plane ------------------------------------------------------

class _RecordingProgress(ExecutionProgress):
    """Progress tracker that additionally keeps per-step finish times."""

    def __init__(self, schedule):
        super().__init__(schedule)
        self.finish_times: dict[int, list[float]] = {}

    def finish(self, step, now):
        super().finish(step, now)
        self.finish_times.setdefault(step.rank, []).append(now)


def _allreduce_reference(
    algorithm, comm, *, count=DEFAULT_COUNT, itemsize=DEFAULT_ITEMSIZE,
    **compile_kwargs,
):
    n = comm.size
    buffers = [ArrayBuffer(chaos_input(r, count)) for r in range(n)]
    schedule = ALLREDUCE_COMPILERS[algorithm](n, count, itemsize, **compile_kwargs)
    executor = ScheduleExecutor(comm, schedule, buffers)
    executor.progress = _RecordingProgress(schedule)
    return executor.launch(), executor.progress.finish_times


def _allreduce_guarded(
    point, guard, *, count=DEFAULT_COUNT, itemsize=DEFAULT_ITEMSIZE,
    **compile_kwargs,
):
    # ``itemsize`` is fixed by the int64 inputs; it only shapes the reference.
    inputs = [chaos_input(r, count) for r in range(point.n_ranks)]
    buffers, _ = run_guarded(
        ALLREDUCE_COMPILERS[point.algorithm],
        lambda: [ArrayBuffer(a.copy()) for a in inputs],
        **guard, **compile_kwargs,
    )

    def violations(survivors, victims):
        # Survivor results bit-exact vs the fault-free survivor-group sum.
        expected = np.sum([inputs[r] for r in survivors], axis=0, dtype=np.int64)
        if len(buffers) != len(survivors):
            yield f"{len(buffers)} result buffers for {len(survivors)} survivors"
        for rank, buf in zip(survivors, buffers):
            if not np.array_equal(buf.array, expected):
                yield (
                    f"survivor {rank} result differs from the fault-free "
                    "survivor-group sum"
                )

    return violations


# -- the shuffle plane --------------------------------------------------------

class _RecordingShuffleProgress(ShuffleProgress):
    """Shuffle progress tracker that additionally keeps advance times."""

    def __init__(self, n_ranks: int):
        super().__init__(n_ranks)
        self.finish_times: dict[int, list[float]] = {}

    def end_recv(self, rank: int, now: float) -> None:
        super().end_recv(rank, now)
        self.finish_times.setdefault(rank, []).append(now)


def _shuffle_reference(
    algorithm, comm, *, per_rank=SHUFFLE_PER_RANK,
    max_chunk_bytes=SHUFFLE_CHUNK_BYTES,
):
    stores = shuffle_chaos_stores(comm.size, per_rank=per_rank)
    progress = _RecordingShuffleProgress(comm.size)
    procs = [
        comm.engine.process(
            distributed_shuffle(
                comm, r, store, seed=SHUFFLE_SEED, round_id=0,
                max_chunk_bytes=max_chunk_bytes, progress=progress,
            ),
            name=f"shuffle{r}",
        )
        for r, store in enumerate(stores)
    ]
    return comm.engine.all_of(procs), progress.finish_times


def _global_multiset(stores: list[DIMDStore]) -> list[tuple[bytes, int]]:
    combined: list[tuple[bytes, int]] = []
    for s in stores:
        combined.extend(s.content_multiset())
    return sorted(combined)


@functools.lru_cache(maxsize=64)
def _shuffle_end_state(
    n_ranks: int, victims: tuple[int, ...], per_rank: int,
    max_chunk_bytes: int, timeout: float, topology: str,
) -> list[DIMDStore]:
    """Fault-free survivor-group end state: pop victims (in repair order,
    dealing each one's records), then run the same shuffle round.

    Cached because every point of a sweep with the same victims compares
    against it; callers only read the returned stores.
    """
    live = shuffle_chaos_stores(n_ranks, per_rank=per_rank)
    for victim in victims:
        dead = live.pop(victim)
        deal_records(dead, live)
    run_shuffle_guarded(
        live, seed=SHUFFLE_SEED, round_id=0, timeout=timeout,
        topology=topology, max_chunk_bytes=max_chunk_bytes,
    )
    return live


def _shuffle_guarded(
    point, guard, *, per_rank=SHUFFLE_PER_RANK,
    max_chunk_bytes=SHUFFLE_CHUNK_BYTES,
):
    stores = shuffle_chaos_stores(point.n_ranks, per_rank=per_rank)
    before = _global_multiset(stores)
    run_shuffle_guarded(
        stores, seed=SHUFFLE_SEED, round_id=0,
        max_chunk_bytes=max_chunk_bytes, **guard,
    )

    def violations(survivors, victims):
        live = [stores[r] for r in survivors]
        # Record conservation: zero lost or duplicated records.
        if _global_multiset(live) != before:
            yield (
                "record multiset changed across the shuffle "
                f"({sum(len(s) for s in live)} records across "
                f"{len(live)} survivors vs {len(before)} before)"
            )
        # Repair determinism: partitions bit-identical to a fault-free
        # shuffle over the same survivor group.
        expected = _shuffle_end_state(
            point.n_ranks, victims, per_rank, max_chunk_bytes,
            guard["timeout"], guard["topology"],
        )
        for got, want in zip(live, expected):
            if got.records != want.records or not np.array_equal(
                got.labels, want.labels
            ):
                yield (
                    f"survivor {got.learner} partition differs from the "
                    "fault-free survivor-group shuffle"
                )
        # No leaked transactions, victims included.
        leaked = [s.learner for s in stores if s.in_transaction]
        if leaked:
            yield f"open shuffle transaction leaked on store(s) {leaked}"

    return violations


# -- one harness over both planes ---------------------------------------------

@dataclass(frozen=True)
class _Plane:
    """What differs per plane; everything else in this module is shared."""

    kinds: tuple[str, ...]
    #: ``(algorithm, comm, **opts) -> (done event, rank -> progress times)``
    reference: Callable
    #: ``(point, guard kwargs, **opts) -> violations(survivors, victims)``:
    #: runs the guarded call, then checks the plane's result invariants.
    guarded: Callable


_PLANES = {
    "allreduce": _Plane(DEFAULT_KINDS, _allreduce_reference, _allreduce_guarded),
    "shuffle": _Plane(SHUFFLE_KINDS, _shuffle_reference, _shuffle_guarded),
}


def _plane(algorithm: str) -> _Plane:
    if algorithm == "shuffle":
        return _PLANES["shuffle"]
    allreduce_compiler(algorithm)  # rejects unknown names
    return _PLANES["allreduce"]


def reference_run(
    algorithm: str, n_ranks: int, *, topology: str = "star", **opts
) -> ReferenceRun:
    """Run ``algorithm`` (an allreduce name, or ``"shuffle"``) fault-free
    and record every rank's progress instants (step completions or
    receive completions) and send-post times."""
    plane = _plane(algorithm)
    engine, world, comm = build_world(n_ranks, topology=topology)
    send_times: dict[int, set[float]] = {r: set() for r in range(n_ranks)}

    def observe(src, dst, tag, nbytes):
        send_times[src].add(engine.now)

    world.send_observers.append(observe)
    done, progress_times = plane.reference(algorithm, comm, **opts)
    engine.run(done)
    return ReferenceRun(
        algorithm=algorithm,
        n_ranks=n_ranks,
        elapsed=engine.now,
        boundaries={
            r: tuple(sorted({0.0, *progress_times.get(r, [])}))
            for r in range(n_ranks)
        },
        send_times={r: tuple(sorted(send_times[r])) for r in range(n_ranks)},
    )


def enumerate_points(
    algorithm: str,
    n_ranks: int,
    *,
    kinds: tuple[str, ...] | None = None,
    max_points_per_rank: int | None = None,
    topology: str = "star",
    **opts,
) -> tuple[list[ChaosPoint], ReferenceRun]:
    """Enumerate every injectable fault point of one (algorithm, size).

    Crash points are each rank's progress instants (plus t=0); the other
    kinds use each rank's distinct send-post instants.  ``kinds`` defaults
    to every kind the plane supports.  With ``max_points_per_rank``,
    instants are evenly subsampled per rank — the cap is recorded in the
    point notes, never silent.
    """
    plane = _plane(algorithm)
    kinds = plane.kinds if kinds is None else kinds
    for kind in kinds:
        if kind not in plane.kinds:
            raise ValueError(f"unknown chaos kind {kind!r}; use {plane.kinds}")
    ref = reference_run(algorithm, n_ranks, topology=topology, **opts)
    points: list[ChaosPoint] = []
    for rank in range(n_ranks):
        for kind in (k for k in plane.kinds if k in kinds):
            crash = kind == "crash"
            instants = ref.boundaries[rank] if crash else ref.send_times[rank]
            times = spread_sample(instants, max_points_per_rank)
            capped = " (subsampled)" if len(times) < len(instants) else ""
            for i, t in enumerate(times):
                points.append(ChaosPoint(
                    algorithm, n_ranks, kind, rank, t,
                    note=f"{'boundary' if crash else 'send'} {i}/{len(times)}"
                    + capped,
                ))
    return points, ref


def _fault_spec(point: ChaosPoint, timeout: float) -> FaultSpec:
    if point.kind == "crash":
        return FaultSpec("crash", 0, rank=point.rank, at=point.at)
    if point.kind == "delay":
        return FaultSpec(
            "delay", 0, rank=point.rank, at=point.at, count=1,
            seconds=2.0 * timeout,
        )
    return FaultSpec(point.kind, 0, rank=point.rank, at=point.at, count=1)


def _guard_violations(
    point: ChaosPoint,
    telemetry: CollectiveTelemetry,
    *,
    timeout: float,
    retry_backoff: float,
    fired: bool,
    named: bool | None,
) -> Iterator[str]:
    """The shared invariants: watchdog bound and telemetry consistency."""
    # Every attempt is cut off by the watchdog or an interrupt, so total
    # time cannot exceed one timeout per (attempt + repair) plus backoff.
    bound = (telemetry.retries + telemetry.repairs + 1) * timeout
    bound += telemetry.backoff + 1e-9
    if telemetry.sim_time > bound:
        yield (
            f"sim time {telemetry.sim_time:g}s exceeds watchdog bound "
            f"{bound:g}s"
        )
    if telemetry.retries != len(telemetry.diagnoses):
        yield (
            f"{telemetry.retries} retries but {len(telemetry.diagnoses)} "
            "diagnoses"
        )
    want_backoff = retry_backoff * (2 ** telemetry.retries - 1)
    if abs(telemetry.backoff - want_backoff) > 1e-9 * max(1.0, want_backoff):
        yield (
            f"backoff {telemetry.backoff:g}s is not the geometric sum "
            f"{want_backoff:g}s of {telemetry.retries} retries"
        )
    if point.kind == "crash":
        if fired and telemetry.retries != 0:
            yield (
                "surgical repair consumed the retry budget "
                f"({telemetry.retries} retries for a diagnosed crash)"
            )
        if fired and telemetry.repairs != 1:
            yield f"{telemetry.repairs} repairs for one crash"
    else:
        if telemetry.repairs != 0:
            yield f"{telemetry.repairs} repairs for a {point.kind} fault"
        if fired and named is not True:
            yield (
                "diagnosis did not name the injected victim (suspects: "
                f"{[d.suspect_rank for d in telemetry.diagnoses]}, "
                f"victim: rank {point.rank})"
            )


def run_point(
    point: ChaosPoint,
    *,
    reference: ReferenceRun,
    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
    max_retries: int = 3,
    topology: str = "star",
    **opts,
) -> ChaosOutcome:
    """Inject one fault point under its plane's guarded call and check the
    shared and plane invariants (see the module docstring)."""
    timeout = max(timeout_factor * reference.elapsed, 1e-4)
    retry_backoff = timeout / 4.0
    injector = FaultInjector(FaultPlan([_fault_spec(point, timeout)]))
    telemetry = CollectiveTelemetry()
    survivors: tuple[int, ...] = ()
    named = None
    try:
        violations = _plane(point.algorithm).guarded(
            point,
            dict(
                timeout=timeout,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                topology=topology,
                tag=("chaos", point.kind, point.rank),
                fault_injector=injector,
                iteration=0,
                telemetry=telemetry,
                repair=True,
            ),
            **opts,
        )
    except CollectiveTimeout as exc:
        detail = f"retry budget exhausted (possible deadlock): {exc}"
    except RankFailure as exc:  # pragma: no cover - repair=True absorbs these
        detail = f"unrepaired rank failure: {exc}"
    else:
        alive = list(range(point.n_ranks))
        for victim in telemetry.repaired_ranks:
            alive.pop(victim)
        survivors = tuple(alive)
        if telemetry.diagnoses:
            named = all(
                d.suspect_rank == point.rank for d in telemetry.diagnoses
            )
        shared = _guard_violations(
            point, telemetry, timeout=timeout, retry_backoff=retry_backoff,
            fired=bool(injector.events), named=named,
        )
        detail = next(shared, None) or next(
            violations(survivors, tuple(telemetry.repaired_ranks)), None
        )
    return ChaosOutcome(
        point=point, ok=detail is None,
        fired=bool(injector.events), survivors=survivors,
        retries=telemetry.retries, repairs=telemetry.repairs,
        sim_time=telemetry.sim_time, diagnosis_named_victim=named,
        detail=detail or "",
    )


def chaos_sweep(
    algorithms: list[str] | None = None,
    n_ranks: tuple[int, ...] = (4,),
    *,
    kinds: tuple[str, ...] | None = None,
    max_points_per_rank: int | None = None,
    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
    topology: str = "star",
    **opts,
) -> ChaosReport:
    """Sweep every fault point of every (algorithm, group size) pair.

    ``algorithms`` defaults to every registered allreduce; ``["shuffle"]``
    sweeps the data plane.  ``opts`` go to the plane: ``count``,
    ``itemsize`` and compiler keywords for the allreduce, ``per_rank`` and
    ``max_chunk_bytes`` for the shuffle.
    """
    report = ChaosReport()
    for name in algorithms if algorithms is not None else sorted(ALLREDUCE_COMPILERS):
        _plane(name)
        for n in n_ranks:
            points, ref = enumerate_points(
                name, n, kinds=kinds, max_points_per_rank=max_points_per_rank,
                topology=topology, **opts,
            )
            for point in points:
                report.outcomes.append(run_point(
                    point, reference=ref, timeout_factor=timeout_factor,
                    topology=topology, **opts,
                ))
    return report
