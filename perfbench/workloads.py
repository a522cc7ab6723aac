"""The three benchmark workloads: set-up, one op, and the op's simulated output.

Each workload is a closed loop with one caller: ``setup`` runs once and
returns the state an op needs, then ``op`` runs back to back. An op
returns its *simulated* output as a flat dict, which ``check_op`` compares
with the values stored in ``expected.json``. Host time never enters an
output, so a speed-up that changes simulated behaviour fails ops.

The inputs are fixed: no workload draws random numbers, so the seed the
harness records changes nothing.

Why each workload was chosen, and which layer it loads, is in
``WORKLOADS.md`` next to this file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Relative tolerance for simulated seconds: loose enough for float
#: reordering in a rewritten hot path, tight enough to fail any change in
#: simulated behaviour. Counts and flags compare exactly.
SIM_REL_TOL = 1e-9

ALLREDUCE_RANKS = 64
ALLREDUCE_BYTES = 1 << 20
STEP_RANKS = 16
STEP_PROXY_COUNT = 1003
FLEET_DEPTH = 6


class Spans:
    """Nested wall-clock spans around the public calls the benchmark makes.

    A span's self time is its duration minus the part its child spans
    cover, so a compile nested inside another layer's compile is charged
    to its own layer once.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self._child_s: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._child_s.pop()
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
            if self._child_s:
                self._child_s[-1] += duration


@contextmanager
def _timed_compiler(spans: Spans, algorithm: str):
    """Charge every call of one registered allreduce compiler to an
    ``mpi.compile`` span while set-up runs, including calls made from
    inside ``repro.train``. The registry entry is restored afterwards."""
    from repro.mpi import ALLREDUCE_COMPILERS

    compiler = ALLREDUCE_COMPILERS[algorithm]

    def timed(*args, **kwargs):
        with spans.span("mpi.compile"):
            return compiler(*args, **kwargs)

    ALLREDUCE_COMPILERS[algorithm] = timed
    try:
        yield
    finally:
        ALLREDUCE_COMPILERS[algorithm] = compiler


# -- allreduce-multicolor-64 -------------------------------------------------

def _setup_allreduce(spans: Spans) -> dict[str, Any]:
    from repro.mpi import ALLREDUCE_COMPILERS
    from repro.mpi.schedule import validate_schedule

    itemsize = 4
    # simulate_allreduce compiles with exactly these arguments, so the op
    # finds the schedule in the compiler's memo cache.
    with spans.span("mpi.compile"):
        schedule = ALLREDUCE_COMPILERS["multicolor"](
            ALLREDUCE_RANKS, ALLREDUCE_BYTES // itemsize, itemsize
        )
    with spans.span("mpi.verify"):
        report = validate_schedule(schedule)
    return {
        "setup_outputs": {
            "steps": report["n_steps"],
            "messages": report["n_messages"],
        },
    }


def _op_allreduce(state: dict[str, Any]) -> dict[str, Any]:
    from repro.mpi import simulate_allreduce

    out = simulate_allreduce(
        ALLREDUCE_RANKS, ALLREDUCE_BYTES, algorithm="multicolor"
    )
    return {"sim_s": out.elapsed, "wire_bytes": out.bytes_on_wire}


# -- step-ring-16 --------------------------------------------------------------

def _setup_step(spans: Spans) -> dict[str, Any]:
    """The ``repro step --model resnet50 --ranks 16 --algorithm ring`` path."""
    from repro.core.calibration import compute_model_for
    from repro.models.zoo import get_model
    from repro.mpi.schedule import validate_schedule
    from repro.mpi.verify import (
        analyze_bounds,
        train_step_contract,
        verify_schedule,
    )
    from repro.train.stepdag import compile_bucketed_step, compile_model_step

    with spans.span("train.compile"), _timed_compiler(spans, "ring"):
        schedule = compile_model_step(
            get_model("resnet50"),
            n_ranks=STEP_RANKS,
            algorithm="ring",
            compute=compute_model_for("resnet50"),
            batch_per_gpu=32,
            n_buckets=8,
            fp16=False,
            memory="data",
        )
        proxy = compile_bucketed_step(
            STEP_RANKS, STEP_PROXY_COUNT, schedule.itemsize,
            forward_time=1e-3, backward_time=2e-3, optim_time=5e-4,
            n_buckets=8, algorithm="ring", memory="staged",
        )
    with spans.span("mpi.verify"):
        report = validate_schedule(schedule)
        proof = verify_schedule(
            proxy, train_step_contract(STEP_RANKS, STEP_PROXY_COUNT)
        )
        bounds = analyze_bounds(schedule)
    return {
        "schedule": schedule,
        "critical_path_s": bounds.critical_path_s,
        "setup_outputs": {
            "steps": report["n_steps"],
            "messages": report["n_messages"],
            "proved": proof.ok,
            "critical_path_s": bounds.critical_path_s,
        },
    }


def _op_step(state: dict[str, Any]) -> dict[str, Any]:
    from repro.mpi.datatypes import SizeBuffer
    from repro.mpi.runner import build_world
    from repro.mpi.schedule import ScheduleExecutor

    schedule = state["schedule"]
    engine, world, comm = build_world(STEP_RANKS)
    buffers = [
        SizeBuffer(schedule.count, schedule.itemsize) for _ in range(STEP_RANKS)
    ]
    executor = ScheduleExecutor(comm, schedule, buffers)
    start = engine.now
    engine.run(executor.launch())
    return {
        "sim_s": engine.now - start,
        "compute_s": executor.stats.compute_seconds,
        "messages": executor.stats.n_messages,
        "flows": world.fabric.stats.transfers_started,
        "wire_bytes": world.fabric.stats.bytes_completed,
    }


# -- fleet-verify-d6 -----------------------------------------------------------

def _setup_fleet(spans: Spans) -> dict[str, Any]:
    import repro.fleet.verify  # noqa: F401  (set-up is the import alone)

    return {"setup_outputs": {}}


def _op_fleet(state: dict[str, Any]) -> dict[str, Any]:
    from repro.fleet.verify import smoke_bounds, verify_fleet

    # No max_states cap: the search cannot be truncated, and reaching the
    # full frontier depth with the stored state count shows it was not.
    result = verify_fleet(smoke_bounds(depth=FLEET_DEPTH, placement="pack"))
    return {
        "proved": result.ok,
        "states": result.states,
        "transitions": result.transitions,
        "frontier_depth": result.frontier_depth,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Spans], dict[str, Any]]
    op: Callable[[dict[str, Any]], dict[str, Any]]
    #: Items of the reference kernel timed after each op: about half an
    #: uncontended op (see ``reference.py``).
    reference_items: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("allreduce-multicolor-64", _setup_allreduce, _op_allreduce,
                 150_000),
        Workload("step-ring-16", _setup_step, _op_step, 80_000),
        Workload("fleet-verify-d6", _setup_fleet, _op_fleet, 400_000),
    )
}


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text())


def mismatches(
    outputs: dict[str, Any], expected: dict[str, Any]
) -> list[str]:
    """Every way ``outputs`` differs from ``expected``.

    Floats (simulated seconds) match within ``SIM_REL_TOL`` relative;
    integers and flags match exactly. A key missing from ``outputs`` is a
    mismatch.
    """
    found = []
    for key, want in expected.items():
        if key not in outputs:
            found.append(f"{key}: missing (expected {want!r})")
            continue
        got = outputs[key]
        if isinstance(want, float):
            ok = abs(got - want) <= SIM_REL_TOL * abs(want)
        else:
            ok = got == want
        if not ok:
            found.append(f"{key}: got {got!r}, expected {want!r}")
    return found


def check_op(
    state: dict[str, Any], outputs: dict[str, Any], expected: dict[str, Any]
) -> list[str]:
    """Mismatches of one op's simulated output, including the step
    workload's lower bound: no simulated step beats its critical path."""
    found = mismatches(outputs, expected["op"])
    bound = state.get("critical_path_s")
    if bound is not None and not outputs["sim_s"] >= bound:
        found.append(
            f"sim_s {outputs['sim_s']!r} is below the critical-path "
            f"bound {bound!r}"
        )
    return found
