"""Closed-loop host-time benchmark of the repro simulator.

Run from the repository root:

    python3 perfbench/run.py --workload allreduce-multicolor-64 \
        --seed 0 --seconds 30 --trace 0

One process with one thread sets a workload up and runs one untimed
warm-up op. Then it repeats the workload's op back to back for
``--seconds``, and checks every op's simulated output against
``expected.json``. Each op is followed by a run of the fixed reference
kernel in ``reference.py``, which measures how fast the host runs Python
at that moment. Contention on a shared host makes ops slower, often for
long stretches, but never faster. So the gated speed metric is the fast
decile (10th percentile) of host seconds per op, scaled by the fast
decile of the kernel's speed in the same run.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median
of several fresh-interpreter set-ups, each scaled by a kernel run right
after it. They run one at a time, before any op is timed. ``--trace 1`` is a separate run for
the per-layer metrics. Half its time runs untraced ops and the other
half runs ops under cProfile. The traced ops must produce the same
simulated output as the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it are context that is not gated: raw op times, kernel speed, CPUs and
host steal time. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from layers import (
    ENGINE_STEP,
    FABRIC_TRANSFER,
    LAYERS,
    MAXMIN,
    call_count,
    cumulative_s,
    self_time_by_layer,
)
from reference import slowdown
from workloads import WORKLOADS, Spans, check_op, load_expected, mismatches

ROOT = Path(__file__).resolve().parent.parent

#: Fresh-interpreter set-ups per ``--trace 0`` run.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
#: Reference-kernel items run after each set-up: about as long as one.
SETUP_REFERENCE_ITEMS = 100_000


def use_checkout_src() -> bool:
    """Import ``repro`` from this checkout's ``src``; False if it has none."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no repro package under {src}: run from a full checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def set_up(name: str, spans: Spans, expected: dict[str, Any]) -> dict[str, Any]:
    state = WORKLOADS[name].setup(spans)
    found = mismatches(state["setup_outputs"], expected.get("setup", {}))
    if found:
        raise RuntimeError(f"{name} set-up diverged: " + "; ".join(found))
    return state


def measure_setup(name: str) -> tuple[list[float], list[float]]:
    """Host seconds from spawning a fresh interpreter until it has set
    ``name`` up, once per sample and one sample at a time. Each sample is
    followed by a reference-kernel run, returned as its slowdown.

    The child stamps ``time.monotonic()`` when set-up is done; on Linux
    that clock is shared by all processes, so the parent subtracts its own
    stamp from before the spawn and the child's exit is not counted.
    """
    samples, slowdowns = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--setup-only"],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise RuntimeError(
                f"set-up of {name} failed in a fresh interpreter:\n"
                f"{child.stderr}"
            )
        samples.append(float(child.stdout.split()[-1]) - start)
        slowdowns.append(slowdown(SETUP_REFERENCE_ITEMS))
    return samples, slowdowns


@dataclass
class OpLog:
    """What one phase of back-to-back ops did."""

    seconds: list[float] = field(default_factory=list)
    reference_slowdown: list[float] = field(default_factory=list)
    outputs: list[dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def p10(self) -> float:
        return _quantile(self.seconds, 0.1)

    def host_speed(self) -> float:
        """Fast-decile reference-kernel speed relative to nominal."""
        return 1 / _quantile(self.reference_slowdown, 0.1)


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run_op(
    name: str,
    state: dict[str, Any],
    expected: dict[str, Any],
    log: OpLog,
    profiler: cProfile.Profile | None = None,
) -> None:
    """Run, time and check one op, recording it in ``log``.

    Garbage from the previous op is collected first, outside the timed
    region, so each op is timed from the same heap.
    """
    gc.collect()
    log.attempted += 1
    start = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            outputs = WORKLOADS[name].op(state)
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception:  # an op that raises counts as failed; keep measuring
        log.seconds.append(time.perf_counter() - start)
        log.failed += 1
        if log.failed == 1:
            traceback.print_exc()
        return
    log.seconds.append(time.perf_counter() - start)
    log.outputs.append(outputs)
    found = check_op(state, outputs, expected)
    if found:
        log.failed += 1
        if log.failed == 1:
            print(f"{name}: op output diverged: " + "; ".join(found),
                  file=sys.stderr)


def run_ops(
    name: str,
    state: dict[str, Any],
    expected: dict[str, Any],
    seconds: float,
    profiler: cProfile.Profile | None = None,
) -> OpLog:
    """Ops back to back until ``seconds`` have passed, at least one.

    Untraced, each op is followed by a reference-kernel run.
    """
    log = OpLog()
    deadline = time.perf_counter() + seconds
    while log.attempted == 0 or time.perf_counter() < deadline:
        run_op(name, state, expected, log, profiler)
        if profiler is None:
            log.reference_slowdown.append(
                slowdown(WORKLOADS[name].reference_items))
    return log


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    return ticks[7], sum(ticks[:8])


def timed_phase(
    label: str,
    name: str,
    state: dict[str, Any],
    expected: dict[str, Any],
    seconds: float,
    profiler: cProfile.Profile | None = None,
) -> OpLog:
    """``run_ops`` plus a context line: raw op times, kernel speed, CPUs
    and the share of CPU time the hypervisor stole meanwhile."""
    before = _cpu_ticks()
    log = run_ops(name, state, expected, seconds, profiler)
    after = _cpu_ticks()
    steal = "n/a"
    if before and after and after[1] > before[1]:
        steal = f"{(after[0] - before[0]) / (after[1] - before[1]):.1%}"
    s = log.seconds
    speed = (f" host_speed={log.host_speed():.3f}"
             if log.reference_slowdown else "")
    print(
        f"context {label}: ops={len(s)} raw p10={log.p10():.4f}s "
        f"p50={statistics.median(s):.4f}s p90={_quantile(s, 0.9):.4f}s"
        f"{speed} failed={log.failed}/{log.attempted} "
        f"nproc={os.cpu_count()} steal={steal}"
    )
    return log


def metric_units(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def end_to_end(name, state, expected, seconds) -> tuple[dict, OpLog]:
    setups, setup_slowdowns = measure_setup(name)
    # Each set-up is scaled by the kernel run right after it.
    scaled_setups = [s / k for s, k in zip(setups, setup_slowdowns)]
    print("context set-ups: raw " + " ".join(f"{s:.4f}s" for s in setups)
          + " host_speed "
          + " ".join(f"{1 / k:.3f}" for k in setup_slowdowns))
    run_op(name, state, expected, warmup := OpLog())
    # Every op is the same, so set-up plus one op reaches the peak. Read
    # it before the timed loop, so only set-up and the op count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    log = timed_phase(name, name, state, expected, seconds)
    log.attempted += warmup.attempted
    log.failed += warmup.failed
    values = {
        "op_p10_s": log.p10() * log.host_speed(),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return values, log


def per_layer(name, state, expected, spans, seconds) -> tuple[dict, OpLog, bool]:
    run_op(name, state, expected, warmup := OpLog())
    plain = timed_phase(f"{name} untraced", name, state, expected, seconds / 2)
    profiler = cProfile.Profile()
    traced = timed_phase(f"{name} traced", name, state, expected, seconds / 2,
                         profiler)
    log = OpLog(
        attempted=warmup.attempted + plain.attempted + traced.attempted,
        failed=warmup.failed + plain.failed + traced.failed,
    )
    untraced_outputs = warmup.outputs + plain.outputs
    baseline = untraced_outputs[0] if untraced_outputs else {}
    # Tracing must never perturb simulated behaviour.
    unperturbed = all(out == baseline for out in traced.outputs)
    sim_s = baseline.get("sim_s", 0.0)
    drift = max(
        (abs(out.get("sim_s", 0.0) - sim_s) / sim_s for out in traced.outputs),
        default=0.0,
    ) if sim_s else 0.0

    stats = pstats.Stats(profiler)
    n = len(traced.seconds)
    self_s = self_time_by_layer(stats)
    total = sum(self_s.values())
    flows = call_count(stats, FABRIC_TRANSFER) / n
    passes = call_count(stats, MAXMIN) / n
    if flows and not passes:
        print(f"FLAG net.maxmin_passes: reads 0 while {flows:g} flows ran "
              f"per op; the max-min solver {MAXMIN[1]} in {MAXMIN[0]} was "
              f"renamed or removed. Update layers.MAXMIN; this is not a "
              f"saving.")
    print("context layer self-time shares: " + " ".join(
        f"{layer}={share / total:.1%}"
        for layer, share in sorted(self_s.items(), key=lambda kv: -kv[1])))

    setup_out = state["setup_outputs"]
    states = baseline.get("states", 0)
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
        values[f"{layer}.share"] = self_s.get(layer, 0.0) / total
    values.update({
        "sim.events": call_count(stats, ENGINE_STEP) / n,
        "sim.sim_s": sim_s,
        "sim.drift_rel": drift,
        "net.flows": flows,
        "net.maxmin_passes": passes,
        "net.us_per_pass": (
            cumulative_s(stats, MAXMIN) / n / passes * 1e6 if passes else 0.0
        ),
        "mpi.messages": setup_out.get("messages", 0),
        "mpi.steps": setup_out.get("steps", 0),
        "mpi.compile_s": spans.self_s.get("mpi.compile", 0.0),
        "mpi.verify_s": spans.self_s.get("mpi.verify", 0.0),
        "train.compile_s": spans.self_s.get("train.compile", 0.0),
        "fleet.states": states,
        "fleet.transitions": baseline.get("transitions", 0),
        "fleet.states_per_s": states / (plain.p10() * plain.host_speed()),
        "trace.overhead": traced.p10() / plain.p10(),
    })
    return values, log, unperturbed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: no workload input is random")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not use_checkout_src():
        return 2

    expected = load_expected()[args.workload]
    spans = Spans()
    if args.setup_only:
        set_up(args.workload, spans, expected)
        print(time.monotonic())
        return 0

    print(f"context workload={args.workload} seed={args.seed} "
          f"(inputs are fixed) trace={args.trace}")
    key = "per_layer" if args.trace else "end_to_end"
    units = metric_units(key)
    state = set_up(args.workload, spans, expected)
    if args.trace:
        values, log, unperturbed = per_layer(
            args.workload, state, expected, spans, args.seconds)
    else:
        values, log = end_to_end(args.workload, state, expected, args.seconds)
        unperturbed = True
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} differ between "
            f"the harness and BENCHMARK.json {key}")
    print(json.dumps({
        "correct": log.failed == 0 and unperturbed,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
