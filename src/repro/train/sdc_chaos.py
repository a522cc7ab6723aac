"""Silent-data-corruption chaos for the training step: flip one gradient
bit on every (rank x bucket x iteration) point and prove the defense.

Each point runs a full multi-learner training job with one scripted
compute-plane bit-flip (:func:`repro.train.injection.sdc_flip` — bit 62
of one float64, between backward and the gradient allreduce), then
asserts five invariants:

1. **injected** — the scripted ``sdc`` fault actually fired, exactly
   once, at the scripted iteration against the scripted rank;
2. **detected before apply** — the same step's result carries an
   ``sdc-detect`` event: the fingerprint invariants caught the flip at
   the allreduce boundary, before any optimizer apply;
3. **attributed** — the detection names the corrupting rank (and the
   recompute confirmation, when enabled, agrees);
4. **contained** — exactly that learner is quarantined (an elastic
   shrink), and every survivor replica stays synchronized;
5. **repaired bit-exact** — the run's final params equal a fault-free
   reference that shrinks the same learner at the same iteration as a
   *controlled* shrink: the poisoned iteration was rolled back and
   re-run on the survivors with no numeric residue.

The sweep also proves the **zero-cost clean path**: a fault-free run
with fingerprinting enabled lands on bit-identical params *and* the
identical simulated time as one with it disabled — detection spends no
simulated events, so every existing golden stays byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import DIMDStore
from repro.data.codec import encode_image
from repro.models.nn import Dense, Flatten, Network, ReLU
from repro.train.distributed import DistributedSGDTrainer
from repro.train.injection import FaultPlan, sdc_flip
from repro.train.schedule import WarmupStepSchedule
from repro.utils.sampling import spread_sample

__all__ = ["SDCChaosOutcome", "SDCChaosPoint", "SDCChaosReport",
           "sdc_chaos_points", "sdc_chaos_sweep"]

#: Sweep geometry: learners in the group, gradient buckets, train steps.
_N_LEARNERS = 3
_N_BUCKETS = 2
_N_STEPS = 4
_N_CLASSES = 3
_SEED = 11


@dataclass(frozen=True)
class SDCChaosPoint:
    """One scripted flip: which rank, which bucket, which iteration."""

    rank: int
    bucket: int
    iteration: int

    def label(self) -> str:
        return (
            f"sdc rank={self.rank} bucket={self.bucket} "
            f"iteration={self.iteration}"
        )


@dataclass
class SDCChaosOutcome:
    point: SDCChaosPoint
    ok: bool
    violations: list[str] = field(default_factory=list)


@dataclass
class SDCChaosReport:
    outcomes: list[SDCChaosOutcome]
    clean_equivalent: bool = True

    @property
    def all_ok(self) -> bool:
        return self.clean_equivalent and all(o.ok for o in self.outcomes)

    def format(self) -> str:
        lines = [
            f"sdc chaos: {len(self.outcomes)} points, "
            f"{sum(o.ok for o in self.outcomes)} ok, "
            f"{sum(not o.ok for o in self.outcomes)} failed"
        ]
        for o in self.outcomes:
            mark = "ok " if o.ok else "FAIL"
            lines.append(f"  [{mark}] {o.point.label()}")
            for v in o.violations:
                lines.append(f"         - {v}")
        lines.append(
            "  clean path: fingerprinting "
            + ("zero-cost (params and sim time bit-identical)"
               if self.clean_equivalent
               else "PERTURBED the clean run")
        )
        return "\n".join(lines)


def _build_trainer(
    n_learners: int = _N_LEARNERS,
    seed: int = _SEED,
    *,
    plan: FaultPlan | None = None,
    sdc_check: bool = False,
    **overrides,
) -> DistributedSGDTrainer:
    """A small deterministic training job (the elastic-test fixture shape)."""

    def net_factory(rng):
        return Network(
            [Flatten(), Dense(16, 10, rng), ReLU(),
             Dense(10, _N_CLASSES, rng)]
        )

    rng = np.random.default_rng(0)
    stores = []
    for learner in range(n_learners):
        labels = rng.integers(0, _N_CLASSES, size=24)
        records = []
        for lab in labels:
            img = rng.integers(0, 60, size=(1, 4, 4), dtype=np.uint8)
            img[0, int(lab) % 4, :] = 255
            records.append(encode_image(img))
        stores.append(DIMDStore(records, labels, learner=learner))
    schedule = WarmupStepSchedule(
        batch_per_gpu=4, n_workers=n_learners, base_lr=0.08,
        reference_batch=4 * n_learners, warmup_epochs=0.0,
    )
    kwargs = dict(
        gpus_per_node=1, batch_per_gpu=4, schedule=schedule,
        reducer="multicolor", seed=seed, momentum=0.9,
        reshuffle_on_shrink=False, fault_plan=plan,
        sdc_check=sdc_check, step_buckets=_N_BUCKETS,
    )
    kwargs.update(overrides)
    return DistributedSGDTrainer(net_factory, stores, **kwargs)


def _scripted_reference(
    point: SDCChaosPoint, n_learners: int, **overrides
) -> np.ndarray:
    """Final params of a fault-free run that sheds the same learner at the
    same iteration as a controlled shrink (the repair target).  Pass the
    faulted run's mode switches (e.g. ``step_dag=True``) as overrides so
    the reference reduces in the identical association order."""
    trainer = _build_trainer(n_learners, **overrides)
    with trainer:
        for iteration in range(_N_STEPS):
            grads, losses = trainer.step_compute()
            if iteration == point.iteration:
                del grads[point.rank]
                trainer.absorb_failure(point.rank, reshuffle=False)
            summed, n = trainer._allreduce(grads)
            trainer.step_apply(summed, n, losses)
        return trainer.params()


def run_sdc_point(point: SDCChaosPoint) -> SDCChaosOutcome:
    """Run one scripted flip and check the five defense invariants."""
    violations: list[str] = []
    plan = FaultPlan([
        sdc_flip(point.rank, point.iteration, bucket=point.bucket)
    ])
    trainer = _build_trainer(plan=plan, sdc_check=True)
    with trainer:
        results = [trainer.step() for _ in range(_N_STEPS)]
        injected = [e for e in trainer.fault_log if e.kind == "sdc"]
        detected = [e for e in trainer.fault_log if e.kind == "sdc-detect"]
        if len(injected) != 1 or injected[0].rank != point.rank:
            violations.append(
                f"expected one sdc injection against rank {point.rank}, "
                f"got {[str(e) for e in injected]}"
            )
        if len(detected) != 1:
            violations.append(
                f"expected one sdc-detect, got "
                f"{[str(e) for e in detected]} — a flip reached the "
                f"optimizer undetected"
            )
        elif detected[0].rank != point.rank:
            violations.append(
                f"detection named rank {detected[0].rank}, "
                f"injected rank {point.rank}"
            )
        hit = results[point.iteration]
        if hit.quarantined != (point.rank,):
            violations.append(
                f"step {point.iteration} quarantined {hit.quarantined}, "
                f"expected learner {point.rank}"
            )
        if trainer.n_learners != _N_LEARNERS - 1:
            violations.append(
                f"{trainer.n_learners} survivors, expected "
                f"{_N_LEARNERS - 1}"
            )
        for r in results:
            if r.iteration - 1 > point.iteration and r.quarantined:
                violations.append(
                    f"step {r.iteration - 1} quarantined {r.quarantined} "
                    f"with no fault scripted there"
                )
        try:
            trainer.check_synchronized()
        except AssertionError as exc:
            violations.append(f"survivors desynchronized: {exc}")
        ref = _scripted_reference(point, _N_LEARNERS)
        if not np.array_equal(trainer.params(), ref):
            violations.append(
                "final params diverge from the controlled-shrink "
                "reference — the poisoned iteration left numeric residue"
            )
    return SDCChaosOutcome(point, ok=not violations, violations=violations)


def _clean_equivalent() -> bool:
    """Fault-free runs with detection on vs off: params and simulated
    time must both be bit-identical (zero-sim-event bookkeeping)."""
    outcomes = []
    for check in (False, True):
        trainer = _build_trainer(sdc_check=check)
        with trainer:
            results = [trainer.step() for _ in range(_N_STEPS)]
            outcomes.append(
                (trainer.params(), [r.sim_time for r in results])
            )
    (params_off, times_off), (params_on, times_on) = outcomes
    return bool(np.array_equal(params_off, params_on)) and (
        times_off == times_on
    )


def sdc_chaos_points(*, smoke: bool = False) -> list[SDCChaosPoint]:
    """The sweep grid: every rank x bucket x a spread of iterations
    (smoke: corner ranks and buckets at one mid-run iteration)."""
    if smoke:
        return [
            SDCChaosPoint(rank, bucket, 1)
            for rank in (0, _N_LEARNERS - 1)
            for bucket in (0, _N_BUCKETS - 1)
        ]
    iterations = sorted({0, 1, _N_STEPS - 1})
    return [
        SDCChaosPoint(rank, bucket, iteration)
        for rank in range(_N_LEARNERS)
        for bucket in range(_N_BUCKETS)
        for iteration in iterations
    ]


def sdc_chaos_sweep(
    *,
    smoke: bool = False,
    max_points: int | None = None,
) -> SDCChaosReport:
    """Run every scripted-flip point plus the clean-path equivalence."""
    points = spread_sample(sdc_chaos_points(smoke=smoke), max_points)
    outcomes = [run_sdc_point(point) for point in points]
    return SDCChaosReport(outcomes, clean_equivalent=_clean_equivalent())
