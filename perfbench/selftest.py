"""Self-test of the benchmark's output check.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it sets up once and runs one op against the stored
expected outputs, which must pass. Then it perturbs each stored value in
turn (set-up and op values, and the step workload's critical-path bound)
and requires the check to reject the op's output. Finally it runs
several ops against one perturbed value and requires every one of them
to count as failed. Exits 0 when all of this holds.
"""

from __future__ import annotations

import copy
import sys

from run import OpLog, run_op, set_up, use_checkout_src
from workloads import WORKLOADS, Spans, check_op, load_expected, mismatches

OPS_PER_PERTURBATION = 3


def perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return value * (1 + 1e-6)
    return value + 1


def check_workload(name: str, expected: dict) -> list[str]:
    problems = []
    caught = 0
    state = set_up(name, Spans(), expected)
    log = OpLog()
    run_op(name, state, expected, log)
    if log.failed or not log.outputs:
        return [f"{name}: an op fails against the stored expected values"]
    outputs = log.outputs[0]

    for part in ("setup", "op"):
        for key, value in expected.get(part, {}).items():
            wrong = copy.deepcopy(expected)
            wrong[part][key] = perturbed(value)
            found = (
                mismatches(state["setup_outputs"], wrong["setup"])
                if part == "setup"
                else check_op(state, outputs, wrong)
            )
            if found:
                caught += 1
            else:
                problems.append(f"{name}: perturbed {part}.{key} not caught")
    if "critical_path_s" in state:
        raised = dict(state, critical_path_s=outputs["sim_s"] * (1 + 1e-6))
        if check_op(raised, outputs, expected):
            caught += 1
        else:
            problems.append(f"{name}: sim_s below the critical path not caught")

    key, value = next(iter(expected["op"].items()))
    wrong = copy.deepcopy(expected)
    wrong["op"][key] = perturbed(value)
    log = OpLog()
    for _ in range(OPS_PER_PERTURBATION):
        run_op(name, state, wrong, log)
    if log.failed != log.attempted:
        problems.append(
            f"{name}: with op.{key} perturbed only {log.failed} of "
            f"{log.attempted} ops failed"
        )
    print(f"{name}: {caught} perturbed expectations caught; with op.{key} "
          f"perturbed {log.failed}/{log.attempted} ops failed")
    return problems


def main() -> int:
    if not use_checkout_src():
        return 2
    expected = load_expected()
    problems = []
    for name in WORKLOADS:
        problems += check_workload(name, expected[name])
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
