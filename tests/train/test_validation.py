"""Tests for distributed validation."""

import numpy as np
import pytest

from repro.cluster import P100, GPUComputeModel
from repro.data import IMAGENET_1K
from repro.models import build_resnet50
from repro.models.nn import Dense, Flatten, Network, ReLU
from repro.train.validation import ValidationTimeModel, distributed_accuracy


def make_nets(n, seed=0):
    rng = np.random.default_rng(seed)
    master = Network([Flatten(), Dense(8, 6, rng), ReLU(), Dense(6, 3, rng)])
    nets = [master]
    for _ in range(n - 1):
        clone = Network(
            [Flatten(), Dense(8, 6, rng), ReLU(), Dense(6, 3, rng)]
        )
        clone.set_flat_params(master.get_flat_params())
        nets.append(clone)
    return nets


def test_distributed_accuracy_matches_single():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((37, 1, 2, 4))  # odd size: ragged shards
    y = rng.integers(0, 3, size=37)
    nets = make_nets(4)
    single = nets[0].accuracy(x, y)
    distributed = distributed_accuracy(nets, x, y)
    assert distributed == pytest.approx(single)


def test_distributed_accuracy_more_replicas_than_samples():
    nets = make_nets(5)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 1, 2, 4))
    y = rng.integers(0, 3, size=3)
    assert distributed_accuracy(nets, x, y) == pytest.approx(
        nets[0].accuracy(x, y)
    )


def test_distributed_accuracy_single_replica():
    # One replica: the reduction is a zero-step schedule, so the count
    # buffer passes through untouched.
    nets = make_nets(1)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((11, 1, 2, 4))
    y = rng.integers(0, 3, size=11)
    assert distributed_accuracy(nets, x, y) == pytest.approx(
        nets[0].accuracy(x, y)
    )


def test_distributed_accuracy_validation():
    nets = make_nets(2)
    with pytest.raises(ValueError):
        distributed_accuracy([], np.zeros((1, 8)), np.zeros(1, dtype=int))
    with pytest.raises(ValueError):
        distributed_accuracy(nets, np.zeros((2, 1, 2, 4)), np.zeros(3, dtype=int))


def test_validation_pass_time_scales_inverse_with_gpus():
    compute = GPUComputeModel(gpu=P100, efficiency=0.5)
    t8 = ValidationTimeModel(
        model=build_resnet50(), compute=compute, dataset=IMAGENET_1K, n_nodes=8
    ).pass_time()
    t32 = ValidationTimeModel(
        model=build_resnet50(), compute=compute, dataset=IMAGENET_1K, n_nodes=32
    ).pass_time()
    assert t8 == pytest.approx(4 * t32, rel=0.15)  # ceil() granularity
    # 50k images forward-only at 8 nodes: seconds, not minutes.
    assert 1.0 < t8 < 60.0


def test_validation_model_checks():
    compute = GPUComputeModel(gpu=P100, efficiency=0.5)
    with pytest.raises(ValueError):
        ValidationTimeModel(
            model=build_resnet50(), compute=compute,
            dataset=IMAGENET_1K, n_nodes=0,
        )
