"""The names the benchmark's traced run wraps, and how they are reached.

bench/spans.py replaces these module attributes with timing wrappers, so
each must exist where the caller looks it up, and the calls it counts
must go through that lookup.  A break here would otherwise show up only
as a KeyError inside a benchmark child process.
"""

import numpy as np
import pytest

from kraussphere import cli, optimizer, sampling, transforms
from kraussphere.channels import apply_channel_batch, flip_channel
from kraussphere.sampling import sample_bloch_ball

HOOKED = [
    (cli, "run_single"),
    (cli, "learn_quasi_inverse"),
    (sampling.SampleConfig, "draw"),
    (optimizer, "apply_channel_batch"),
    (optimizer, "generator_basis"),
    (optimizer, "finite_transform"),
    (optimizer, "channel_from_angles"),
    (optimizer.LossContext, "__init__"),
    (optimizer.LossContext, "loss"),
    (optimizer.LossContext, "gradient"),
    (transforms, "finite_transform"),
]


@pytest.mark.parametrize(
    "owner,name", HOOKED, ids=[f"{o.__name__}.{n}" for o, n in HOOKED]
)
def test_hooked_name_exists(owner, name):
    assert callable(getattr(owner, name))


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` like the tracer does; return the call list."""
    inner, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def ensemble():
    states = np.stack(sample_bloch_ball(seed=3, count=6))
    channel = flip_channel("bit_flip", 0.3)
    return apply_channel_batch(channel.operators, states), states


def test_context_builds_the_basis_once_through_the_optimizer(monkeypatch, ensemble):
    calls = counting(monkeypatch, optimizer, "generator_basis")
    optimizer.LossContext(*ensemble, 2)
    assert len(calls) == 1


def test_gradient_transforms_through_the_module(monkeypatch, ensemble):
    ctx = optimizer.LossContext(*ensemble, 2)
    calls = counting(monkeypatch, transforms, "finite_transform")
    angles = np.zeros(ctx.n_angles)
    angles[4] = 0.3
    ctx.gradient(angles)
    assert calls


def test_learn_evaluates_the_loss_before_its_first_gradient(monkeypatch):
    # the benchmark child ends set-up at the first LossContext.loss call;
    # a learn that went straight to gradient would leave set-up unstamped
    order = []
    for name in ("loss", "gradient"):
        inner = getattr(optimizer.LossContext, name)

        def wrapper(self, *args, _inner=inner, _name=name, **kwargs):
            order.append(_name)
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(optimizer.LossContext, name, wrapper)
    states = np.stack(sample_bloch_ball(seed=3, count=6))
    config = optimizer.OptimizerConfig(max_iters=3, m=2)
    optimizer.learn_quasi_inverse(flip_channel("bit_flip", 0.3), states, config)
    assert order[0] == "loss" and "gradient" in order


def test_basis_items_report_their_bytes():
    # the traced run totals .matrix.nbytes + .projector.nbytes over the basis
    basis = transforms.generator_basis(16)
    assert sum(1 for _ in basis) == len(basis)
    for gen in basis:
        assert gen.matrix.nbytes > 0 and gen.projector.nbytes > 0
