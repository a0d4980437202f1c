"""Finite-difference verification of every analytic gradient."""

import numpy as np
import pytest

from cotface.losses import ANGULAR_LOSSES, ScorePair, double_loss
from cotface.train import GRADCHECK_LOSSES, _TiledNormal, gradcheck
from oracles import gradcheck_loop

TOLERANCE = 1e-4


@pytest.mark.parametrize("loss_name", GRADCHECK_LOSSES)
def test_gradcheck_passes(loss_name):
    """Central differences agree with the analytic gradient at rel err 1e-4.

    25 trials per loss here keeps the unit suite fast; the acceptance suite
    runs the full 100-trial sweep.
    """
    report = gradcheck(loss_name, trials=25, h=1e-5, seed=0)
    assert report.passed(TOLERANCE), report.worst
    assert report.trials == 25


@pytest.mark.parametrize("loss_name", GRADCHECK_LOSSES)
def test_gradcheck_matches_per_coordinate_loop(loss_name):
    """Scoring the 2P bumped copies in one call gives the loop's report exactly."""
    for seed in (0, 1, 7):
        for h in (1e-5, 1e-3):
            assert repr(gradcheck(loss_name, 12, h, seed)) == \
                repr(gradcheck_loop(loss_name, 12, h, seed)), (seed, h)


def test_scaled_gradient_fails_both(monkeypatch):
    """A gradient 0.1% off fails the batched check and the loop alike."""
    lmcot = ANGULAR_LOSSES["lmcot"]

    def scaled(batch, cfg, rng=None):
        out = lmcot(batch, cfg, rng=rng)
        out.grad_theta = out.grad_theta * 1.001
        return out

    monkeypatch.setitem(ANGULAR_LOSSES, "scaled-lmcot", scaled)
    batched, loop = gradcheck("scaled-lmcot", trials=10), gradcheck_loop("scaled-lmcot", trials=10)
    assert not batched.passed(TOLERANCE) and not loop.passed(TOLERANCE)
    assert repr(batched) == repr(loop)


def test_tiled_normal_repeats_one_draw_per_copy():
    draws = _TiledNormal(4, 3, 2)
    rng = np.random.default_rng(4)
    for _ in range(2):  # each call continues the trial's stream, like successive draws
        np.testing.assert_array_equal(draws.standard_normal(6), np.tile(rng.standard_normal(3), 2))
    with pytest.raises(ValueError):
        draws.standard_normal(3)


def test_gradcheck_deterministic():
    a = gradcheck("lmcot", trials=5, seed=3)
    b = gradcheck("lmcot", trials=5, seed=3)
    assert a.max_rel_err == b.max_rel_err and a.worst == b.worst


def test_coarse_step_degrades_agreement():
    # truncation error grows as h^2, so a coarse step must look much worse
    fine = gradcheck("arcface", trials=10, h=1e-5, seed=0)
    coarse = gradcheck("arcface", trials=10, h=5e-2, seed=0)
    assert coarse.max_rel_err > 1e3 * fine.max_rel_err
    assert coarse.max_rel_err > TOLERANCE


def test_double_loss_gradient_exact():
    """The separation loss is linear, so differences are exact at any h."""
    report = gradcheck("double", trials=10, h=1e-3, seed=0)
    assert report.max_rel_err < 1e-9


def test_double_loss_directional_derivative():
    pair = ScorePair(low=[0.3, 0.5], high=[0.6, 0.8])
    out = double_loss(pair)
    h = 1e-6
    bumped = double_loss(ScorePair(low=[0.3 + h, 0.5], high=[0.6, 0.8]))
    assert (bumped.value - out.value) / h == pytest.approx(out.grad_low[0], rel=1e-6)


def test_unknown_loss_rejected():
    with pytest.raises(ValueError):
        gradcheck("not-a-loss", trials=1)


def test_report_carries_worst_case():
    report = gradcheck("cosface", trials=5)
    assert {"trial", "coordinate", "analytic", "fd"} <= set(report.worst)
