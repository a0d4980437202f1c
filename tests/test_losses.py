"""Loss values, per-sample decompositions and the specialization lattice.

The frozen two-sample regression batch lives in cotface.reference; every
scalar expectation here was first reproduced with the scalar-loop oracles in
tests/oracles.py and then pinned.
"""

import decimal
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import cotface
import oracles
from cotface import losses
from cotface.angular import AngularBatch, LossConfig, SingularityError
from cotface.losses import (
    ANGULAR_LOSSES,
    ELASTIC_LOSSES,
    LossOutput,
    double_loss,
    margin_sigmoid_ce,
    softmax_loss,
)
from cotface.metrics import ScoredPairs
from cotface.reference import LABELS, LOGITS, THETA, batch as reference_batch

norm_softmax_loss = ANGULAR_LOSSES["norm-softmax"]
sphereface_loss = ANGULAR_LOSSES["sphereface"]
cosface_loss = ANGULAR_LOSSES["cosface"]
arcface_loss = ANGULAR_LOSSES["arcface"]
elasticface_arc_loss = ANGULAR_LOSSES["elastic-arc"]
elasticface_cos_loss = ANGULAR_LOSSES["elastic-cos"]
lmcot_loss = ANGULAR_LOSSES["lmcot"]
combined_margin_cos_loss = ANGULAR_LOSSES["combined-cos"]
combined_margin_cot_loss = ANGULAR_LOSSES["combined-cot"]
elastic_cot_loss = ANGULAR_LOSSES["elastic-cot"]
generalized_lmcot_loss = ANGULAR_LOSSES["generalized-lmcot"]
dual_cot_cos_loss = ANGULAR_LOSSES["dual"]


def _cfg(**kwargs) -> LossConfig:
    return LossConfig(s=2.0, log_base="ten", **kwargs)


def _random_batch(rng, n_samples=4, n_classes=5) -> AngularBatch:
    theta = rng.uniform(0.15, 2.6, size=(n_samples, n_classes))
    labels = rng.integers(0, n_classes, size=n_samples)
    return AngularBatch(theta, labels)


def _outputs_equal(a: LossOutput, b: LossOutput):
    assert a.value == b.value
    np.testing.assert_array_equal(a.per_sample, b.per_sample)
    np.testing.assert_array_equal(a.grad, b.grad)


class TestReferenceValues:
    """The five frozen base-10 losses on the two-sample batch at s = 2."""

    def test_softmax(self):
        assert softmax_loss(LOGITS, LABELS, _cfg()).value == pytest.approx(0.3257, abs=1e-3)

    def test_sphereface(self):
        assert sphereface_loss(reference_batch(), _cfg(m=1.1)).value == \
            pytest.approx(0.4638, abs=1e-3)

    def test_cosface(self):
        assert cosface_loss(reference_batch(), _cfg(m=0.05)).value == \
            pytest.approx(0.4353, abs=1e-3)

    def test_arcface(self):
        assert arcface_loss(reference_batch(), _cfg(m=0.05)).value == \
            pytest.approx(0.4322, abs=1e-3)

    def test_lmcot(self):
        assert lmcot_loss(reference_batch(), _cfg(m=0.05)).value == \
            pytest.approx(2.0765, abs=1e-3)


class TestPerSampleDecomposition:
    """Printed per-sample terms: value = (term_0 + term_1) / 2."""

    @pytest.mark.parametrize("fn,m,terms", [
        (sphereface_loss, 1.1, (0.0336, 0.4302)),
        (cosface_loss, 0.05, (0.0368, 0.3985)),
        (arcface_loss, 0.05, (0.034, 0.3982)),
    ], ids=["sphereface_loss-1.1-terms0", "cosface_loss-0.05-terms1", "arcface_loss-0.05-terms2"])
    def test_printed_terms(self, fn, m, terms):
        out = fn(reference_batch(), _cfg(m=m))
        # printed terms are already divided by N = 2
        np.testing.assert_allclose(out.per_sample / 2.0, terms, atol=1e-3)

    def test_lmcot_terms(self):
        out = lmcot_loss(reference_batch(), _cfg(m=0.05))
        assert out.per_sample[0] / 2.0 < 1e-5
        assert out.per_sample[1] / 2.0 == pytest.approx(2.0765, abs=1e-3)

    def test_value_is_mean_of_per_sample(self):
        rng = np.random.default_rng(0)
        for name, fn in ANGULAR_LOSSES.items():
            out = fn(_random_batch(rng), _cfg(m=0.1), rng=np.random.default_rng(1))
            assert out.value == pytest.approx(out.per_sample.mean(), rel=1e-15)


class TestAgainstScalarOracle:
    """Vectorized values must match scalar-loop evaluation exactly."""

    def test_softmax_matches_oracle(self):
        value, per_sample = oracles.softmax_ce_value(LOGITS, LABELS, ln_b=np.log(10.0))
        out = softmax_loss(LOGITS, LABELS, _cfg())
        assert out.value == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(out.per_sample, per_sample, rtol=1e-12)

    @pytest.mark.parametrize("logits,labels,message", [
        ([[1.0, 2.0, 3.0]], [-1], "labels out of range"),
        ([[1.0, 2.0, 3.0]], [3], "labels out of range"),
        ([[1.0, 2.0, 3.0]], [1.5], "labels must be integers"),
        ([[1.0, 2.0, 3.0]], [2, 0], r"labels must have shape \(N,\)"),
        # the logits are checked first, and by their own name
        ([1.0, 2.0], [0], r"logits must be 2-D \(N, n_classes\)"),
        ([[1.0, np.nan]], [0], "logits contain non-finite values"),
        ([[1.0, np.inf]], [0], "logits contain non-finite values"),
        ([[-np.inf, 2.0]], [5], "logits contain non-finite values"),
    ])
    def test_softmax_refuses_the_labels_angular_batch_refuses(self, logits, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            softmax_loss(logits, labels)

    def test_uniform_logits_give_log_n(self):
        out = softmax_loss(np.zeros((3, 7)), [0, 3, 6], LossConfig())
        assert out.value == pytest.approx(np.log(7.0), rel=1e-12)

    @pytest.mark.parametrize("logits,label,gap,printed", [
        ([10.0, -10.0], 0, 20.0, 2.06e-9),
        ([0.0, 30.0], 1, 30.0, 9.36e-14),  # a loss far below ulp(30) keeps its digits
    ])
    def test_one_sided_logits_closed_form(self, logits, label, gap, printed):
        out = softmax_loss([logits], [label], LossConfig())
        assert out.value == pytest.approx(np.log1p(np.exp(-gap)), rel=1e-12, abs=0.0)
        assert out.value == pytest.approx(printed, rel=5e-3)

    @pytest.mark.parametrize("name,f,g", [
        ("norm-softmax", lambda t, c: np.cos(t), lambda t, c: np.cos(t)),
        ("sphereface", lambda t, c: np.cos(c.m * t), lambda t, c: np.cos(t)),
        ("cosface", lambda t, c: np.cos(t) - c.m, lambda t, c: np.cos(t)),
        ("arcface", lambda t, c: np.cos(t + c.m), lambda t, c: np.cos(t)),
        ("lmcot", lambda t, c: 1.0 / np.tan(t + c.m), lambda t, c: 1.0 / np.tan(t)),
        ("combined-cos", lambda t, c: np.cos(c.m1 * t + c.m2) - c.m3,
         lambda t, c: np.cos(t)),
        ("combined-cot", lambda t, c: 1.0 / np.tan(c.m1 * t + c.m2) - c.m3,
         lambda t, c: 1.0 / np.tan(t)),
    ])
    def test_angular_losses_match_oracle(self, name, f, g):
        rng = np.random.default_rng(11)
        for trial in range(20):
            b = _random_batch(rng)
            cfg = _cfg(
                m=float(rng.uniform(0.01, 0.4)),
                m1=float(rng.uniform(0.9, 1.1)),
                m2=float(rng.uniform(0.0, 0.2)),
                m3=float(rng.uniform(0.0, 0.2)),
            )
            value, per_sample = oracles.ce_value(
                b.theta, b.labels,
                lambda t: f(t, cfg), lambda t: g(t, cfg),
                s=cfg.s, ln_b=np.log(10.0),
            )
            out = ANGULAR_LOSSES[name](b, cfg)
            assert out.value == pytest.approx(value, rel=1e-12), (name, trial)
            np.testing.assert_allclose(out.per_sample, per_sample, rtol=1e-12)

    def test_dual_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            b = _random_batch(rng)
            cfg = _cfg(
                m1=float(rng.uniform(0.9, 1.1)),
                m2=float(rng.uniform(0.0, 0.2)),
                m3=float(rng.uniform(0.0, 0.2)),
                alpha=float(rng.uniform(0.2, 1.0)),
                beta=float(rng.uniform(0.2, 1.0)),
            )
            # sigma = 0 makes every elastic draw equal its mean
            out = dual_cot_cos_loss(b, cfg, rng=np.random.default_rng(0))
            v_cot, _ = oracles.ce_value(
                b.theta, b.labels,
                lambda t: 1.0 / np.tan(cfg.m1 * t + cfg.m2) - cfg.m3,
                lambda t: 1.0 / np.tan(t), s=cfg.s, ln_b=np.log(10.0))
            v_cos, _ = oracles.ce_value(
                b.theta, b.labels,
                lambda t: np.cos(cfg.m1 * t + cfg.m2) - cfg.m3,
                lambda t: 1.0 / np.tan(t), s=cfg.s, ln_b=np.log(10.0))
            assert out.value == pytest.approx(cfg.alpha * v_cot + cfg.beta * v_cos,
                                              rel=1e-12)


    @pytest.mark.parametrize("name", sorted(ELASTIC_LOSSES))
    def test_sampled_margins_match_oracle(self, name):
        """Margins re-drawn from the loss's seed, one slot at a time in the
        order e1, e2, e3, give the loss value sample by sample."""
        def cot(t):
            return 1.0 / np.tan(t)

        all_three = [("m1", "sigma1"), ("m2", "sigma2"), ("m3", "sigma3")]
        # drawn (mean, sigma) fields, [(weight field, f(t, margins))], competitor g
        draws, branches, g = {
            "elastic-arc": ([("m", "sigma2")], [(None, lambda t, e: np.cos(t + e[0]))], np.cos),
            "elastic-cos": ([("m", "sigma3")], [(None, lambda t, e: np.cos(t) - e[0])], np.cos),
            "elastic-cot": ([("m", "sigma2")], [(None, lambda t, e: cot(t + e[0]))], cot),
            "generalized-lmcot": (
                all_three, [(None, lambda t, e: cot(e[0] * t + e[1]) - e[2])], cot),
            "dual": (all_three, [("alpha", lambda t, e: cot(e[0] * t + e[1]) - e[2]),
                                 ("beta", lambda t, e: np.cos(e[0] * t + e[1]) - e[2])], cot),
        }[name]
        rng = np.random.default_rng(31)
        for trial in range(10):
            b = _random_batch(rng)
            cfg = _cfg(
                m=float(rng.uniform(0.01, 0.3)),
                m1=float(rng.uniform(0.9, 1.05)),
                m2=float(rng.uniform(0.0, 0.2)),
                m3=float(rng.uniform(0.0, 0.2)),
                sigma1=0.03, sigma2=0.04, sigma3=0.05,
                alpha=float(rng.uniform(0.2, 1.0)),
                beta=float(rng.uniform(0.2, 1.0)),
            )
            stream = np.random.default_rng(100 + trial)
            n = b.n_samples
            margins = [getattr(cfg, mean) + getattr(cfg, sigma) * stream.standard_normal(n)
                       for mean, sigma in draws]
            per_sample = np.zeros(b.n_samples)
            for weight, f in branches:
                w = 1.0 if weight is None else getattr(cfg, weight)
                for i in range(b.n_samples):
                    e = [m[i] for m in margins]
                    _, per = oracles.ce_value(
                        b.theta[i : i + 1], b.labels[i : i + 1],
                        lambda t: f(t, e), g, s=cfg.s, ln_b=np.log(10.0))
                    per_sample[i] += w * per[0]
            out = ANGULAR_LOSSES[name](b, cfg, rng=np.random.default_rng(100 + trial))
            assert out.value == pytest.approx(per_sample.mean(), rel=1e-12), (name, trial)
            np.testing.assert_allclose(out.per_sample, per_sample, rtol=1e-12)


class TestTrivialIdentities:
    def test_norm_softmax_zero_scale(self):
        b = _random_batch(np.random.default_rng(3))
        out = norm_softmax_loss(b, LossConfig(s=0.0))
        assert out.value == pytest.approx(np.log(b.n_classes), rel=1e-12)

    def test_norm_softmax_perfect_separation(self):
        theta = np.full((4, 10), np.pi / 2.0)
        theta[:, 0] = 1e-6
        out = norm_softmax_loss(AngularBatch(theta, np.zeros(4, dtype=int)),
                                LossConfig(s=64.0))
        assert out.value < 1e-12

    def test_sphereface_unit_margin_is_norm_softmax(self):
        b = _random_batch(np.random.default_rng(4))
        _outputs_equal(sphereface_loss(b, _cfg(m=1.0)), norm_softmax_loss(b, _cfg(m=1.0)))

    def test_cosface_zero_margin_is_norm_softmax(self):
        b = _random_batch(np.random.default_rng(5))
        _outputs_equal(cosface_loss(b, _cfg(m=0.0)), norm_softmax_loss(b, _cfg(m=0.0)))

    def test_arcface_zero_margin_is_norm_softmax(self):
        b = _random_batch(np.random.default_rng(6))
        _outputs_equal(arcface_loss(b, _cfg(m=0.0)), norm_softmax_loss(b, _cfg(m=0.0)))

    def test_arcface_duplication_invariance(self):
        b = _random_batch(np.random.default_rng(7))
        dup = AngularBatch(np.tile(b.theta, (3, 1)), np.tile(b.labels, 3))
        assert arcface_loss(dup, _cfg(m=0.1)).value == \
            pytest.approx(arcface_loss(b, _cfg(m=0.1)).value, rel=1e-12)

    def test_lmcot_all_right_angles(self):
        theta = np.full((3, 6), np.pi / 2.0)
        out = lmcot_loss(AngularBatch(theta, np.array([0, 2, 5])), LossConfig(s=2.0, m=0.0))
        assert out.value == pytest.approx(np.log(6.0), rel=1e-12)

    @pytest.mark.parametrize("name", [*ANGULAR_LOSSES, "softmax"])
    def test_one_class_costs_nothing(self, name):
        """With no competitor, each sample's loss and every gradient are 0."""
        cfg = _cfg(m=0.1, m2=0.05, m3=0.02)
        labels = np.zeros(3, dtype=int)
        theta = np.array([[0.4], [1.3], [2.2]])
        if name == "softmax":
            outs = [(o, o.grad) for o in
                    (softmax_loss(x, labels, cfg) for x in (theta, -8.0 * theta))]
        else:
            fn = ANGULAR_LOSSES[name]
            by_angle = fn(AngularBatch(theta, labels), cfg, rng=np.random.default_rng(1))
            by_cos = fn(AngularBatch(None, labels, cos=np.cos(theta)), cfg,
                        rng=np.random.default_rng(1))
            outs = [(by_angle, by_angle.grad), (by_cos, by_cos.grad)]
        for out, grad in outs:
            assert out.value == 0.0
            np.testing.assert_array_equal(out.per_sample, np.zeros(3))
            np.testing.assert_array_equal(grad, np.zeros((3, 1)))

    def test_lmcot_singularity_propagates(self):
        # true angle + m lands on the pole at pi
        theta = np.array([[np.pi - 0.05, 1.0], [0.5, 1.0]])
        with pytest.raises(Exception, match="cot undefined"):
            lmcot_loss(AngularBatch(theta, np.array([0, 0])), _cfg(m=0.05))


class TestSpecializationLattice:
    """Combined and elastic forms must hit their parents bit-for-bit."""

    def setup_method(self):
        self.b = _random_batch(np.random.default_rng(9), n_samples=6, n_classes=4)

    def test_combined_cos_corners(self):
        m = 0.17
        cases = [
            (_cfg(m1=1.0, m2=0.0, m3=0.0), norm_softmax_loss, _cfg()),
            (_cfg(m1=1.0, m2=m, m3=0.0), arcface_loss, _cfg(m=m)),
            (_cfg(m1=1.0, m2=0.0, m3=m), cosface_loss, _cfg(m=m)),
            (_cfg(m1=1.1, m2=0.0, m3=0.0), sphereface_loss, _cfg(m=1.1)),
        ]
        for combined_cfg, parent, parent_cfg in cases:
            _outputs_equal(combined_margin_cos_loss(self.b, combined_cfg),
                           parent(self.b, parent_cfg))

    def test_combined_cot_corner_is_lmcot(self):
        m = 0.05
        _outputs_equal(combined_margin_cot_loss(self.b, _cfg(m1=1.0, m2=m, m3=0.0)),
                       lmcot_loss(self.b, _cfg(m=m)))

    def test_combined_cot_reference_value(self):
        out = combined_margin_cot_loss(reference_batch(), _cfg(m1=1.0, m2=0.05, m3=0.0))
        assert out.value == pytest.approx(2.0765, abs=1e-3)

    def test_elastic_arc_zero_sigma_is_arcface(self):
        cfg = _cfg(m=0.23, sigma2=0.0)
        _outputs_equal(elasticface_arc_loss(self.b, cfg, rng=np.random.default_rng(0)),
                       arcface_loss(self.b, cfg))

    def test_elastic_cos_zero_sigma_is_cosface(self):
        cfg = _cfg(m=0.23, sigma3=0.0)
        _outputs_equal(elasticface_cos_loss(self.b, cfg, rng=np.random.default_rng(0)),
                       cosface_loss(self.b, cfg))

    def test_elastic_cot_zero_sigma_is_lmcot(self):
        cfg = _cfg(m=0.05, sigma2=0.0)
        _outputs_equal(elastic_cot_loss(self.b, cfg, rng=np.random.default_rng(0)),
                       lmcot_loss(self.b, cfg))

    def test_generalized_zero_sigma_is_combined_cot(self):
        cfg = _cfg(m1=1.05, m2=0.07, m3=0.11)
        _outputs_equal(generalized_lmcot_loss(self.b, cfg, rng=np.random.default_rng(0)),
                       combined_margin_cot_loss(self.b, cfg))

    def test_generalized_corner_is_lmcot(self):
        cfg = _cfg(m1=1.0, m2=0.05, m3=0.0)
        _outputs_equal(generalized_lmcot_loss(self.b, cfg, rng=np.random.default_rng(0)),
                       lmcot_loss(self.b, _cfg(m=0.05)))

    def test_dual_cot_only_is_generalized(self):
        cfg = _cfg(m1=1.02, m2=0.04, m3=0.06, alpha=1.0, beta=0.0)
        _outputs_equal(dual_cot_cos_loss(self.b, cfg, rng=np.random.default_rng(0)),
                       generalized_lmcot_loss(self.b, cfg, rng=np.random.default_rng(0)))

    def test_dual_equal_weights_average_branches(self):
        cfg = _cfg(m1=1.0, m2=0.05, m3=0.0, alpha=0.5, beta=0.5)
        out = dual_cot_cos_loss(self.b, cfg, rng=np.random.default_rng(0))
        cot = generalized_lmcot_loss(self.b, cfg, rng=np.random.default_rng(0))
        # the cos branch shares the cot competitor term, so it is not the
        # plain combined-cos loss; reconstruct it from the dual identity
        assert out.value == pytest.approx(
            0.5 * cot.value + 0.5 * (2.0 * out.value - cot.value), rel=1e-12)
        cfg_a1 = _cfg(m1=1.0, m2=0.05, m3=0.0, alpha=1.0, beta=1.0)
        both = dual_cot_cos_loss(self.b, cfg_a1, rng=np.random.default_rng(0))
        assert out.value == pytest.approx(0.5 * both.value, rel=1e-12)


class TestElasticBehavior:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-1.0, 0.5)])
    def test_dual_weights_must_sum_above_zero(self, alpha, beta):
        b = _random_batch(np.random.default_rng(10))
        with pytest.raises(ValueError, match=r"^alpha \+ beta must be positive$"):
            dual_cot_cos_loss(b, _cfg(alpha=alpha, beta=beta), rng=np.random.default_rng(0))

    def test_rng_required(self):
        b = _random_batch(np.random.default_rng(10))
        for name in sorted(ELASTIC_LOSSES):
            with pytest.raises(ValueError, match="rng"):
                ANGULAR_LOSSES[name](b, _cfg(m=0.1))

    def test_seed_reproducibility(self):
        b = _random_batch(np.random.default_rng(12))
        cfg = _cfg(m=0.1, m2=0.05, sigma1=0.02, sigma2=0.03, sigma3=0.03)
        for name in sorted(ELASTIC_LOSSES):
            a = ANGULAR_LOSSES[name](b, cfg, rng=np.random.default_rng(42))
            c = ANGULAR_LOSSES[name](b, cfg, rng=np.random.default_rng(42))
            _outputs_equal(a, c)

    @pytest.mark.parametrize("fn,sigma_field", [
        (elasticface_arc_loss, "sigma2"),
        (elasticface_cos_loss, "sigma3"),
    ], ids=["elasticface_arc_loss-sigma2", "elasticface_cos_loss-sigma3"])
    def test_mean_matches_quadrature(self, fn, sigma_field):
        """Monte Carlo mean over seeds within 3 SE of the quadrature value."""
        theta = np.array([[0.4, 1.3, 1.9], [1.1, 0.7, 2.2]])
        labels = np.array([0, 1])
        sigma = 0.05
        cfg = LossConfig(s=2.0, m=0.2, **{sigma_field: sigma})

        is_arc = fn is elasticface_arc_loss

        def per_margin(i):
            def value(m):
                if is_arc:
                    f = lambda t: np.cos(t + m)
                else:
                    f = lambda t: np.cos(t) - m
                _, per = oracles.ce_value(theta[i : i + 1], labels[i : i + 1],
                                          f, np.cos, s=cfg.s)
                return per[0]
            return value

        expected = np.mean([
            oracles.gauss_hermite_mean(per_margin(i), cfg.m, sigma)
            for i in range(len(labels))
        ])
        batch = AngularBatch(theta, labels)
        draws = np.array([
            fn(batch, cfg, rng=np.random.default_rng(seed)).value
            for seed in range(10_000)
        ])
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 3.0 * se


class TestInvariantProperties:
    def test_margin_monotonicity(self):
        b = _random_batch(np.random.default_rng(13), n_samples=8, n_classes=5)
        for fn in (arcface_loss, cosface_loss, lmcot_loss):
            values = [fn(b, _cfg(m=m)).value for m in np.linspace(0.0, 0.5, 11)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), fn

    def test_log_base_conversion(self):
        rng = np.random.default_rng(14)
        b = _random_batch(rng)
        for name, fn in ANGULAR_LOSSES.items():
            kwargs = dict(m=0.1, m2=0.05, sigma1=0.01, sigma2=0.02, sigma3=0.02)
            nat = fn(b, LossConfig(s=2.0, log_base="natural", **kwargs),
                     rng=np.random.default_rng(3))
            ten = fn(b, LossConfig(s=2.0, log_base="ten", **kwargs),
                     rng=np.random.default_rng(3))
            assert nat.value == pytest.approx(np.log(10.0) * ten.value, rel=1e-12), name

    def test_gradients_finite(self):
        rng = np.random.default_rng(15)
        for name, fn in ANGULAR_LOSSES.items():
            out = fn(_random_batch(rng), _cfg(m=0.1), rng=np.random.default_rng(4))
            assert np.isfinite(out.grad).all(), name
            assert out.grad.shape == (4, 5)


class TestLmcotVersusArcface:
    """Loss concentration: tiny on solved samples, amplified on bad misses."""

    def test_well_classified_sample(self):
        lm = lmcot_loss(reference_batch(), _cfg(m=0.05)).per_sample / 2.0
        arc = arcface_loss(reference_batch(), _cfg(m=0.05)).per_sample / 2.0
        assert lm[0] < 1e-5
        assert arc[0] > 0.03

    def test_misclassified_sample(self):
        lm = lmcot_loss(reference_batch(), _cfg(m=0.05)).per_sample
        arc = arcface_loss(reference_batch(), _cfg(m=0.05)).per_sample
        assert lm[1] > 5.0 * arc[1]


class TestDoubleLoss:
    def test_perfect_separation(self):
        assert double_loss(ScoredPairs(genuine=[1.0], impostor=[0.0])).value == 0.0

    def test_no_separation(self):
        assert double_loss(ScoredPairs(genuine=[0.5], impostor=[0.5])).value == 1.0

    def test_hand_arithmetic(self):
        out = double_loss(ScoredPairs(genuine=[0.7, 0.9], impostor=[0.2, 0.4]))
        assert out.value == pytest.approx(0.5, rel=1e-15)

    def test_value_range_for_sigmoid_scores(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            pairs = ScoredPairs(impostor=rng.uniform(0, 1, rng.integers(1, 6)),
                                genuine=rng.uniform(0, 1, rng.integers(1, 6)))
            assert 0.0 <= double_loss(pairs).value <= 2.0

    def test_gradients(self):
        out = double_loss(ScoredPairs(genuine=[0.7, 0.9, 0.8], impostor=[0.2, 0.4]))
        np.testing.assert_array_equal(out.grad, [0.5, 0.5, -1 / 3, -1 / 3, -1 / 3])
        assert out.per_sample.shape == (1,)

    def test_exchangeable_branches_give_one(self):
        scores = [0.1, 0.6, 0.9]
        assert double_loss(ScoredPairs(genuine=scores, impostor=scores)).value == \
            pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("impostor,genuine,message", [
        ([], [0.5], "both score sets must be non-empty"),
        ([0.5], [], "both score sets must be non-empty"),
        ([1.2], [0.5], r"scores must lie in \[0, 1\]"),
        ([0.5], [0.9, -0.1], r"scores must lie in \[0, 1\]"),
    ])
    def test_invalid_pairs_rejected(self, impostor, genuine, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            double_loss(ScoredPairs(genuine=genuine, impostor=impostor))

    @pytest.mark.parametrize("impostor,genuine,name", [
        ([np.nan], [0.5], "impostor"), ([0.5], [np.inf], "genuine")])
    def test_non_finite_scores_rejected(self, impostor, genuine, name):
        # NaN fails both range comparisons, so only ScoredPairs' finiteness check stops it
        with pytest.raises(ValueError, match=f"^{name} scores contain non-finite values$"):
            double_loss(ScoredPairs(genuine=genuine, impostor=impostor))


class TestMarginSigmoidCE:
    def test_zero_margin_is_plain_bce(self):
        scores = np.array([-1.0, 0.3, 2.0])
        labels = np.array([0, 1, 1])
        out = margin_sigmoid_ce(scores, labels, m=0.0)
        p = 1.0 / (1.0 + np.exp(-scores))
        expected = -(labels * np.log(p) + (1 - labels) * np.log(1 - p))
        np.testing.assert_allclose(out.per_sample, expected, rtol=1e-12)

    @pytest.mark.parametrize("score,m", [(0.0, 2.0), (20.0, 0.0), (40.0, 0.0)])
    def test_closed_form_positive_label(self, score, m):
        """log1p(e^-z) at z = score + m/2, to the last digits where it is near 0."""
        out = margin_sigmoid_ce([score], [1], m=m)
        assert out.value == pytest.approx(np.log1p(np.exp(-(score + m / 2))), rel=1e-12, abs=0.0)

    def test_sign_symmetry(self):
        a = margin_sigmoid_ce([0.0], [1], m=2.0).value
        b = margin_sigmoid_ce([0.0], [0], m=2.0).value
        assert a == pytest.approx(b, rel=1e-15)
        assert a == pytest.approx(0.3133, abs=1e-4)

    def test_margin_eases_true_class(self):
        # positive m moves the labeled side away from the boundary, so the
        # loss on a correct raw score strictly drops
        base = margin_sigmoid_ce([1.0], [1], m=0.0).value
        eased = margin_sigmoid_ce([1.0], [1], m=0.5).value
        assert eased < base

    def test_extreme_scores_stable(self):
        out = margin_sigmoid_ce([1000.0, -1000.0], [1, 0], m=0.0)
        assert np.isfinite(out.value) and out.value < 1e-12

    def test_grad_matches_sigmoid_residual(self):
        scores = np.array([0.5, -0.2])
        labels = np.array([1, 0])
        out = margin_sigmoid_ce(scores, labels, m=0.3)
        z = scores + (labels - 0.5) * 0.3
        expected = (1.0 / (1.0 + np.exp(-z)) - labels) / 2.0
        np.testing.assert_allclose(out.grad, expected, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            margin_sigmoid_ce([0.1, 0.2], [1], m=0.0)
        with pytest.raises(ValueError):
            margin_sigmoid_ce([0.1], [2], m=0.0)

    @pytest.mark.parametrize("scores,labels,m,message", [
        ([[0.5]], [[1]], 0.0, "scores must be 1-D and finite"),
        ([0.5, np.nan], [1, 0], 0.0, "scores must be 1-D and finite"),
        ([0.5, -np.inf], [1, 0], 0.0, "scores must be 1-D and finite"),
        ([0.5], [1], np.nan, "m must be finite"),
        ([0.5], [1], np.inf, "m must be finite"),
        ([1.7e308], [1], 1e308, "margin-shifted scores must be finite"),
        ([0.5, -1.7e308], [1, 0], 1e308, "margin-shifted scores must be finite"),
    ])
    def test_misshapen_or_non_finite_input_rejected(self, scores, labels, m, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^{message}$"):
                margin_sigmoid_ce(scores, labels, m=m)
        assert not caught


class TestRegistry:
    def test_twelve_angular_losses(self):
        assert len(ANGULAR_LOSSES) == 12
        assert ELASTIC_LOSSES < set(ANGULAR_LOSSES)

    def test_presets_are_reached_only_through_the_registry(self):
        """Each entry is the one margin core bound to its preset, in PRESETS
        order, and no public module name holds a second per-preset function."""
        assert list(ANGULAR_LOSSES) == list(losses.PRESETS)
        for name, fn in ANGULAR_LOSSES.items():
            assert (fn.func, fn.args, fn.keywords) == (losses._margin_loss, (name,), {})
        for module in (cotface, losses):
            public = {n: v for n, v in vars(module).items() if not n.startswith("_")}
            assert sorted(n for n in public if n.endswith("_loss")) == ["double_loss",
                                                                        "softmax_loss"]
            assert not any(v in ANGULAR_LOSSES.values() for v in public.values() if callable(v))

    def test_common_signature(self):
        b = _random_batch(np.random.default_rng(17))
        rng = np.random.default_rng(5)
        for name, fn in ANGULAR_LOSSES.items():
            out = fn(b, _cfg(m=0.1), rng=rng)
            assert isinstance(out, LossOutput), name
            assert out.per_sample.shape == (b.n_samples,)


def _cot(t):
    return 1.0 / np.tan(t)


def _cot_of_cos(c):
    """cos/sqrt(1 - cos^2) in 50-digit decimal arithmetic, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        c = decimal.Decimal(float(c))
        return float(c / (1 - c * c).sqrt())


# name -> ([(weight field or None, labeled-class logit f(angle, cfg))],
# competitor logit g(cosine)), the closed forms with every sigma 0, so that each
# elastic draw equals its mean
_CLOSED_FORMS = {
    "norm-softmax": ([(None, lambda t, c: np.cos(t))], float),
    "sphereface": ([(None, lambda t, c: np.cos(c.m * t))], float),
    "cosface": ([(None, lambda t, c: np.cos(t) - c.m)], float),
    "arcface": ([(None, lambda t, c: np.cos(t + c.m))], float),
    "elastic-arc": ([(None, lambda t, c: np.cos(t + c.m))], float),
    "elastic-cos": ([(None, lambda t, c: np.cos(t) - c.m)], float),
    "lmcot": ([(None, lambda t, c: _cot(t + c.m))], _cot_of_cos),
    "combined-cos": ([(None, lambda t, c: np.cos(c.m1 * t + c.m2) - c.m3)], float),
    "combined-cot": ([(None, lambda t, c: _cot(c.m1 * t + c.m2) - c.m3)], _cot_of_cos),
    "elastic-cot": ([(None, lambda t, c: _cot(t + c.m))], _cot_of_cos),
    "generalized-lmcot": ([(None, lambda t, c: _cot(c.m1 * t + c.m2) - c.m3)], _cot_of_cos),
    "dual": ([("alpha", lambda t, c: _cot(c.m1 * t + c.m2) - c.m3),
              ("beta", lambda t, c: np.cos(c.m1 * t + c.m2) - c.m3)], _cot_of_cos),
}

_EDGE = 1.0 - 1e-7  # the trainer's cosine clamp
_COSINES = st.one_of(
    st.sampled_from([_EDGE, -_EDGE, 0.0]),
    st.floats(-_EDGE, _EDGE),
    st.floats(1e-6, 0.5).map(lambda d: float(np.cos(np.pi - d))),  # angles near pi
)


@st.composite
def _cosine_batches(draw):
    n, c = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    cos = np.array(draw(st.lists(_COSINES, min_size=n * c, max_size=n * c))).reshape(n, c)
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):  # a labeled logit far above every competitor's
        cos[0, labels[0]] = 1.0 - draw(st.floats(1e-12, 1e-6))
    cfg = LossConfig(
        s=draw(st.floats(0.05, 8.0) | st.floats(8.0, 64.0)), m=draw(st.floats(0.0, 0.5)),
        m1=draw(st.floats(0.9, 1.1)), m2=draw(st.floats(0.0, 0.3)), m3=draw(st.floats(0.0, 0.3)),
        alpha=draw(st.floats(0.2, 1.0)), beta=draw(st.floats(0.2, 1.0)),
        log_base=draw(st.sampled_from(["natural", "ten"])))
    return cos, labels, cfg


def _oracle_value(name, cos, labels, cfg):
    """The closed form's per-sample losses by oracles.ce_value over the cosines,
    one sample at a time, and a bound on each one's error: the labeled class's
    logit is taken at arccos of its cosine, and each sample's logits are shifted
    by their largest so no exp overflows.  The bound is 1e-9 of the loss plus its
    sensitivity to rounding its logits: d = 4 ulps of the largest scaled logit
    moves a natural-log loss l by at most 2*d*(1 - e^{-l}), the sum of
    |dl/dlogit|.  None where the labeled logit lies so far below the largest
    that its exp underflows."""
    branches, g = _CLOSED_FORMS[name]
    per_sample, bound = np.zeros(len(labels)), np.zeros(len(labels))
    for weight, f in branches:
        w = 1.0 if weight is None else getattr(cfg, weight)
        for i, y in enumerate(labels):
            f_y = f(np.arccos(cos[i, y]), cfg)
            logits = [f_y] + [g(c) for j, c in enumerate(cos[i]) if j != y]
            shift = max(logits)
            if cfg.s * (shift - f_y) > 700.0:
                return None
            _, per = oracles.ce_value(
                cos[i : i + 1], labels[i : i + 1], lambda c: f(np.arccos(c), cfg) - shift,
                lambda c: g(c) - shift, s=cfg.s, ln_b=cfg.log_divisor)
            d = 4.0 * np.spacing(cfg.s * max(map(abs, logits)))
            per_sample[i] += w * per[0]
            bound[i] += w * (1e-9 * per[0] - 2.0 * d * np.expm1(-per[0] * cfg.log_divisor)
                             / cfg.log_divisor)
    return per_sample, bound


class TestCosineBatch:
    """A batch of cosines, as the trainer passes it, against the closed forms
    and against the same batch given as angles."""

    @settings(max_examples=300, deadline=None)
    @given(_cosine_batches())
    # a near-certain combined-cot sample, whose small loss a log of a sum that
    # holds 1 rounds away, and an lmcot logit near -3.8e7, one ulp of whose
    # cotangent moves the loss by about 1e-9
    @example((np.array([[-0.9999999, -0.9999999]]), np.array([0]),
              LossConfig(s=8.0, m=0.0, m1=0.9999998999999999, m2=0.0, m3=0.0,
                         alpha=0.2, beta=0.2)))
    @example((np.array([[-0.9999999999995, -0.9999999999995]]), np.array([0]),
              LossConfig(s=37.91985650732589, m=3.629312304633602e-284,
                         m1=1.0870082340542682, m2=0.13853642919721237,
                         m3=0.21857762683494147, alpha=0.3333333333333333,
                         beta=0.6225430453941163)))
    def test_every_loss_matches_the_oracle(self, case):
        """Scales up to 64, dual with both weights nonzero, and labeled cosines
        within 1e-6 of 1, where the competitors' shared term vanishes beside
        the labeled logit: each sample's loss matches the oracle within the
        oracle's bound, and the loss and its gradient stay finite."""
        cos, labels, cfg = case
        batch = AngularBatch(None, labels, cos=cos)
        for name in ANGULAR_LOSSES:
            try:
                out = ANGULAR_LOSSES[name](batch, cfg, rng=np.random.default_rng(0))
            except SingularityError:
                # only a labeled angle that the margins carry onto a pole of cot
                f = _CLOSED_FORMS[name][0][0][1]
                assert max(abs(f(np.arccos(cos[i, y]), cfg))
                           for i, y in enumerate(labels)) > 1e6, name
                continue
            assert out.grad.shape == cos.shape, name
            assert np.isfinite(out.grad).all() and np.isfinite(out.per_sample).all(), name
            want = _oracle_value(name, cos, labels, cfg)
            event(f"compared with the oracle: {want is not None}")
            if want is not None:
                per_sample, bound = want
                assert (np.abs(out.per_sample - per_sample) <= bound).all(), (
                    name, out.per_sample, per_sample, bound)

    def test_angles_and_their_cosines_agree(self):
        rng = np.random.default_rng(41)
        cfg = _cfg(m=0.1, m2=0.05, m3=0.03, sigma1=0.01, sigma2=0.02, sigma3=0.02)
        for _ in range(20):
            by_angle = _random_batch(rng)
            by_cos = AngularBatch(None, by_angle.labels, cos=np.cos(by_angle.theta))
            for name, fn in ANGULAR_LOSSES.items():
                a = fn(by_angle, cfg, rng=np.random.default_rng(6))
                c = fn(by_cos, cfg, rng=np.random.default_rng(6))
                assert c.value == pytest.approx(a.value, rel=1e-12), name
                np.testing.assert_allclose(c.per_sample, a.per_sample, rtol=1e-12)
                # chain rule: d/dtheta = d/dcos * -sin(theta), on and off the label
                np.testing.assert_allclose(c.grad * -np.sin(by_angle.theta),
                                           a.grad, rtol=1e-9, atol=1e-15)

    def test_angle_grad_finite_at_a_zero_labeled_angle(self):
        theta = np.array([[0.0, 1.2, 2.0], [0.7, 0.0, 1.5]])
        batch = AngularBatch(theta, np.array([0, 1]))
        for name, fn in ANGULAR_LOSSES.items():
            out = fn(batch, _cfg(m=0.1, m2=0.1), rng=np.random.default_rng(7))
            assert np.isfinite(out.value) and np.isfinite(out.grad).all(), name

    def test_competitor_cosines_at_plus_minus_one_stay_finite(self):
        cos = np.array([[0.3, 1.0, -1.0], [-1.0, -0.2, 1.0]])
        batch = AngularBatch(None, np.array([0, 1]), cos=cos)
        for name, fn in ANGULAR_LOSSES.items():
            out = fn(batch, _cfg(m=0.1, m2=0.1), rng=np.random.default_rng(8))
            assert np.isfinite(out.value) and np.isfinite(out.grad).all(), name

    @pytest.mark.parametrize("cos,labels", [
        ([[0.3, np.nan]], [0]),       # non-finite
        ([[np.inf, 0.2]], [1]),       # non-finite
        ([[0.3, 1.0 + 1e-12]], [0]),  # |cos| > 1
        ([[-1.5, 0.2]], [1]),         # |cos| > 1
        ([[1.0, 0.2]], [0]),          # labeled angle 0: d(angle)/d(cos) is infinite
        ([[0.3, -1.0]], [1]),         # labeled angle pi: likewise
    ])
    def test_bad_cosines_are_rejected(self, cos, labels):
        for fn in ANGULAR_LOSSES.values():
            with pytest.raises(ValueError):
                fn(AngularBatch(None, labels, cos=cos), _cfg(m=0.1), rng=np.random.default_rng(9))

    def test_exactly_one_of_theta_and_cos(self):
        with pytest.raises(ValueError):
            AngularBatch([[0.1, 1.0]], [0], cos=[[0.9, 0.5]])
        with pytest.raises(ValueError):
            AngularBatch(None, [0])
