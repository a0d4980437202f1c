"""Normalization, angle extraction and the cotangent kernels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cotface.angular import (
    AngularBatch,
    ConfigError,
    LossConfig,
    NormOverflowError,
    SingularityError,
    ZeroVectorError,
    _unit_rows,
    angles_from_features,
    cot_from_cos,
    cot_via_identity,
    cot_via_theta,
    elastic_sample,
    l2_normalize,
)
from cotface.pipeline.gallery import UNIT_NORM_TOLERANCE


class TestLossConfig:
    def test_defaults_valid(self):
        cfg = LossConfig()
        assert cfg.s == 64.0 and cfg.log_base == "natural"

    def test_log_divisor(self):
        assert LossConfig().log_divisor == 1.0
        assert LossConfig(log_base="ten").log_divisor == pytest.approx(np.log(10.0))

    @pytest.mark.parametrize("kwargs", [
        {"s": -1.0},
        {"sigma1": -0.1}, {"sigma2": -0.1}, {"sigma3": -0.1},
        {"log_base": "two"},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            LossConfig(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["s", "m", "m1", "m2", "m3", "sigma1", "sigma2", "sigma3",
                                      "alpha", "beta"])
    def test_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            LossConfig(**{name: value})


class TestAngularBatch:
    def test_accepts_valid(self):
        b = AngularBatch(theta=[[0.1, 1.5], [0.2, 1.4]], labels=[0, 1])
        assert b.n_samples == 2 and b.n_classes == 2

    @pytest.mark.parametrize("theta,labels", [
        ([[0.1, -0.1]], [0]),          # negative angle
        ([[0.1, np.pi]], [0]),         # pi excluded
        ([[0.1, 1.0]], [2]),           # label out of range
        ([[0.1, np.nan]], [0]),        # non-finite
        ([0.1, 1.0], [0]),             # wrong rank
    ])
    def test_rejects_invalid(self, theta, labels):
        with pytest.raises(ValueError):
            AngularBatch(theta=theta, labels=labels)

    _COS_RANGE = r"cosines must lie in \[-1, 1\], the labeled ones in \(-1, 1\)"

    @pytest.mark.parametrize("field,values,labels,message", [
        ("cos", [[0.3, np.nan]], [0], "cos contains non-finite values"),
        ("cos", [[np.inf, 0.2]], [1], "cos contains non-finite values"),
        ("cos", [[0.3, -np.inf]], [0], "cos contains non-finite values"),
        ("cos", [[0.3, 1.5]], [0], _COS_RANGE),
        ("cos", [[-1.5, 0.2]], [1], _COS_RANGE),
        ("cos", [[1.0, 0.2]], [0], _COS_RANGE),   # labeled cosine 1
        ("cos", [[0.3, -1.0]], [1], _COS_RANGE),  # labeled cosine -1
        ("cos", [[0.3, 1.5]], [2], "labels out of range"),  # labels are judged before range
        ("theta", [[0.1, np.nan]], [0], "theta contains non-finite values"),
        ("theta", [[0.1, -0.1]], [0], r"angles must lie in \[0, pi\)"),
        ("theta", [[0.1, np.pi]], [0], r"angles must lie in \[0, pi\)"),
        ("theta", [[np.nan, -0.1]], [5], "theta contains non-finite values"),
        ("theta", [[0.1, 1.0]], [0, 1], r"labels must have shape \(N,\)"),
        ("cos", [[0.3, 0.2]], [[0]], r"labels must have shape \(N,\)"),
    ])
    def test_error_messages(self, field, values, labels, message):
        args = (values, labels) if field == "theta" else (None, labels, values)
        with pytest.raises(ValueError, match=f"^{message}$"):
            AngularBatch(*args)

    def test_accepts_competitor_cosines_at_plus_minus_one_and_no_rows(self):
        assert AngularBatch(None, [0], cos=[[0.5, 1.0, -1.0]]).n_classes == 3
        assert AngularBatch(None, np.zeros(0, dtype=int), cos=np.zeros((0, 3))).n_samples == 0
        assert AngularBatch(np.zeros((0, 3)), np.zeros(0, dtype=int)).n_samples == 0

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError):
            AngularBatch(theta=[[0.1, 1.0]], labels=[0.0])


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)

    def test_already_unit(self):
        np.testing.assert_array_equal(l2_normalize([0.0, 1.0]), [0.0, 1.0])

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(size=rng.integers(1, 8)) * 10.0 ** rng.integers(-3, 4)
            assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) <= 1e-12

    def test_direction_preserved(self):
        v = np.array([2.0, -1.0, 0.5])
        u = l2_normalize(v)
        np.testing.assert_allclose(np.cross(u, v / np.linalg.norm(v)), 0.0, atol=1e-15)
        assert np.dot(u, v) > 0.0

    def test_reference_feature_cosine(self):
        # unit feature keeping cosine 0.995 against the vertical class center
        u = l2_normalize([0.1, 0.995])
        assert np.dot(u, [0.0, 1.0]) == pytest.approx(0.995, abs=5e-4)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize([0.0, 0.0])
        with pytest.raises(ZeroVectorError):
            _unit_rows([[1.0, 0.0], [1e-12, 0.0]])

    @pytest.mark.parametrize("v", [[1.5e308, 1.5e308], [1e308, -1.5e308], [-1.7e308, 1e308]])
    def test_finite_vector_whose_norm_overflows_raises(self, v):
        """Norms above the largest float (1.797e308): dividing by inf would give zeros."""
        with pytest.raises(NormOverflowError, match="norm overflows"):
            l2_normalize(v)
        with pytest.raises(NormOverflowError, match="norm overflows"):
            _unit_rows([[1.0, 0.0], v])

    @pytest.mark.parametrize("v,unit", [
        ([3e200, 4e200], [0.6, 0.8]),
        ([-4e200, 0.0, 3e200], [-0.8, 0.0, 0.6]),
        ([1e308, 1e308], [1.0 / np.sqrt(2.0)] * 2),  # its norm 1.414e308 is a float
    ])
    def test_finite_vector_whose_squares_overflow_is_normalized(self, v, unit):
        """The squares of 3e200 overflow, its norm 5e200 does not: v is divided by its
        largest |entry| first, with no warning, and the norm kept for the backward pass."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(l2_normalize(v), unit)
            rows, norms = _unit_rows([[2.0] + [0.0] * (len(v) - 1), v])
        np.testing.assert_array_equal(rows, [[1.0] + [0.0] * (len(v) - 1), unit])
        assert norms[0, 0] == 2.0 and norms[1, 0] == pytest.approx(np.hypot.reduce(v), rel=1e-15)

    def test_unscaled_norms_keep_their_bits(self):
        """Below the overflow every row is m / np.linalg.norm(m), as before the scaled path."""
        scale = 10.0 ** np.linspace(-6, 150, 50)[:, None]
        m = np.random.default_rng(3).normal(size=(50, 17)) * scale
        for row in m:
            np.testing.assert_array_equal(l2_normalize(row), row / np.linalg.norm(row))
        want = m / np.linalg.norm(m, axis=1, keepdims=True)
        np.testing.assert_array_equal(_unit_rows(m)[0], want)

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 1.0]])
    def test_non_finite_vector_passes_through(self, v):
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(l2_normalize(v)).all()
            assert not np.isfinite(_unit_rows([v])[0]).all()

    @settings(max_examples=200, deadline=None)
    @given(m=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                    elements=st.floats(-10.0, 10.0)),
           k=st.integers(-6, 300))
    def test_unit_or_refused_at_every_scale(self, m, k):
        """Finite vectors and matrices scaled by 10**k are refused or made unit
        rows, never zero rows."""
        m = m * 10.0 ** k
        for unit_rows in (lambda: l2_normalize(m[0])[None], lambda: _unit_rows(m)[0]):
            try:
                with np.errstate(over="ignore"):
                    rows = unit_rows()
            except (ZeroVectorError, NormOverflowError):
                continue
            assert (np.abs(np.sqrt((rows * rows).sum(axis=1)) - 1.0) <= UNIT_NORM_TOLERANCE).all()


class TestAnglesFromFeatures:
    W = np.array([[0.0, 1.0], [1.0, 0.0]])

    def test_reference_first_sample(self):
        theta = angles_from_features([[0.1, 0.995]], self.W)
        np.testing.assert_allclose(theta[0], [0.1, 1.47], atol=5e-3)

    def test_reference_second_sample(self):
        theta = angles_from_features([[0.2, 0.9798]], self.W)
        np.testing.assert_allclose(theta[0], [0.2, 1.37], atol=5e-3)

    def test_self_angle_near_zero(self):
        theta = angles_from_features(self.W, self.W)
        assert theta[0, 0] == pytest.approx(np.arccos(1.0 - 1e-7))
        assert theta[0, 0] < 1e-3

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(3, 4))
        base = angles_from_features(x, w)
        for c in (1e-3, 0.5, 7.0, 1e4):
            np.testing.assert_allclose(angles_from_features(c * x, w), base,
                                       rtol=0, atol=1e-12)

    def test_angles_interior(self):
        rng = np.random.default_rng(2)
        theta = angles_from_features(rng.normal(size=(20, 6)), rng.normal(size=(4, 6)))
        assert (theta > 0.0).all() and (theta < np.pi).all()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            angles_from_features([[np.inf, 1.0]], self.W)

    def test_features_whose_norm_overflows_rejected(self):
        with pytest.raises(ValueError, match="norm overflows"):
            angles_from_features([[1.5e308, 1.5e308]], [[1.0, 0.0]])

    def test_features_whose_squares_overflow_are_scaled(self):
        np.testing.assert_array_equal(angles_from_features([[1e200, 1e200]], self.W),
                                      angles_from_features([[1.0, 1.0]], self.W))


class TestCotViaTheta:
    def test_quarter_pi(self):
        cot, cot_m = cot_via_theta(np.pi / 4.0, m=0.0)
        assert cot == pytest.approx(1.0) and cot_m == pytest.approx(1.0)

    def test_small_angle(self):
        cot, _ = cot_via_theta(0.15)
        assert cot == pytest.approx(np.cos(0.15) / np.sin(0.15), rel=1e-12)
        assert cot == pytest.approx(6.617, abs=5e-4)

    def test_near_right_angle(self):
        cot, _ = cot_via_theta(1.42)
        assert cot == pytest.approx(np.cos(1.42) / np.sin(1.42), rel=1e-12)
        assert cot == pytest.approx(0.15195, abs=1e-5)

    def test_margin_shifts_second_output(self):
        _, cot_m = cot_via_theta(0.2, m=0.05)
        assert cot_m == pytest.approx(1.0 / np.tan(0.25), rel=1e-12)

    def test_singularity_raises(self):
        with pytest.raises(SingularityError):
            cot_via_theta(np.pi - 0.05, m=0.05)
        with pytest.raises(SingularityError):
            cot_via_theta(0.0, m=0.0)

    def test_pole_saturation_keeps_sign(self):
        # just above pi/2 the tangent is hugely negative, cot slightly below 0
        cot_lo, _ = cot_via_theta(np.pi / 2.0 + 1e-9)
        cot_hi, _ = cot_via_theta(np.pi / 2.0 - 1e-9)
        assert cot_lo < 0.0 < cot_hi


class TestCotViaIdentity:
    def test_right_angle(self):
        assert cot_via_identity(0.0, m=0.0) == (0.0, 0.0)

    def test_margin_from_cosine(self):
        _, cot_m = cot_via_identity(np.cos(0.2), m=0.05)
        assert cot_m == pytest.approx(1.0 / np.tan(0.25), rel=1e-9)
        assert cot_m == pytest.approx(3.916, abs=5e-4)

    def test_reference_cosine(self):
        # must equal the angle-space kernel evaluated at arccos(0.995) + m
        _, cot_m = cot_via_identity(0.995, m=0.05)
        _, expected = cot_via_theta(np.arccos(0.995), m=0.05)
        assert cot_m == pytest.approx(float(expected), rel=1e-9)
        assert cot_m == pytest.approx(6.61, abs=1e-2)

    def test_out_of_range_cosine_rejected(self):
        with pytest.raises(ValueError):
            cot_via_identity(1.0001)

    def test_singularity_raises(self):
        with pytest.raises(SingularityError):
            cot_via_identity(np.cos(np.pi - 0.05), m=0.05)


class TestCotFromCos:
    def test_slope_matches_central_differences(self):
        cos = np.linspace(-0.999, 0.999, 2_001)
        h = 1e-6
        _, slope, _ = cot_from_cos(cos)
        fd = (cot_from_cos(cos + h)[0] - cot_from_cos(cos - h)[0]) / (2.0 * h)
        np.testing.assert_allclose(slope, fd, rtol=1e-6)

    def test_values_against_the_angle(self):
        theta = np.linspace(0.01, np.pi - 0.01, 1_000)
        cot, slope, sin = cot_from_cos(np.cos(theta))
        np.testing.assert_allclose(cot, 1.0 / np.tan(theta), rtol=1e-12)
        np.testing.assert_allclose(sin, np.sin(theta), rtol=1e-12)
        np.testing.assert_allclose(slope, 1.0 / np.sin(theta) ** 3, rtol=1e-12)

    def test_floor_at_the_poles(self):
        # |cos| = 1: sin floors at eps, cot = cos/eps, and the slope of cos/eps is 1/eps
        cot, slope, sin = cot_from_cos(np.array([1.0, -1.0]))
        np.testing.assert_array_equal(sin, [1e-7, 1e-7])
        np.testing.assert_array_equal(cot, [1e7, -1e7])
        np.testing.assert_array_equal(slope, [1e7, 1e7])


class TestKernelAgreement:
    """The two cotangent evaluation paths must match away from the poles."""

    @pytest.mark.parametrize("m", [0.0, 0.05, 0.5])
    def test_paths_agree_on_grid(self, m):
        theta = np.linspace(0.01, np.pi - 0.06, 10_000)
        ct_a, cm_a = cot_via_theta(theta, m=m)
        ct_b, cm_b = cot_via_identity(np.cos(theta), m=m)
        np.testing.assert_allclose(ct_a, ct_b, atol=1e-6, rtol=0)
        np.testing.assert_allclose(cm_a, cm_b, atol=1e-6, rtol=0)

    def test_strictly_decreasing(self):
        theta = np.linspace(0.01, np.pi - 0.01, 2_000)
        cot, _ = cot_via_theta(theta)
        assert (np.diff(cot) < 0.0).all()

    def test_cot_close_to_cos_midrange(self):
        # around the right angle the two transforms nearly coincide
        theta = np.linspace(np.pi / 4.0, 3.0 * np.pi / 4.0, 1_000)
        cot, _ = cot_via_theta(theta)
        assert np.abs(cot - np.cos(theta)).max() <= 0.30

    def test_cot_amplifies_small_angles(self):
        theta = np.linspace(0.01, 0.2, 500)
        cot, _ = cot_via_theta(theta)
        assert (cot >= 4.0 * np.cos(theta)).all()


class TestElasticSample:
    def test_zero_sigma_returns_mean(self):
        rng = np.random.default_rng(123)
        assert elastic_sample(0.5, 0.0, rng) == 0.5

    def test_deterministic_under_seed(self):
        a = elastic_sample(0.5, 0.05, np.random.default_rng(42), size=10)
        b = elastic_sample(0.5, 0.05, np.random.default_rng(42), size=10)
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        draws = elastic_sample(0.5, 0.1, np.random.default_rng(7), size=100_000)
        assert abs(draws.mean() - 0.5) < 0.002

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            elastic_sample(0.5, -0.1, np.random.default_rng(0))

    def test_stream_advances_even_at_zero_sigma(self):
        # degenerate and non-degenerate configs consume the same stream
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        elastic_sample(0.5, 0.0, rng_a, size=4)
        elastic_sample(0.5, 0.2, rng_b, size=4)
        assert rng_a.standard_normal() == rng_b.standard_normal()
