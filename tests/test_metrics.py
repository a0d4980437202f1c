"""Verification metrics against exhaustive and dense-solver oracles."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cotface.metrics import (
    RankedQuery,
    ScoredPairs,
    auc,
    eer,
    equal_edges,
    far_frr_sweep,
    gap,
    histogram,
    histogram_to_csv,
    map_at_100,
    pca2,
    sweep_to_csv,
)


class TestScoredPairs:
    @pytest.mark.parametrize("genuine,impostor,name", [
        ([np.nan], [0.5], "genuine"), ([0.5], [0.1, -np.inf], "impostor")])
    def test_non_finite_scores_rejected(self, genuine, impostor, name):
        with pytest.raises(ValueError, match=f"^{name} scores contain non-finite values$"):
            ScoredPairs(genuine=genuine, impostor=impostor)

    @pytest.mark.parametrize("genuine,impostor,name", [
        ([[0.9, 0.8], [0.7, 0.2]], [0.1, 0.75], "genuine"), ([0.5], [[0.1], [0.2]], "impostor")])
    def test_score_sets_that_are_not_1d_rejected(self, genuine, impostor, name):
        with pytest.raises(ValueError, match=f"^{name} scores must be 1-D$"):
            ScoredPairs(genuine=genuine, impostor=impostor)

    @pytest.mark.parametrize("metric", [auc, lambda pairs: far_frr_sweep(pairs, [0.5])])
    @pytest.mark.parametrize("genuine,impostor", [([], [0.5]), ([0.5], [])])
    def test_empty_side_rejected(self, metric, genuine, impostor):
        with pytest.raises(ValueError, match="^both score sets must be non-empty$"):
            metric(ScoredPairs(genuine=genuine, impostor=impostor))


class TestFarFrrSweep:
    PAIRS = ScoredPairs(genuine=[0.9, 0.8], impostor=[0.1, 0.2])

    def test_below_all_scores(self):
        row = far_frr_sweep(self.PAIRS, [0.0])[0]
        assert (row[1], row[2]) == (1.0, 0.0)

    def test_above_all_scores(self):
        row = far_frr_sweep(self.PAIRS, [1.1])[0]
        assert (row[1], row[2]) == (0.0, 1.0)

    def test_separating_threshold(self):
        row = far_frr_sweep(self.PAIRS, [0.5])[0]
        assert (row[1], row[2]) == (0.0, 0.0)

    def test_threshold_is_inclusive_for_impostors(self):
        # an impostor exactly at t is accepted; a genuine exactly at t is not rejected
        pairs = ScoredPairs(genuine=[0.5], impostor=[0.5])
        row = far_frr_sweep(pairs, [0.5])[0]
        assert (row[1], row[2]) == (1.0, 0.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        pairs = ScoredPairs(genuine=rng.normal(1.0, 0.5, 50),
                            impostor=rng.normal(0.0, 0.5, 60))
        sweep = far_frr_sweep(pairs, np.linspace(-2, 3, 101))
        assert (np.diff(sweep[:, 1]) <= 0.0).all()   # FAR non-increasing
        assert (np.diff(sweep[:, 2]) >= 0.0).all()   # FRR non-decreasing

    def test_matches_direct_counts(self):
        rng = np.random.default_rng(1)
        pairs = ScoredPairs(genuine=rng.uniform(0, 1, 30), impostor=rng.uniform(0, 1, 40))
        for t in rng.uniform(-0.1, 1.1, 25):
            row = far_frr_sweep(pairs, [t])[0]
            assert row[1] == sum(1 for v in pairs.impostor if v >= t) / 40
            assert row[2] == sum(1 for v in pairs.genuine if v < t) / 30

    @pytest.mark.parametrize("thresholds", [
        [np.nan], np.nan, [0.5, np.nan, 0.9], [[0.5]], np.zeros((2, 3)), np.zeros((1, 0))])
    def test_nan_or_not_1d_thresholds_rejected(self, thresholds):
        """A NaN compares with no score, so its FAR and FRR would mean nothing."""
        with pytest.raises(ValueError, match="^thresholds must be 1-D and not NaN$"):
            far_frr_sweep(self.PAIRS, thresholds)

    def test_infinite_thresholds_are_valid(self):
        sweep = far_frr_sweep(self.PAIRS, [-np.inf, np.inf])
        assert sweep.tolist() == [[-np.inf, 1.0, 0.0], [np.inf, 0.0, 1.0]]


class TestEer:
    def test_disjoint_distributions(self):
        value, _ = eer(ScoredPairs(genuine=[0.8, 0.9], impostor=[0.1, 0.2]))
        assert value == 0.0

    def test_identical_distributions(self):
        value, _ = eer(ScoredPairs(genuine=[0.3, 0.5, 0.7], impostor=[0.3, 0.5, 0.7]))
        assert value == pytest.approx(0.5)

    def test_three_by_three_example(self):
        pairs = ScoredPairs(genuine=[0.6, 0.8, 0.9], impostor=[0.4, 0.55, 0.7])
        value, threshold = eer(pairs)
        expected_value, expected_threshold = oracles.eer_exhaustive(
            pairs.genuine, pairs.impostor)
        assert value == expected_value
        assert threshold == expected_threshold

    def test_matches_exhaustive_oracle_randomized(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            n_g = int(rng.integers(1, 30))
            n_i = int(rng.integers(1, 30))
            # half the trials use discretized scores to force ties
            if trial % 2:
                gen = rng.integers(0, 10, n_g) / 10.0
                imp = rng.integers(0, 10, n_i) / 10.0
            else:
                gen = rng.normal(0.6, 0.3, n_g)
                imp = rng.normal(0.4, 0.3, n_i)
            pairs = ScoredPairs(genuine=gen, impostor=imp)
            value, threshold = eer(pairs)
            expected_value, expected_threshold = oracles.eer_exhaustive(gen, imp)
            assert value == expected_value, trial
            assert threshold == expected_threshold, trial
            assert 0.0 <= value <= 1.0

    _GRID_SCORES = st.integers(0, 6).map(lambda k: k / 4.0)
    _SCORES = st.one_of(_GRID_SCORES, st.floats(-2.0, 3.0, allow_nan=False))

    @given(gen=st.lists(_SCORES, min_size=1, max_size=25),
           imp=st.lists(_SCORES, min_size=1, max_size=25),
           shared=st.lists(_GRID_SCORES, max_size=6))
    @example(gen=[0.25, 0.75], imp=[0.25, 0.75], shared=[])  # FAR == FRR on a grid point
    @example(gen=[0.5], imp=[0.5], shared=[0.25, 0.75])
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_oracle_on_ties(self, gen, imp, shared):
        """Tied and duplicated scores, with scores shared by both sides."""
        value, threshold = eer(ScoredPairs(genuine=gen + shared, impostor=imp + shared))
        assert (value, threshold) == oracles.eer_exhaustive(gen + shared, imp + shared)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        gen = rng.normal(0.7, 0.2, 40)
        imp = rng.normal(0.3, 0.2, 50)
        base, _ = eer(ScoredPairs(genuine=gen, impostor=imp))
        for transform in (lambda x: 3.0 * x + 1.0, np.exp, lambda x: x ** 3):
            value, _ = eer(ScoredPairs(genuine=transform(gen), impostor=transform(imp)))
            assert value == base, transform

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            eer(ScoredPairs(genuine=np.array([]), impostor=[0.5]))

    @pytest.mark.parametrize("top", [2.0**53, 1e16, 1e300, -1e300])
    def test_tie_where_the_float_spacing_exceeds_one(self, top):
        """From 2**53 up top + 1.0 == top, so the high sentinel must still lie
        above every score for the FAR - FRR crossing to be bracketed."""
        value, threshold = eer(ScoredPairs(genuine=[top], impostor=[top]))
        assert value == 0.5
        assert top <= threshold <= np.nextafter(top, np.inf)

    def test_threshold_at_the_largest_float_is_finite(self):
        """Past the largest float the high sentinel is inf: the threshold is capped."""
        top = np.finfo(np.float64).max
        assert eer(ScoredPairs(genuine=[top], impostor=[top])) == (0.5, top)
        assert eer(ScoredPairs(genuine=[1.0, top], impostor=[top])) == (pytest.approx(2 / 3), top)

    _ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)

    @given(gen=st.lists(_ANY_FINITE, min_size=1, max_size=6),
           imp=st.lists(_ANY_FINITE, min_size=1, max_size=6))
    @example(gen=[-1.7976931348623157e308, 1.7976931348623157e308],
             imp=[-1.7976931348623157e308] * 3 + [1.7976931348623157e308])
    @settings(max_examples=300, deadline=None)
    def test_threshold_finite_over_the_whole_float_range(self, gen, imp):
        """Any finite scores give a finite threshold inside the sentinels'
        bracket, and no numpy warning, however wide a bracket is."""
        scores = gen + imp
        with np.errstate(over="ignore"):
            top = min(max(max(scores) + 1.0, np.nextafter(max(scores), np.inf)),
                      np.finfo(np.float64).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, threshold = eer(ScoredPairs(genuine=gen, impostor=imp))
        assert 0.0 <= value <= 1.0
        assert min(scores) - 1.0 <= threshold <= top

    def test_genuine_below_a_large_tie(self):
        value, threshold = eer(ScoredPairs(genuine=[3.0, 1e16], impostor=[1e16]))
        assert (value, threshold) == (pytest.approx(2.0 / 3.0, abs=1e-15), 1e16)


class TestAuc:
    def test_perfect_separation(self):
        assert auc(ScoredPairs(genuine=[0.8, 0.9], impostor=[0.1, 0.2])) == 1.0

    def test_constant_scores(self):
        assert auc(ScoredPairs(genuine=[0.5, 0.5], impostor=[0.5, 0.5])) == 0.5

    def test_three_of_four_wins(self):
        assert auc(ScoredPairs(genuine=[0.9, 0.4], impostor=[0.5, 0.1])) == 0.75

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            n_g = int(rng.integers(1, 40))
            n_i = int(rng.integers(1, 40))
            if trial % 2:
                gen = rng.integers(0, 8, n_g) / 8.0
                imp = rng.integers(0, 8, n_i) / 8.0
            else:
                gen = rng.normal(0.6, 0.4, n_g)
                imp = rng.normal(0.4, 0.4, n_i)
            value = auc(ScoredPairs(genuine=gen, impostor=imp))
            assert value == oracles.auc_pairwise(gen, imp), trial

    # heavy ties, both signed zeros, subnormals and the float extremes
    _TIED = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                             0.5, 1e308, -1e308, 1.7976931348623157e308])
    _AUC_SCORES = st.one_of(_TIED, st.floats(allow_nan=False, allow_infinity=False))

    @given(gen=st.lists(_AUC_SCORES, min_size=1, max_size=30),
           imp=st.lists(_AUC_SCORES, min_size=1, max_size=30),
           rnd=st.randoms(use_true_random=False))
    @example(gen=[0.0, 5e-324], imp=[-0.0, -0.0, 5e-324], rnd=random.Random(0))
    @example(gen=[-1e308, 1e308], imp=[1e308, -1e308, 0.0], rnd=random.Random(1))
    @settings(max_examples=300, deadline=None)
    def test_exact_and_order_free_on_ties_signed_zeros_and_extremes(self, gen, imp, rnd):
        """-0.0 ties 0.0; shuffling either score set returns the same float."""
        value = auc(ScoredPairs(genuine=gen, impostor=imp))
        assert value == oracles.auc_pairwise(gen, imp)
        assert auc(ScoredPairs(genuine=rnd.sample(gen, len(gen)), impostor=imp)) == value
        assert auc(ScoredPairs(genuine=gen, impostor=rnd.sample(imp, len(imp)))) == value


class TestHistogram:
    def test_single_bin_occupied(self):
        counts, _ = histogram([0.5, 0.5, 0.5], bins=4, value_range=(0.0, 1.0))
        assert counts.tolist() == [0, 0, 3, 0]

    def test_empty_input(self):
        counts, _ = histogram([], bins=3, value_range=(0.0, 1.0))
        assert counts.tolist() == [0, 0, 0]

    def test_hand_counted(self):
        counts, edges = histogram([0.1, 0.4, 0.6, 0.9], bins=2, value_range=(0.0, 1.0))
        assert counts.tolist() == [2, 2]
        np.testing.assert_allclose(edges, [0.0, 0.5, 1.0])

    def test_out_of_range_excluded(self):
        counts, _ = histogram([-1.0, 0.5, 2.0], bins=2, value_range=(0.0, 1.0))
        assert counts.sum() == 1

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            histogram([0.5], bins=0, value_range=(0.0, 1.0))
        with pytest.raises(ValueError, match="^empty value range$"):
            histogram([0.5], bins=2, value_range=(1.0, 1.0))

    @pytest.mark.parametrize("value_range", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
    def test_non_finite_range_rejected(self, value_range):
        with pytest.raises(ValueError, match="^value range must be finite$"):
            histogram([1.0], 3, value_range)

    @pytest.mark.parametrize("bins", [2.5, float("nan"), 3.0, float("inf"), "3", 0, -2, True])
    def test_bins_not_a_whole_number_at_least_one_rejected(self, bins):
        with pytest.raises(ValueError, match="^bins must be a whole number >= 1$"):
            histogram([1.0], bins, (0.0, 1.0))
        with pytest.raises(ValueError, match="^bins must be a whole number >= 1$"):
            equal_edges(0.0, 1.0, bins)

    def test_range_too_narrow_for_equal_bins_rejected(self):
        """Two floats one ulp apart have no 20 distinct edges between them."""
        lo, hi = 1.0, 1.0 + 4.4e-16
        with pytest.raises(ValueError, match="^value range too narrow for 20 equal bins$"):
            histogram([lo, hi], 20, (lo, hi))
        counts, edges = histogram([lo, hi], 1, (lo, hi))
        assert counts.tolist() == [2] and edges.tolist() == [lo, hi]

    def test_equal_edges_are_none_where_a_bin_has_no_width(self):
        """The one rule histogram refuses by and cotface eval widens its range by."""
        assert equal_edges(1.0, 1.0 + 4.4e-16, 20) is None
        assert equal_edges(1.0, 1.0 + 4.4e-16, 1).tolist() == [1.0, 1.0 + 4.4e-16]
        assert equal_edges(0.0, 1.0, 4).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert equal_edges(-1.7e308, 1.7e308, 3) is not None
        with pytest.raises(ValueError, match="^empty value range$"):
            equal_edges(1e17, 1e17, 20)


class TestAnyOrderOfTheSets:
    """far_frr_sweep and auc sort a set only when it is not already ascending,
    histogram bins by np.histogram, and eer's grid holds one +0.0 for both
    zeros, so a ScoredPairs and any permutation of its sets, sorted or
    shuffled, give the same bits, eer's threshold included."""

    _SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 5e-324, 1e308, -1e308]),
                        st.floats(allow_nan=False, allow_infinity=False))

    @staticmethod
    def _results(gen, imp, thresholds, bins, value_range):
        pairs = ScoredPairs(genuine=gen, impostor=imp)
        return (far_frr_sweep(pairs, thresholds).tobytes(), np.array(eer(pairs)).tobytes(),
                auc(pairs), *(b"".join(a.tobytes() for a in histogram(s, bins, value_range))
                              for s in (gen, imp)))

    @given(gen=st.lists(_SCORES, min_size=1, max_size=25),
           imp=st.lists(_SCORES, min_size=1, max_size=25),
           thresholds=st.lists(st.one_of(_SCORES, st.sampled_from([np.inf, -np.inf])),
                               max_size=10),
           bins=st.integers(1, 8), rnd=st.randoms(use_true_random=False))
    @example(gen=[0.0, -0.0, 0.5], imp=[-0.0, 0.0, 0.0], thresholds=[-0.0, 0.0, np.inf],
             bins=3, rnd=random.Random(0))
    @example(gen=[0.0, -0.0, -0.5, -0.5], imp=[-0.0, -0.0, -0.5, -0.5], thresholds=[],
             bins=1, rnd=random.Random(0))  # np.unique keeps 0.0 in this order, -0.0 sorted
    @settings(max_examples=300, deadline=None)
    def test_sorted_or_shuffled_sets_give_the_same_bits(self, gen, imp, thresholds, bins, rnd):
        lo, hi = min(gen + imp), max(gen + imp)
        value_range = (lo, hi) if lo < hi and equal_edges(lo, hi, bins) is not None else (-1, 1)
        want = self._results(gen, imp, thresholds, bins, value_range)
        for g, i in [(sorted(gen), sorted(imp)), (sorted(gen, reverse=True), imp),
                     (rnd.sample(gen, len(gen)), rnd.sample(imp, len(imp)))]:
            assert self._results(g, i, thresholds, bins, value_range) == want


class TestPca2:
    def test_diagonal_two_dimensional(self):
        # centered 2-D data with diagonal covariance projects onto itself
        pts = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        projected, eigvals, axes = pca2(pts)
        np.testing.assert_allclose(np.abs(axes), np.eye(2), atol=1e-9)
        np.testing.assert_allclose(np.abs(projected), np.abs(pts), atol=1e-9)
        assert eigvals[0] >= eigvals[1]

    def test_rank_one_data(self):
        rng = np.random.default_rng(6)
        direction = rng.normal(size=5)
        pts = np.outer(rng.normal(size=30), direction)
        projected, eigvals, _ = pca2(pts)
        assert projected[:, 1].var(ddof=1) <= 1e-9
        assert eigvals[1] <= 1e-9

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pts = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
            projected, eigvals, axes = pca2(pts)
            expected_vals, expected_axes = oracles.pca_dense(pts)
            np.testing.assert_allclose(eigvals, expected_vals, rtol=1e-6)
            np.testing.assert_allclose(projected.var(axis=0, ddof=1),
                                       expected_vals, rtol=1e-6)
            for k in range(2):
                dot = abs(np.dot(axes[k], expected_axes[k]))
                assert dot == pytest.approx(1.0, abs=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(25, 4))
        base, _, _ = pca2(pts)
        shifted, _, _ = pca2(pts + np.array([5.0, -3.0, 100.0, 0.25]))
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        _, _, axes = pca2(rng.normal(size=(30, 6)))
        for axis in axes:
            assert axis[np.argmax(np.abs(axis))] > 0.0

    def test_identical_points(self):
        projected, eigvals, axes = pca2(np.tile([1.5, -2.0, 0.25], (6, 1)))
        np.testing.assert_array_equal(eigvals, [0.0, 0.0])
        np.testing.assert_allclose(axes @ axes.T, np.eye(2), atol=1e-12)
        np.testing.assert_array_equal(projected, np.zeros((6, 2)))

    def test_narrow_input_rejected(self):
        with pytest.raises(ValueError):
            pca2(np.zeros((10, 1)))
        with pytest.raises(ValueError):
            pca2(np.zeros((1, 5)))


class TestMapAt100:
    @pytest.mark.parametrize("rel,num_relevant,message", [
        ([1, 2], 1, "relevance flags must be 0/1"),
        ([0.5], 1, "relevance flags must be 0/1"),
        ([1, 0], -1, "num_relevant must be >= 0"),
        ([1, 1, 1], 1, "num_relevant must be >= the number of relevant flags"),
        ([1], float("nan"), "num_relevant must be a whole number"),
        ([1], 1.5, "num_relevant must be a whole number"),
    ])
    def test_invalid_query_rejected(self, rel, num_relevant, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RankedQuery(rel=rel, num_relevant=num_relevant)

    def test_first_prediction_correct(self):
        queries = [RankedQuery(rel=[1], num_relevant=1), RankedQuery(rel=[1, 0], num_relevant=1)]
        assert map_at_100(queries) == 1.0

    def test_second_prediction_correct(self):
        assert map_at_100([RankedQuery(rel=[0, 1], num_relevant=1)]) == 0.5

    def test_interleaved_fixture(self):
        assert map_at_100([RankedQuery(rel=[1, 0, 1], num_relevant=2)]) == (1.0 + 2.0 / 3.0) / 2.0

    def test_queries_without_relevant_items_excluded(self):
        queries = [RankedQuery(rel=[1], num_relevant=1), RankedQuery(rel=[0, 0], num_relevant=0)]
        assert map_at_100(queries) == 1.0
        assert map_at_100([RankedQuery(rel=[0], num_relevant=0)]) == 0.0

    def test_truncation_at_rank_100(self):
        rel = np.zeros(150, dtype=int)
        rel[120] = 1  # beyond the cutoff, must not count
        assert map_at_100([RankedQuery(rel=rel, num_relevant=1)]) == 0.0

    def test_normalizer_caps_at_100(self):
        rel = np.ones(100, dtype=int)
        assert map_at_100([RankedQuery(rel=rel, num_relevant=500)]) == pytest.approx(1.0)

    def test_range(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            queries = []
            for _ in range(rng.integers(1, 5)):
                rel = rng.integers(0, 2, rng.integers(1, 20))
                queries.append(RankedQuery(rel=rel, num_relevant=int(rel.sum())))
            assert 0.0 <= map_at_100(queries) <= 1.0

    # a query is its flags in rank order and its relevant items beyond the hits
    _QUERIES = st.lists(st.tuples(
        st.integers(1, 160).flatmap(lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        st.integers(0, 3)), min_size=1, max_size=6)

    @given(drawn=_QUERIES)
    @example(drawn=[([0] * 120 + [1], 0), ([0, 0], 2), ([0, 0], 0)])  # a hit past 100, no hits
    @example(drawn=[([1] * 150, 0)])  # more than 100 relevant items
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracle(self, drawn):
        """Equal to the scalar loop within a relative 1e-12: numpy sums the
        precisions pairwise, the loop one at a time."""
        queries = [(rel, sum(rel) + extra) for rel, extra in drawn]
        value = map_at_100([RankedQuery(rel=rel, num_relevant=m) for rel, m in queries])
        assert math.isclose(value, oracles.map_at_100_loop(queries), rel_tol=1e-12)


class TestGap:
    def test_all_correct(self):
        assert gap([0.9, 0.5, 0.7], [1, 1, 1], num_in_gallery=3) == 1.0

    def test_correct_above_wrong(self):
        assert gap([0.9, 0.8], [1, 0], num_in_gallery=2) == 0.5

    def test_wrong_above_correct(self):
        assert gap([0.9, 0.8], [0, 1], num_in_gallery=2) == 0.25

    def test_stable_tie_break(self):
        # equal confidences keep insertion order, so these two differ
        assert gap([0.5, 0.5], [1, 0], num_in_gallery=2) == 0.5
        assert gap([0.5, 0.5], [0, 1], num_in_gallery=2) == 0.25

    def test_appending_low_confidence_correct_never_hurts_numerator(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            conf = rng.uniform(0.1, 1.0, n)
            correct = rng.integers(0, 2, n)
            m = int(correct.sum()) + 1  # room for the appended correct prediction
            base = gap(conf, correct, num_in_gallery=m) * m
            extended = gap(np.append(conf, 0.01), np.append(correct, 1), num_in_gallery=m) * m
            assert extended >= base - 1e-12

    _CONFIDENCES = st.one_of(st.sampled_from([0.25, 0.5]), st.floats(-1.0, 1.0))

    @given(rows=st.lists(st.tuples(_CONFIDENCES, st.integers(0, 1)), min_size=1, max_size=150),
           extra=st.integers(0, 5))
    @example(rows=[(0.5, 0), (0.5, 1), (0.5, 1)], extra=0)  # a tie keeps input order
    @example(rows=[(0.9, 0), (0.1, 0)], extra=1)  # no correct prediction
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracle(self, rows, extra):
        """Equal to the scalar loop within a relative 1e-12, for any M at or
        above the correct count."""
        conf, correct = [c for c, _ in rows], [flag for _, flag in rows]
        m = max(1, sum(correct) + extra)
        assert math.isclose(gap(conf, correct, m), oracles.gap_loop(conf, correct, m),
                            rel_tol=1e-12)

    _FLAGS = "correct flags must be 0/1 and confidences finite"

    @pytest.mark.parametrize("conf,correct,m,message", [
        ([0.5], [1], 0, "num_in_gallery must be a positive count"),
        ([0.5], [1], float("nan"), "num_in_gallery must be a positive count"),  # was GAP nan
        ([0.5], [1], 1.5, "num_in_gallery must be a positive count"),
        ([0.5], [1], float("inf"), "num_in_gallery must be a positive count"),
        # each correct prediction's query has a relevant item; M = 1 here would give GAP 3
        ([0.9, 0.8, 0.7], [1, 1, 1], 1, "num_in_gallery 1 is below the 3 correct predictions"),
        ([0.9, 0.8], [-1, 1], 1, _FLAGS),  # was GAP 1.0 with one real hit
        ([0.9], [2], 2, _FLAGS),  # was GAP 2.0
        ([float("nan"), 0.8], [1, 0], 1, _FLAGS),  # was GAP 0.5, the NaN ranked last
        ([float("inf"), 0.8], [1, 0], 1, _FLAGS),
    ])
    def test_missing_fields_rejected(self, conf, correct, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gap(conf, correct, num_in_gallery=m)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="^confidences and correct must have matching shapes$"):
            gap([0.9, 0.5], [1], num_in_gallery=1)


class TestCsvRendering:
    def test_sweep_table(self):
        pairs = ScoredPairs(genuine=[0.9], impostor=[0.1])
        text = sweep_to_csv(far_frr_sweep(pairs, [0.0, 0.5, 1.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "threshold,far,frr"
        assert len(lines) == 4
        assert lines[2] == "0.5,0,0"

    def test_sweep_table_matches_per_row_format(self):
        """Several render blocks, signed zeros and extreme values."""
        rng = np.random.default_rng(5)
        sweep = rng.normal(0.0, 1.0, (10_000, 3)) * 10.0 ** rng.integers(-300, 300, (10_000, 3))
        sweep[:4, 0] = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
        expected = "\n".join(["threshold,far,frr"] + [f"{t:.17g},{far:.17g},{frr:.17g}"
                                                        for t, far, frr in sweep]) + "\n"
        assert sweep_to_csv(sweep) == expected
        assert sweep_to_csv(np.empty((0, 3))) == "threshold,far,frr\n"

    def test_histogram_table(self):
        counts, edges = histogram([0.2, 0.8], bins=2, value_range=(0.0, 1.0))
        text = histogram_to_csv({"scores": counts}, edges)
        lines = text.strip().split("\n")
        assert lines[0] == "bin_left,bin_right,scores"
        assert lines[1] == "0,0.5,1"
        assert lines[2] == "0.5,1,1"
