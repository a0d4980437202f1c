"""Synthetic data, forward/backward passes and the training loop."""

import tracemalloc
import warnings

import numpy as np
import pytest

from cotface.angular import LossConfig, angles_from_features
from cotface.losses import ANGULAR_LOSSES
from cotface.angular import AngularBatch, ConfigError
from cotface.train import (
    Layer,
    MlpModel,
    NonFiniteOutputError,
    SynthSpec,
    TrainingDivergedError,
    backward,
    backward_scores,
    forward,
    forward_scores,
    init_embedding_model,
    init_score_model,
    load_model,
    save_model,
    sgd_step,
    synth_dataset,
    train_loop,
)

arcface_loss = ANGULAR_LOSSES["arcface"]


class TestSynthDataset:
    def test_zero_spread_hits_prototypes(self):
        spec = SynthSpec(task="embedding", n_classes=3, dim=8, per_class=4,
                         intra_spread=0.0, seed=0)
        x, labels = synth_dataset(spec)
        for c in range(3):
            rows = x[labels == c]
            assert (rows == rows[0]).all()

    def test_deterministic(self):
        spec = SynthSpec(seed=5)
        xa, la = synth_dataset(spec)
        xb, lb = synth_dataset(spec)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(la, lb)

    def test_within_class_tighter_than_between(self):
        spec = SynthSpec(task="embedding", n_classes=10, dim=16, per_class=50,
                         intra_spread=0.1, seed=0)
        x, labels = synth_dataset(spec)
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        sims = xn @ xn.T
        same = labels[:, None] == labels[None, :]
        iu = np.triu_indices(len(labels), k=1)
        assert sims[iu][same[iu]].mean() > sims[iu][~same[iu]].mean()

    def test_binary_task_two_clusters(self):
        spec = SynthSpec(task="binary-live-spoof", dim=8, per_class=20,
                         intra_spread=0.1, seed=1)
        x, labels = synth_dataset(spec)
        assert set(labels.tolist()) == {0, 1}
        gap_vec = x[labels == 1].mean(axis=0) - x[labels == 0].mean(axis=0)
        assert np.linalg.norm(gap_vec) == pytest.approx(1.0, abs=0.15)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(task="nonsense")
        with pytest.raises(ValueError):
            SynthSpec(per_class=1)
        with pytest.raises(ValueError):
            SynthSpec(intra_spread=-0.1)

    @pytest.mark.parametrize("spread", [1e308, float("inf")])
    @pytest.mark.parametrize("task", ["embedding", "binary-live-spoof"])
    def test_overflowing_spread_rejected(self, task, spread):
        """A spread whose features leave the floats is a ConfigError, raised
        without a numpy warning."""
        spec = SynthSpec(task=task, n_classes=3, dim=4, per_class=3, intra_spread=spread)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="makes the features overflow"):
                synth_dataset(spec)

    def test_memory_is_linear_in_the_class_count(self):
        """1,000 classes of 16-d features take about 1 MB; a table over class
        pairs (C x C x d float64) would take 128 MB."""
        tracemalloc.start()
        try:
            synth_dataset(SynthSpec(n_classes=1000, dim=16, per_class=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _identity_model(dim: int, head: np.ndarray) -> MlpModel:
    layer = Layer(W=np.eye(dim), b=np.zeros(dim))
    return MlpModel(layers=[layer], head_W=head.copy())


class TestForward:
    def test_identity_net_reproduces_angle_map(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        head = rng.normal(size=(3, 4))
        model = _identity_model(4, head)
        _, cos, _ = forward(model, x)
        np.testing.assert_allclose(np.arccos(cos), angles_from_features(x, head), atol=1e-12)

    def test_embeddings_unit_norm(self):
        model = init_embedding_model(8, n_classes=4, seed=1)
        x = np.random.default_rng(1).normal(size=(10, 8))
        emb, _, _ = forward(model, x)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-10)

    def test_hand_computed_tiny_net(self):
        # one identity layer, W = [[1, 0], [0, 2]], b = [1, 0]; x = [1, 1]
        # raw = [2, 2] -> unit [0.7071, 0.7071]; head rows e1, e2 -> 45 degrees
        layer = Layer(W=np.array([[1.0, 0.0], [0.0, 2.0]]), b=np.array([1.0, 0.0]))
        model = MlpModel(layers=[layer], head_W=np.eye(2))
        emb, cos, _ = forward(model, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(emb[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
        np.testing.assert_allclose(np.arccos(cos[0]), [np.pi / 4, np.pi / 4], atol=1e-6)

    def test_hand_computed_relu_net(self):
        # relu clips the negative preactivation: z = [1, -3] -> a = [1, 0]
        l1 = Layer(W=np.array([[1.0, 0.0], [0.0, -3.0]]), b=np.zeros(2))
        l2 = Layer(W=np.eye(2), b=np.zeros(2))
        model = MlpModel(layers=[l1, l2], head_W=np.eye(2))
        emb, _, _ = forward(model, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(emb[0], [1.0, 0.0], atol=1e-12)

    def test_batch_permutation_permutes_rows(self):
        model = init_embedding_model(5, n_classes=3, seed=2)
        x = np.random.default_rng(2).normal(size=(7, 5))
        perm = np.random.default_rng(3).permutation(7)
        _, cos, _ = forward(model, x)
        _, cos_p, _ = forward(model, x[perm])
        np.testing.assert_array_equal(np.arccos(cos_p), np.arccos(cos)[perm])

    def test_score_head_and_angular_head_guards(self):
        scored = init_score_model(4, seed=0)
        angular = init_embedding_model(4, n_classes=2, seed=0)
        x = np.zeros((2, 4))
        with pytest.raises(ValueError):
            forward(scored, x)
        with pytest.raises(ValueError):
            forward_scores(angular, x)

    def test_output_that_is_not_finite_raises_without_warnings(self):
        """Finite weights whose products overflow: both heads raise one
        NonFiniteOutputError and numpy warns about nothing."""
        scored = init_score_model(4, hidden=(3,), seed=0)
        angular = init_embedding_model(4, n_classes=2, hidden=(3,), embed_dim=2, seed=0)
        x = np.ones((2, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model, fn in ((scored, forward_scores), (angular, forward)):
                model.layers[0].W[:] = 1e308
                with pytest.raises(NonFiniteOutputError, match="model output is not finite"):
                    fn(model, x)


def _model_loss(model, x, labels, cfg):
    _, cos, _ = forward(model, x)
    return arcface_loss(AngularBatch(None, labels, cos=cos), cfg)


def _flatten_params(model):
    parts = [np.concatenate([l.W.ravel(), l.b.ravel()]) for l in model.layers]
    if model.head_W is not None:
        parts.append(model.head_W.ravel())
    return np.concatenate(parts)


def _set_params(model, flat):
    pos = 0
    for layer in model.layers:
        n = layer.W.size
        layer.W = flat[pos : pos + n].reshape(layer.W.shape).copy()
        pos += n
        n = layer.b.size
        layer.b = flat[pos : pos + n].copy()
        pos += n
    if model.head_W is not None:
        model.head_W = flat[pos:].reshape(model.head_W.shape).copy()


def _flatten_grads(grads):
    parts = [np.concatenate([g.W.ravel(), g.b.ravel()]) for g in grads.layers]
    if grads.head_W is not None:
        parts.append(grads.head_W.ravel())
    return np.concatenate(parts)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = init_embedding_model(4, n_classes=3, seed=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        grads = backward(model, forward(model, x)[2], np.zeros((5, 3)))
        assert all(not g.W.any() and not g.b.any() for g in grads.layers)
        assert not grads.head_W.any()

    def test_matches_finite_differences(self):
        """End-to-end parameter gradient against central differences."""
        rng = np.random.default_rng(4)
        model = init_embedding_model(4, n_classes=3, hidden=(6,), embed_dim=4, seed=4)
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        cfg = LossConfig(s=2.0, m=0.1)

        out = _model_loss(model, x, labels, cfg)
        grads = backward(model, forward(model, x)[2], out.grad)
        analytic = _flatten_grads(grads)

        flat = _flatten_params(model)
        h = 1e-5
        for i in range(0, flat.size, 7):  # spot-check every 7th coordinate
            bumped = flat.copy()
            bumped[i] += h
            _set_params(model, bumped)
            up = _model_loss(model, x, labels, cfg).value
            bumped[i] -= 2 * h
            _set_params(model, bumped)
            down = _model_loss(model, x, labels, cfg).value
            _set_params(model, flat)
            fd = (up - down) / (2 * h)
            rel = abs(analytic[i] - fd) / (abs(analytic[i]) + abs(fd) + 1e-4)
            assert rel <= 1e-4, (i, analytic[i], fd)

    def test_linear_net_closed_form(self):
        """Single identity layer, one sample, two orthonormal classes.

        With x = [a, 0], raw = diag(w1, w2) x = [w1 a, 0] already lands on the
        first head row, so theta = [clamp angle, pi/2] and the loss gradient
        w.r.t. w2 row must vanish by symmetry (the embedding cannot rotate
        while the second raw coordinate stays zero).
        """
        layer = Layer(W=np.diag([2.0, 3.0]), b=np.zeros(2))
        model = MlpModel(layers=[layer], head_W=np.eye(2))
        x = np.array([[1.5, 0.0]])
        labels = np.array([0])
        out = _model_loss(model, x, labels, LossConfig(s=2.0, m=0.1))
        grads = backward(model, forward(model, x)[2], out.grad)
        dW = grads.layers[0].W
        assert dW[0, 1] == 0.0 and dW[1, 1] == 0.0
        # scaling the first weight leaves the unit embedding unchanged
        assert abs(dW[0, 0]) < 1e-12

    def test_score_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = init_score_model(4, hidden=(6,), seed=5)
        x = rng.normal(size=(6, 4))
        upstream = rng.normal(size=6)

        def scalar(m):
            return float(np.dot(forward_scores(m, x)[0], upstream))

        grads = backward_scores(model, forward_scores(model, x)[1], upstream)
        analytic = _flatten_grads(grads)
        flat = _flatten_params(model)
        h = 1e-6
        for i in range(0, flat.size, 5):
            bumped = flat.copy()
            bumped[i] += h
            _set_params(model, bumped)
            up = scalar(model)
            bumped[i] -= 2 * h
            _set_params(model, bumped)
            down = scalar(model)
            _set_params(model, flat)
            fd = (up - down) / (2 * h)
            assert abs(analytic[i] - fd) / (abs(analytic[i]) + abs(fd) + 1e-4) <= 1e-4


class TestSgdStep:
    def test_zero_lr_keeps_model(self):
        model = init_embedding_model(4, n_classes=3, seed=6)
        x = np.random.default_rng(6).normal(size=(5, 4))
        labels = np.random.default_rng(7).integers(0, 3, size=5)
        before = _flatten_params(model)
        out = _model_loss(model, x, labels, LossConfig(s=2.0, m=0.1))
        sgd_step(model, backward(model, forward(model, x)[2], out.grad), lr=0.0)
        # layers are untouched exactly; the head renormalization may move
        # already-unit rows by one ulp
        np.testing.assert_allclose(_flatten_params(model), before, rtol=0, atol=1e-15)

    def test_head_rows_renormalized(self):
        model = init_embedding_model(4, n_classes=3, seed=8)
        x = np.random.default_rng(8).normal(size=(5, 4))
        labels = np.random.default_rng(9).integers(0, 3, size=5)
        for _ in range(5):
            out = _model_loss(model, x, labels, LossConfig(s=2.0, m=0.1))
            sgd_step(model, backward(model, forward(model, x)[2], out.grad), lr=0.5)
            np.testing.assert_allclose(np.linalg.norm(model.head_W, axis=1), 1.0,
                                       atol=1e-10)

    def test_one_step_decreases_loss(self):
        model = init_embedding_model(6, n_classes=3, seed=10)
        x = np.random.default_rng(10).normal(size=(9, 6))
        labels = np.repeat(np.arange(3), 3)
        cfg = LossConfig(s=8.0, m=0.05)
        before = _model_loss(model, x, labels, cfg)
        sgd_step(model, backward(model, forward(model, x)[2], before.grad), lr=0.05)
        after = _model_loss(model, x, labels, cfg)
        assert after.value < before.value


EMBED_SPEC = SynthSpec(task="embedding", n_classes=10, dim=16, per_class=20,
                       intra_spread=0.2, seed=0)
EMBED_CFG = LossConfig(s=8.0, m=0.05, m1=1.0, m2=0.05, m3=0.05,
                       sigma1=0.01, sigma2=0.02, sigma3=0.02, alpha=0.7, beta=0.3)
BINARY_SPEC = SynthSpec(task="binary-live-spoof", dim=16, per_class=60,
                        intra_spread=0.6, seed=0)


class TestTrainLoop:
    def test_flat_curve_at_zero_lr(self):
        _, report = train_loop(EMBED_SPEC, "lmcot", EMBED_CFG, steps=5, lr=0.0, seed=0)
        assert len(set(report.loss_curve)) == 1

    def test_loss_curve_finite_and_decreasing(self):
        _, report = train_loop(EMBED_SPEC, "lmcot", EMBED_CFG, steps=50, lr=0.1, seed=0)
        curve = np.array(report.loss_curve)
        assert np.isfinite(curve).all()
        assert curve[-1] < curve[0]

    def test_eer_improves(self):
        _, report = train_loop(EMBED_SPEC, "lmcot", EMBED_CFG, steps=500, lr=0.1, seed=0)
        assert report.metrics["eer_final"] < report.metrics["eer_initial"]

    def test_deterministic_loss_curves(self):
        _, a = train_loop(EMBED_SPEC, "dual", EMBED_CFG, steps=20, lr=0.1, seed=1)
        _, b = train_loop(EMBED_SPEC, "dual", EMBED_CFG, steps=20, lr=0.1, seed=1)
        assert a.loss_curve == b.loss_curve
        assert a.metrics == b.metrics

    def test_divergence_aborts(self):
        # an absurd rate explodes the raw-score head within a few steps
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train_loop(BINARY_SPEC, "margin-ce", LossConfig(m=1.0),
                           steps=200, lr=1e9, seed=0, hidden=(16,))

    @pytest.mark.parametrize("spec,cfg,loss,steps", [
        (EMBED_SPEC, EMBED_CFG, "lmcot", 1),
        (EMBED_SPEC, EMBED_CFG, "lmcot", 2),
        (BINARY_SPEC, LossConfig(m=1.0), "margin-ce+double", 3),
    ])
    def test_weights_that_overflow_abort(self, spec, cfg, loss, steps):
        """At lr 1e308 the first loss is finite and the step blows up the
        weights: the next forward pass, or the final metric's when it is the
        last step, is a divergence, not a bad score set."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError,
                               match=f"^model output is not finite after 1 of {steps} steps$"):
                train_loop(spec, loss, cfg, steps=steps, lr=1e308, seed=0, hidden=(16,))

    @pytest.mark.parametrize("loss", ["double+margin-ce", "margin-ce+margin-ce", "double", "lmcot"])
    def test_binary_tasks_take_two_loss_names(self, loss):
        with pytest.raises(ConfigError, match="'margin-ce' or 'margin-ce\\+double'"):
            train_loop(BINARY_SPEC, loss, LossConfig(m=1.0), steps=1)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            train_loop(EMBED_SPEC, "not-a-loss", EMBED_CFG, steps=1)
        with pytest.raises(ValueError):
            train_loop(BINARY_SPEC, "lmcot", EMBED_CFG, steps=1)

    def test_binary_ce_reproducible_baseline(self):
        cfg = LossConfig(m=1.0)
        _, a = train_loop(BINARY_SPEC, "margin-ce", cfg, steps=30, lr=0.3,
                          seed=0, hidden=(16,))
        _, b = train_loop(BINARY_SPEC, "margin-ce", cfg, steps=30, lr=0.3,
                          seed=0, hidden=(16,))
        assert a.loss_curve == b.loss_curve
        assert a.metrics["auc_final"] == b.metrics["auc_final"]

    def test_double_term_improves_auc_on_seed_zero(self):
        cfg = LossConfig(m=1.0)
        _, ce = train_loop(BINARY_SPEC, "margin-ce", cfg, steps=300, lr=0.3,
                           seed=0, hidden=(16,))
        _, both = train_loop(BINARY_SPEC, "margin-ce+double", cfg, steps=300, lr=0.3,
                             seed=0, hidden=(16,))
        assert both.metrics["auc_final"] >= ce.metrics["auc_final"]


class TestModelSerialization:
    def test_round_trip_embedding_model(self, tmp_path):
        model = init_embedding_model(6, n_classes=4, seed=11)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        x = np.random.default_rng(11).normal(size=(3, 6))
        _, cos_a, _ = forward(model, x)
        _, cos_b, _ = forward(loaded, x)
        np.testing.assert_array_equal(np.arccos(cos_a), np.arccos(cos_b))

    def test_file_holds_weights_only(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(init_embedding_model(6, n_classes=4, hidden=(5,), seed=11), path)
        with np.load(path) as data:
            assert sorted(data.files) == ["W0", "W1", "b0", "b1", "head_W", "n_layers"]

    def test_loads_the_older_layout(self, tmp_path):
        """Older files also hold the seed and each layer's activation name
        (relu, then identity last); they load as the same network: ReLU
        between the affine layers, cosines against the unit head rows."""
        rng = np.random.default_rng(13)
        W0, b0, W1, b1 = rng.normal(size=(5, 6)), rng.normal(size=5), \
            rng.normal(size=(4, 5)), rng.normal(size=4)
        head = rng.normal(size=(3, 4))
        path = tmp_path / "old.npz"
        np.savez(path, seed=np.array(13), n_layers=np.array(2), W0=W0, b0=b0, W1=W1, b1=b1,
                 activations=np.array(["relu", "identity"]), head_W=head)
        x = rng.normal(size=(7, 6))
        emb = np.maximum(x @ W0.T + b0, 0.0) @ W1.T + b1
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        want = emb @ (head / np.linalg.norm(head, axis=1, keepdims=True)).T
        np.testing.assert_allclose(forward(load_model(path), x)[1], want, rtol=0, atol=1e-15)

    def test_round_trip_score_model(self, tmp_path):
        model = init_score_model(6, seed=12)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.head_W is None
        x = np.random.default_rng(12).normal(size=(3, 6))
        np.testing.assert_array_equal(forward_scores(model, x)[0],
                                      forward_scores(loaded, x)[0])
