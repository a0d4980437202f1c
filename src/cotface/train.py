"""Desk-scale MLP trainer with hand-written backprop.

Two head styles share the same stack of affine+ReLU layers:

  * angular head: the final layer output is L2-normalized into an embedding
    whose clamped cosines against the L2-normalized class rows of head_W (no
    bias) feed any loss from the angular registry as a cosine batch.
  * score head: the final layer has a single unit whose raw output is a
    binary score, trained with margin_sigmoid_ce and optionally the
    double_loss separation term over pure-label batches.

Gradients flow through the normalizations explicitly: for u = z/||z|| the
Jacobian-vector product is (g - u<g, u>)/||z||.  A clamped cosine keeps the
gradient the loss gives it rather than dropping it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .angular import (DEFAULT_EPS, AngularBatch, ConfigError, LossConfig, _unit_rows,
                      l2_normalize_rows)
from .losses import (
    ANGULAR_LOSSES,
    ScorePair,
    double_loss,
    margin_sigmoid_ce,
    softmax_loss,
)
from .metrics import ScoredPairs, auc, eer

TASKS = ("embedding", "binary-live-spoof", "binary-eye-state")
BINARY_TASKS = ("binary-live-spoof", "binary-eye-state")
EVAL_FRACTION = 0.25  # trailing share of each class held out for the metrics
PURE_BATCH_SIZE = 16  # binary tasks: samples in each single-label batch


class TrainingDivergedError(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


@dataclass
class Layer:
    W: np.ndarray
    b: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class MlpModel:
    """Affine stack plus an optional angular head (unit rows, no bias)."""

    layers: list
    head_W: np.ndarray | None
    seed: int


@dataclass
class Grads:
    layers: list
    head_W: np.ndarray | None


@dataclass
class SynthSpec:
    """Synthetic dataset description.

    embedding: per class, a random unit prototype plus isotropic Gaussian
    jitter of scale intra_spread.  binary-*: two clusters a unit distance
    apart, overlap controlled by intra_spread.
    """

    task: str = "embedding"
    n_classes: int = 10
    dim: int = 16
    per_class: int = 20
    intra_spread: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}")
        if self.task in BINARY_TASKS:
            self.n_classes = 2
        if self.n_classes < 2 or self.per_class < 2 or self.dim < 2:
            raise ConfigError("need n_classes >= 2, per_class >= 2, dim >= 2")
        if self.intra_spread < 0.0:
            raise ConfigError("intra_spread must be >= 0")


@dataclass
class TrainReport:
    """Per-step loss curve and wall times plus summary metrics."""

    loss_curve: list
    wall_ms: list
    metrics: dict
    wall_time_s: float = 0.0

    def to_records(self) -> str:
        """One line per step: step,loss,wall_ms."""
        steps = enumerate(zip(self.loss_curve, self.wall_ms))
        return "step,loss,wall_ms\n" + "".join(f"{i},{v:.17g},{ms:.3f}\n" for i, (v, ms) in steps)


def synth_dataset(spec: SynthSpec):
    """Deterministic synthetic features and labels for a spec."""
    rng = np.random.default_rng(spec.seed)
    if spec.task == "embedding":
        protos = l2_normalize_rows(rng.standard_normal((spec.n_classes, spec.dim)))
        dists = np.linalg.norm(protos[:, None] - protos[None, :], axis=-1)
        if (dists[np.triu_indices(spec.n_classes, k=1)] < 1e-9).any():
            raise ValueError("degenerate prototypes")
    else:
        direction = rng.standard_normal(spec.dim)
        direction /= np.linalg.norm(direction)
        protos = np.stack([-0.5 * direction, 0.5 * direction])
    labels = np.repeat(np.arange(spec.n_classes), spec.per_class)
    noise = rng.standard_normal((labels.size, spec.dim))
    features = protos[labels] + spec.intra_spread * noise
    return features, labels


def _init_layers(dims, activations, rng):
    layers = []
    for (d_in, d_out), act in zip(zip(dims[:-1], dims[1:]), activations):
        scale = np.sqrt((2.0 if act == "relu" else 1.0) / d_in)
        layers.append(Layer(W=rng.standard_normal((d_out, d_in)) * scale,
                            b=np.zeros(d_out), activation=act))
    return layers


def init_embedding_model(in_dim, n_classes, hidden=(32, 32), embed_dim=32, seed=0) -> MlpModel:
    """ReLU hidden layers, identity embedding layer, unit-row angular head."""
    rng = np.random.default_rng(seed)
    dims = [in_dim, *hidden, embed_dim]
    acts = ["relu"] * len(hidden) + ["identity"]
    layers = _init_layers(dims, acts, rng)
    head = l2_normalize_rows(rng.standard_normal((n_classes, embed_dim)))
    return MlpModel(layers=layers, head_W=head, seed=seed)


def init_score_model(in_dim, hidden=(32, 32), seed=0) -> MlpModel:
    """ReLU hidden layers into a single raw-score output unit."""
    rng = np.random.default_rng(seed)
    dims = [in_dim, *hidden, 1]
    acts = ["relu"] * len(hidden) + ["identity"]
    return MlpModel(layers=_init_layers(dims, acts, rng), head_W=None, seed=seed)


def _forward_layers(model: MlpModel, x):
    """Run the affine stack, returning the input and every layer's activations."""
    a_list = [np.asarray(x, dtype=np.float64)]
    for layer in model.layers:
        a = a_list[-1] @ layer.W.T + layer.b
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        a_list.append(a)
    return a_list


def forward(model: MlpModel, x):
    """Unit embeddings, their cosines against the head rows, and a cache.

    The cosines are clamped to [-1 + eps, 1 - eps]; the cache holds the layer
    activations and both normalizations, which backward consumes.
    """
    if model.head_W is None:
        raise ValueError("model has no angular head")
    a_list = _forward_layers(model, x)
    emb, emb_norms = _unit_rows(a_list[-1])
    head, head_norms = _unit_rows(model.head_W)
    cos = emb @ head.T
    np.clip(cos, -1.0 + DEFAULT_EPS, 1.0 - DEFAULT_EPS, out=cos)
    return emb, cos, (a_list, emb, emb_norms, head, head_norms)


def forward_scores(model: MlpModel, x):
    """Raw scores of a score-head model, and the cache backward_scores consumes."""
    if model.head_W is not None:
        raise ValueError("model has an angular head, not a score head")
    a_list = _forward_layers(model, x)
    return a_list[-1][:, 0], a_list


def _normalization_vjp(unit, norms, grad_unit):
    """Backprop g through u = raw/||raw|| row-wise: (g - u<g,u>)/||raw||."""
    return (grad_unit - unit * (grad_unit * unit).sum(axis=1, keepdims=True)) / norms


def _backward_layers(model, a_list, grad_out) -> list:
    grads = [None] * len(model.layers)
    da = grad_out
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        # relu(z) > 0 exactly where z > 0, so the activation is the mask
        dz = da * (a_list[i + 1] > 0.0) if layer.activation == "relu" else da
        grads[i] = (dz.T @ a_list[i], dz.sum(axis=0))
        da = dz @ layer.W
    return grads


def backward(model: MlpModel, cache, dcos) -> Grads:
    """Gradients of a scalar loss given forward's cache and d(loss)/d(cos).

    Chains through both L2 normalizations and the affine stack.
    """
    a_list, emb, emb_norms, head, head_norms = cache
    grad_emb_unit = dcos @ head
    grad_head_unit = dcos.T @ emb
    head_grad = _normalization_vjp(head, head_norms, grad_head_unit)
    grad_emb_raw = _normalization_vjp(emb, emb_norms, grad_emb_unit)
    return Grads(layers=_backward_layers(model, a_list, grad_emb_raw),
                 head_W=head_grad)


def backward_scores(model: MlpModel, cache, grad_scores) -> Grads:
    """Gradients of a scalar loss given forward_scores's cache and d(loss)/d(score)."""
    return Grads(layers=_backward_layers(model, cache, grad_scores[:, None]), head_W=None)


def sgd_step(model: MlpModel, grads: Grads, lr: float) -> MlpModel:
    """In-place SGD: p <- p - lr*g; head rows re-normalized afterwards."""
    for layer, (dW, db) in zip(model.layers, grads.layers):
        layer.W -= lr * dW
        layer.b -= lr * db
    if model.head_W is not None:
        if grads.head_W is not None:
            model.head_W -= lr * grads.head_W
        model.head_W = l2_normalize_rows(model.head_W)
    return model


def _split_indices(labels, n_classes):
    """Per-class deterministic split: the trailing fraction is held out."""
    train_idx, eval_idx = [], []
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        k = max(1, int(round(len(idx) * EVAL_FRACTION)))
        train_idx.extend(idx[:-k])
        eval_idx.extend(idx[-k:])
    return np.array(train_idx), np.array(eval_idx)


def _verification_pairs(embeddings, labels) -> ScoredPairs:
    sims = embeddings @ embeddings.T
    same = labels[:, None] == labels[None, :]
    iu = np.triu_indices(len(labels), k=1)
    return ScoredPairs(genuine=sims[iu][same[iu]], impostor=sims[iu][~same[iu]])


def _embedding_eer(model, x, labels) -> float:
    return eer(_verification_pairs(forward(model, x)[0], labels))[0]


def train_loop(
    spec: SynthSpec,
    loss_name: str,
    cfg: LossConfig = LossConfig(),
    steps: int = 500,
    lr: float = 0.1,
    seed: int = 0,
    hidden=(32, 32),
    embed_dim: int = 32,
    batch_size: int = 32,
) -> tuple[MlpModel, TrainReport]:
    """Train a model on a synthetic spec and report curve plus metrics.

    Embedding task: full-batch angular training with any registry loss;
    metrics are held-out verification EER before and after.  Binary tasks:
    each step draws a mixed batch (margin_sigmoid_ce on raw scores) and one
    pure batch per label; "margin-ce+double" adds the double_loss term over
    the sigmoid scores of the pure batches (unweighted sum), stacking all
    three batches into one forward and one backward pass.  The pure
    batches are drawn either way so both variants consume the identical
    random stream; metrics are held-out AUC before and after.

    A non-finite loss aborts with TrainingDivergedError.
    """
    if steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {steps}")
    x, labels = synth_dataset(spec)
    train_idx, eval_idx = _split_indices(labels, spec.n_classes)
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()
    curve, wall_ms = [], []

    if spec.task == "embedding":
        if loss_name not in ANGULAR_LOSSES:
            raise ConfigError(f"unknown angular loss {loss_name!r}")
        if len(eval_idx) < 2 * spec.n_classes:
            raise ConfigError(
                f"--per-class {spec.per_class} holds out one sample per class; the "
                "held-out verification EER needs two (per_class * EVAL_FRACTION >= 1.5)")
        loss_fn = ANGULAR_LOSSES[loss_name]
        model = init_embedding_model(spec.dim, spec.n_classes,
                                     hidden=hidden, embed_dim=embed_dim, seed=seed)
        xt, yt = x[train_idx], labels[train_idx]
        metrics_out = {"eer_initial": _embedding_eer(model, x[eval_idx], labels[eval_idx])}
        for step in range(steps):
            t0 = time.perf_counter()
            _, cos, cache = forward(model, xt)
            out = loss_fn(AngularBatch(None, yt, cos=cos), cfg, rng=rng)
            if not np.isfinite(out.value):
                raise TrainingDivergedError(f"non-finite loss {out.value!r} at step {step}")
            grads = backward(model, cache, out.grad_cos)
            sgd_step(model, grads, lr)
            curve.append(out.value)
            wall_ms.append((time.perf_counter() - t0) * 1e3)
        metrics_out["eer_final"] = _embedding_eer(model, x[eval_idx], labels[eval_idx])
    else:
        use_double = _parse_binary_loss(loss_name)
        model = init_score_model(spec.dim, hidden=hidden, seed=seed)
        pools = [train_idx[labels[train_idx] == c] for c in (0, 1)]

        def eval_pairs() -> ScoredPairs:
            return ScoredPairs(
                genuine=forward_scores(model, x[eval_idx][labels[eval_idx] == 1])[0],
                impostor=forward_scores(model, x[eval_idx][labels[eval_idx] == 0])[0],
            )

        metrics_out = {"auc_initial": auc(eval_pairs())}
        for step in range(steps):
            t0 = time.perf_counter()
            mixed = rng.choice(train_idx, size=batch_size, replace=True)
            pure0 = rng.choice(pools[0], size=PURE_BATCH_SIZE, replace=True)
            pure1 = rng.choice(pools[1], size=PURE_BATCH_SIZE, replace=True)
            rows = np.concatenate([mixed, pure0, pure1]) if use_double else mixed
            raw, cache = forward_scores(model, x[rows])
            ce = margin_sigmoid_ce(raw[:batch_size], labels[mixed], cfg.m)
            total, grad = ce.value, ce.grad_scores
            if use_double:
                sig0, sig1 = np.split(1.0 / (1.0 + np.exp(-raw[batch_size:])), 2)
                dl = double_loss(ScorePair(low=sig0, high=sig1))
                total += dl.value
                grad = np.concatenate([grad, dl.grad_low * sig0 * (1 - sig0),
                                       dl.grad_high * sig1 * (1 - sig1)])
            grads = backward_scores(model, cache, grad)
            if not np.isfinite(total):
                raise TrainingDivergedError(f"non-finite loss {total!r} at step {step}")
            sgd_step(model, grads, lr)
            curve.append(float(total))
            wall_ms.append((time.perf_counter() - t0) * 1e3)
        metrics_out["auc_final"] = auc(eval_pairs())

    report = TrainReport(
        loss_curve=curve,
        wall_ms=wall_ms,
        metrics=metrics_out,
        wall_time_s=time.perf_counter() - t_start,
    )
    return model, report


def _parse_binary_loss(loss_name: str) -> bool:
    """Binary-task loss selector: margin-ce alone or with the double term."""
    parts = set(loss_name.split("+"))
    if parts == {"margin-ce"}:
        return False
    if parts == {"margin-ce", "double"}:
        return True
    raise ConfigError(
        f"binary tasks take 'margin-ce' or 'margin-ce+double', got {loss_name!r}")


# --- finite-difference gradient checking -----------------------------------

@dataclass
class GradcheckReport:
    loss_name: str
    trials: int
    max_rel_err: float
    worst: dict

    def passed(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err <= tol


class _TiledNormal:
    """Generator stand-in for a loss called on `copies` stacked inputs of n samples.

    Each standard_normal call draws one input's n values from the trial's
    generator and repeats them for every copy, so each copy sees the margins
    a call on it alone would draw from default_rng(seed).
    """

    def __init__(self, seed, n, copies):
        self._rng = np.random.default_rng(seed)
        self._n, self._copies = n, copies

    def standard_normal(self, size):
        if size != self._n * self._copies:
            raise ValueError(f"expected {self._n * self._copies} draws, got {size!r}")
        return np.tile(self._rng.standard_normal(self._n), self._copies)


def _stacked_values(loss, x, labels, seed):
    """values(stack) for loss(x, labels, rng), whose per_sample has one entry per row of x.

    The K rows of a (K, x.size) stack become one batch of K copies of x, with
    the labels tiled K times, scored in one call; each copy's value is the
    mean of its n per-sample losses, as in a call on that copy alone.
    """
    n = len(x)

    def values(stack):
        k = len(stack)
        out = loss(stack.reshape(k * n, *x.shape[1:]), np.tile(labels, k), _TiledNormal(seed, n, k))
        return out.per_sample.reshape(k, n).mean(axis=1)

    return values


# the angular losses' LossConfig fields, drawn uniformly in this order
_FD_RANGES = {"s": (0.5, 4.0), "m": (0.01, 0.3), "m1": (0.9, 1.1), "m2": (0.01, 0.2),
              "m3": (0.0, 0.2), "sigma1": (0.0, 0.05), "sigma2": (0.0, 0.05),
              "sigma3": (0.0, 0.05), "alpha": (0.2, 1.0), "beta": (0.2, 1.0)}


def _fd_setup(loss_name, cfg_rng, data_rng, trial_seed):
    """Random non-singular configuration for one trial.

    Returns (params, analytic, values): the flat parameter vector, the
    analytic gradient there, and values(stack), which maps a (K, P) stack of
    parameter vectors to their K loss values in one loss call (double_loss
    counts its pair as one sample, so it takes one call per row).  Elastic
    margins are drawn from the trial seed for every row, so each value is a
    deterministic function of its row.
    """
    if loss_name in ANGULAR_LOSSES:
        n_samples = int(cfg_rng.integers(2, 5))
        n_classes = int(cfg_rng.integers(2, 6))
        cfg = LossConfig(**{f: float(cfg_rng.uniform(*r)) for f, r in _FD_RANGES.items()},
                         log_base="ten" if cfg_rng.integers(2) else "natural")
        theta = data_rng.uniform(0.15, 2.6, size=(n_samples, n_classes))
        labels = data_rng.integers(0, n_classes, size=n_samples)

        def loss(x, y, rng):  # the registry is read per call: the traced benchmark wraps it
            return ANGULAR_LOSSES[loss_name](AngularBatch(x, y), cfg, rng=rng)

        return theta.ravel(), \
            loss(theta, labels, np.random.default_rng(trial_seed)).grad_theta.ravel(), \
            _stacked_values(loss, theta, labels, trial_seed)

    if loss_name == "softmax":
        n_samples = int(cfg_rng.integers(2, 5))
        n_classes = int(cfg_rng.integers(2, 6))
        cfg = LossConfig(log_base="ten" if cfg_rng.integers(2) else "natural")
        logits = data_rng.normal(0.0, 2.0, size=(n_samples, n_classes))
        labels = data_rng.integers(0, n_classes, size=n_samples)
        return logits.ravel(), softmax_loss(logits, labels, cfg).grad_theta.ravel(), \
            _stacked_values(lambda x, y, rng: softmax_loss(x, y, cfg), logits, labels, trial_seed)

    if loss_name == "margin-ce":
        n = int(cfg_rng.integers(2, 9))
        m = float(cfg_rng.uniform(-1.0, 1.0))
        scores = data_rng.normal(0.0, 2.0, size=n)
        labels = data_rng.integers(0, 2, size=n)
        return scores, margin_sigmoid_ce(scores, labels, m).grad_scores, \
            _stacked_values(lambda x, y, rng: margin_sigmoid_ce(x, y, m), scores, labels,
                            trial_seed)

    if loss_name == "double":
        n_low = int(cfg_rng.integers(2, 6))
        n_high = int(cfg_rng.integers(2, 6))
        scores = data_rng.uniform(0.1, 0.9, size=n_low + n_high)
        out = double_loss(ScorePair(low=scores[:n_low], high=scores[n_low:]))
        return scores, np.concatenate([out.grad_low, out.grad_high]), \
            lambda stack: np.array([double_loss(ScorePair(low=p[:n_low], high=p[n_low:])).value
                                    for p in stack])

    raise ValueError(f"unknown loss {loss_name!r}")


def gradcheck(loss_name: str, trials: int = 100, h: float = 1e-5, seed: int = 0) -> GradcheckReport:
    """Central-difference check of a loss's analytic gradient.

    Each trial samples a fresh non-singular configuration of P parameters
    and stacks 2P copies of them, copy i with coordinate i moved by +h and
    copy P + i by -h, so one loss call scores every copy; (f(+h) - f(-h)) / 2h
    is compared against the analytic gradient.  Relative error uses
    |a| + |fd| + 1e-4 in the denominator so near-zero gradients are judged
    absolutely.  The worst case is the first coordinate, in trial then
    coordinate order, whose error exceeds every earlier one; a non-finite
    error counts as infinite, so a NaN gradient fails the check.
    """
    cfg_rng = np.random.default_rng(seed)
    data_rng = np.random.default_rng(seed + 1)
    max_err, worst = 0.0, {}
    for trial in range(trials):
        params, analytic, values = _fd_setup(loss_name, cfg_rng, data_rng, trial)
        p = params.size
        coords = np.arange(p)
        stack = np.tile(params, (2 * p, 1))
        stack[coords, coords] = params + h
        stack[coords + p, coords] = params - h
        f = values(stack)
        fd = (f[:p] - f[p:]) / (2.0 * h)
        err = np.abs(analytic - fd) / (np.abs(analytic) + np.abs(fd) + 1e-4)
        err[np.isnan(err)] = np.inf
        above = np.flatnonzero(err > max_err)
        if above.size:
            i = int(above[err[above].argmax()])
            max_err = float(err[i])
            worst = {"trial": trial, "coordinate": i,
                     "analytic": float(analytic[i]), "fd": float(fd[i])}
    return GradcheckReport(loss_name=loss_name, trials=trials,
                           max_rel_err=float(max_err), worst=worst)


GRADCHECK_LOSSES = tuple(ANGULAR_LOSSES) + ("softmax", "margin-ce", "double")


def save_model(model: MlpModel, path):
    """Serialize a model to .npz (weights, biases, activations, head, seed)."""
    arrays = {"seed": np.array(model.seed), "n_layers": np.array(len(model.layers))}
    acts = []
    for i, layer in enumerate(model.layers):
        arrays[f"W{i}"] = layer.W
        arrays[f"b{i}"] = layer.b
        acts.append(layer.activation)
    arrays["activations"] = np.array(acts)
    if model.head_W is not None:
        arrays["head_W"] = model.head_W
    np.savez(path, **arrays)


def load_model(path) -> MlpModel:
    with np.load(path, allow_pickle=False) as data:
        n = int(data["n_layers"])
        acts = [str(a) for a in data["activations"]]
        layers = [Layer(W=data[f"W{i}"].copy(), b=data[f"b{i}"].copy(), activation=acts[i])
                  for i in range(n)]
        head = data["head_W"].copy() if "head_W" in data else None
        return MlpModel(layers=layers, head_W=head, seed=int(data["seed"]))
