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

from .angular import (DEFAULT_EPS, AngularBatch, ConfigError, LossConfig, NormOverflowError,
                      ZeroVectorError, _unit_rows, l2_normalize)
from .losses import (
    ANGULAR_LOSSES,
    double_loss,
    margin_sigmoid_ce,
    softmax_loss,
)
from .metrics import ScoredPairs, auc, eer

TASKS = ("embedding", "binary-live-spoof")
BINARY_LOSSES = {"margin-ce": False, "margin-ce+double": True}  # name -> adds the double term?
EVAL_FRACTION = 0.25  # trailing share of each class held out for the metrics
PURE_BATCH_SIZE = 16  # binary tasks: samples in each single-label batch


class TrainingDivergedError(RuntimeError):
    """Raised when a training run's loss or its model's output turns non-finite."""


class NonFiniteOutputError(ValueError):
    """Raised when a network's last layer gives a value that is not finite."""


@dataclass
class Layer:
    W: np.ndarray
    b: np.ndarray


@dataclass
class MlpModel:
    """Affine stack plus an optional angular head (unit rows, no bias), or their gradients."""

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
        if self.task != "embedding":
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


def synth_dataset(spec: SynthSpec):
    """Deterministic synthetic features and labels for a spec."""
    rng = np.random.default_rng(spec.seed)
    if spec.task == "embedding":
        protos = _unit_rows(rng.standard_normal((spec.n_classes, spec.dim)))[0]
    else:
        direction = l2_normalize(rng.standard_normal(spec.dim))
        protos = np.stack([-0.5 * direction, 0.5 * direction])
    labels = np.repeat(np.arange(spec.n_classes), spec.per_class)
    noise = rng.standard_normal((labels.size, spec.dim))
    with np.errstate(over="ignore"):
        features = protos[labels] + spec.intra_spread * noise
    if not np.isfinite(features).all():
        raise ConfigError(f"intra_spread {spec.intra_spread:g} makes the features overflow")
    return features, labels


def _init_layers(dims, rng):
    """He-scaled layers: gain 2 before a ReLU, 1 for the affine last layer."""
    gains = [2.0] * (len(dims) - 2) + [1.0]
    return [Layer(W=rng.standard_normal((d_out, d_in)) * np.sqrt(gain / d_in), b=np.zeros(d_out))
            for d_in, d_out, gain in zip(dims[:-1], dims[1:], gains)]


def init_embedding_model(in_dim, n_classes, hidden=(32, 32), embed_dim=32, seed=0) -> MlpModel:
    """ReLU hidden layers, affine embedding layer, unit-row angular head."""
    rng = np.random.default_rng(seed)
    layers = _init_layers([in_dim, *hidden, embed_dim], rng)
    return MlpModel(layers, _unit_rows(rng.standard_normal((n_classes, embed_dim)))[0])


def init_score_model(in_dim, hidden=(32, 32), seed=0) -> MlpModel:
    """ReLU hidden layers into a single raw-score output unit."""
    return MlpModel(_init_layers([in_dim, *hidden, 1], np.random.default_rng(seed)), None)


def _forward_layers(model: MlpModel, x):
    """Run the affine stack, ReLU after every layer but the last: the input and each output."""
    a_list = [np.asarray(x, dtype=np.float64)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(model.layers, 1):
            a = a_list[-1] @ layer.W.T + layer.b
            if i < len(model.layers):
                np.maximum(a, 0.0, out=a)
            a_list.append(a)
    if not np.isfinite(a_list[-1]).all():
        raise NonFiniteOutputError("model output is not finite")  # every forward pass ends here
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
        # below the affine last layer, relu(z) > 0 exactly where z > 0: the activation is the mask
        dz = da * (a_list[i + 1] > 0.0) if i < len(model.layers) - 1 else da
        grads[i] = Layer(dz.T @ a_list[i], dz.sum(axis=0))
        da = dz @ model.layers[i].W
    return grads


def backward(model: MlpModel, cache, dcos) -> MlpModel:
    """Gradients of a scalar loss given forward's cache and d(loss)/d(cos).

    Chains through both L2 normalizations and the affine stack.
    """
    a_list, emb, emb_norms, head, head_norms = cache
    grad_emb_unit = dcos @ head
    grad_head_unit = dcos.T @ emb
    head_grad = _normalization_vjp(head, head_norms, grad_head_unit)
    grad_emb_raw = _normalization_vjp(emb, emb_norms, grad_emb_unit)
    return MlpModel(_backward_layers(model, a_list, grad_emb_raw), head_grad)


def backward_scores(model: MlpModel, cache, dscores) -> MlpModel:
    """Gradients of a scalar loss given forward_scores's cache and d(loss)/d(score)."""
    return MlpModel(_backward_layers(model, cache, dscores[:, None]), None)


def sgd_step(model: MlpModel, grads: MlpModel, lr: float) -> MlpModel:
    """In-place SGD: p <- p - lr*g; head rows re-normalized afterwards."""
    for layer, g in zip(model.layers, grads.layers):
        layer.W -= lr * g.W
        layer.b -= lr * g.b
    if model.head_W is not None:
        if grads.head_W is not None:
            model.head_W -= lr * grads.head_W
        model.head_W = _unit_rows(model.head_W)[0]
    return model


def _split_indices(labels, spec: SynthSpec):
    """Per-class deterministic split: each class's trailing fraction is held out."""
    blocks = np.argsort(labels, kind="stable").reshape(spec.n_classes, spec.per_class)
    k = max(1, int(round(spec.per_class * EVAL_FRACTION)))
    return blocks[:, :-k].ravel(), blocks[:, -k:].ravel()


@np.errstate(all="ignore")  # a blow-up is reported once, by the checks, not per numpy call
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
    random stream; metrics are the held-out AUC and mean margin_sigmoid_ce
    (nats, at cfg.m) before and after.

    One loop runs each task's step(), a batch's (loss, grads), and evaluate();
    a non-finite loss or model output, or an embedding or head row whose norm
    overflows or falls below eps, aborts with TrainingDivergedError.
    """
    x, labels = synth_dataset(spec)
    train_idx, eval_idx = _split_indices(labels, spec)
    x_eval, y_eval = x[eval_idx], labels[eval_idx]
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()

    if spec.task == "embedding":
        if loss_name not in ANGULAR_LOSSES:
            raise ConfigError(f"unknown angular loss {loss_name!r}")
        if len(eval_idx) < 2 * spec.n_classes:
            raise ConfigError(
                f"--per-class {spec.per_class} holds out one sample per class; the "
                "held-out verification EER needs two (per_class * EVAL_FRACTION >= 1.5)")
        model = init_embedding_model(spec.dim, spec.n_classes,
                                     hidden=hidden, embed_dim=embed_dim, seed=seed)
        xt, yt = x[train_idx], labels[train_idx]

        def evaluate():  # every held-out pair: same label is genuine, else impostor
            emb = forward(model, x_eval)[0]
            iu = np.triu_indices(len(y_eval), k=1)
            sims, same = (emb @ emb.T)[iu], (y_eval[:, None] == y_eval[None, :])[iu]
            return {"eer": eer(ScoredPairs(genuine=sims[same], impostor=sims[~same]))[0]}

        def step():  # the registry is read per call: the traced benchmark wraps it
            _, cos, cache = forward(model, xt)
            out = ANGULAR_LOSSES[loss_name](AngularBatch(None, yt, cos=cos), cfg, rng=rng)
            return out.value, backward(model, cache, out.grad)
    else:
        if loss_name not in BINARY_LOSSES:
            raise ConfigError(
                f"binary tasks take 'margin-ce' or 'margin-ce+double', got {loss_name!r}")
        use_double = BINARY_LOSSES[loss_name]
        model = init_score_model(spec.dim, hidden=hidden, seed=seed)
        pools = [train_idx[labels[train_idx] == c] for c in (0, 1)]

        def evaluate():  # held-out AUC, and mean margin_sigmoid_ce in nats at the run's m
            gen, imp = (forward_scores(model, x_eval[y_eval == c])[0] for c in (1, 0))
            ce = margin_sigmoid_ce(np.r_[gen, imp], np.repeat([1, 0], [gen.size, imp.size]), cfg.m)
            return {"auc": auc(ScoredPairs(genuine=gen, impostor=imp)), "margin_ce": ce.value}

        def step():
            mixed = rng.choice(train_idx, size=batch_size, replace=True)
            pure0 = rng.choice(pools[0], size=PURE_BATCH_SIZE, replace=True)
            pure1 = rng.choice(pools[1], size=PURE_BATCH_SIZE, replace=True)
            rows = np.concatenate([mixed, pure0, pure1]) if use_double else mixed
            raw, cache = forward_scores(model, x[rows])
            ce = margin_sigmoid_ce(raw[:batch_size], labels[mixed], cfg.m)
            total, grad = ce.value, ce.grad
            if use_double:
                sig = 1.0 / (1.0 + np.exp(-raw[batch_size:]))
                dl = double_loss(ScoredPairs(genuine=sig[PURE_BATCH_SIZE:],  # pure1
                                             impostor=sig[:PURE_BATCH_SIZE]))  # pure0
                total += dl.value
                grad = np.concatenate([grad, dl.grad * sig * (1 - sig)])
            return total, backward_scores(model, cache, grad)

    curve, wall_ms = [], []
    try:
        metrics_out = {f"{k}_initial": v for k, v in evaluate().items()}
        for i in range(steps):
            t0 = time.perf_counter()
            loss, grads = step()
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss {loss!r} at step {i}")
            curve.append(loss)
            sgd_step(model, grads, lr)
            wall_ms.append((time.perf_counter() - t0) * 1e3)
        metrics_out.update({f"{k}_final": v for k, v in evaluate().items()})
    except (NonFiniteOutputError, NormOverflowError, ZeroVectorError) as exc:
        what = exc if isinstance(exc, ZeroVectorError) else "model output is not finite"
        raise TrainingDivergedError(f"{what} after {len(curve)} of {steps} steps") from None
    return model, TrainReport(loss_curve=curve, wall_ms=wall_ms, metrics=metrics_out,
                              wall_time_s=time.perf_counter() - t_start)


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
    if loss_name == "double":
        n_imp = int(cfg_rng.integers(2, 6))
        n_gen = int(cfg_rng.integers(2, 6))
        scores = data_rng.uniform(0.1, 0.9, size=n_imp + n_gen)

        def loss(p):  # impostor scores first, as in double_loss's grad
            return double_loss(ScoredPairs(genuine=p[n_imp:], impostor=p[:n_imp]))
        return scores, loss(scores).grad, lambda stack: np.array([loss(p).value for p in stack])

    if loss_name in ANGULAR_LOSSES:
        n_samples = int(cfg_rng.integers(2, 5))
        n_classes = int(cfg_rng.integers(2, 6))
        cfg = LossConfig(**{f: float(cfg_rng.uniform(*r)) for f, r in _FD_RANGES.items()},
                         log_base="ten" if cfg_rng.integers(2) else "natural")
        x = data_rng.uniform(0.15, 2.6, size=(n_samples, n_classes))
        labels = data_rng.integers(0, n_classes, size=n_samples)

        def loss(x, y, rng):  # the registry is read per call: the traced benchmark wraps it
            return ANGULAR_LOSSES[loss_name](AngularBatch(x, y), cfg, rng=rng)
    elif loss_name == "softmax":
        n_samples = int(cfg_rng.integers(2, 5))
        n_classes = int(cfg_rng.integers(2, 6))
        cfg = LossConfig(log_base="ten" if cfg_rng.integers(2) else "natural")
        x = data_rng.normal(0.0, 2.0, size=(n_samples, n_classes))
        labels = data_rng.integers(0, n_classes, size=n_samples)

        def loss(x, y, rng):
            return softmax_loss(x, y, cfg)
    elif loss_name == "margin-ce":
        n = int(cfg_rng.integers(2, 9))
        m = float(cfg_rng.uniform(-1.0, 1.0))
        x = data_rng.normal(0.0, 2.0, size=n)
        labels = data_rng.integers(0, 2, size=n)

        def loss(x, y, rng):
            return margin_sigmoid_ce(x, y, m)
    else:
        raise ValueError(f"unknown loss {loss_name!r}")
    return x.ravel(), loss(x, labels, np.random.default_rng(trial_seed)).grad.ravel(), \
        _stacked_values(loss, x, labels, trial_seed)


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
    """Serialize a model to .npz: n_layers, W{i} and b{i} per layer, and head_W if any."""
    arrays = {"n_layers": np.array(len(model.layers))}
    for i, layer in enumerate(model.layers):
        arrays[f"W{i}"], arrays[f"b{i}"] = layer.W, layer.b
    if model.head_W is not None:
        arrays["head_W"] = model.head_W
    np.savez(path, **arrays)


def _finite_floats(a) -> bool:
    return a.dtype.kind == "f" and bool(np.isfinite(a).all())


def load_model(path) -> MlpModel:
    """Read a save_model file; a ValueError names the path and the first bad entry.

    Older files also hold a seed, which is ignored, and activations, which must
    read relu for every layer but an identity last: the network these layers apply.
    """
    try:
        with np.lib.npyio.NpzFile(path) as data:  # pickled members are refused
            arrays = {key: np.asarray(data[key]) for key in data.files}
    except Exception as exc:  # a damaged archive raises many types: zipfile's, zlib's, numpy's
        raise ValueError(f"{path}: not a readable npz archive ({exc})") from None
    n = arrays.get("n_layers", np.array(0))
    if n.shape != () or n.dtype.kind not in "iu" or n < 1:
        raise ValueError(f"{path}: n_layers must be a positive integer scalar")
    layers, width = [], None  # width: the previous layer's output size
    for i in range(int(n)):
        W, b = arrays.get(f"W{i}", np.empty(0)), arrays.get(f"b{i}", np.empty(0))
        if W.ndim != 2 or not W.size or not _finite_floats(W) or width not in (None, W.shape[1]):
            raise ValueError(f"{path}: W{i} must be a non-empty 2-D array of finite floats"
                             + (f" with {width} columns" if width else ""))
        if b.shape != W.shape[:1] or not _finite_floats(b):
            raise ValueError(f"{path}: b{i} must be a vector of {W.shape[0]} finite floats")
        layers.append(Layer(W, b))
        width = W.shape[0]
    head = arrays.get("head_W")
    if head is not None and (head.ndim != 2 or not _finite_floats(head) or head.shape[1] != width):
        raise ValueError(f"{path}: head_W must be a 2-D array of finite floats, {width} columns")
    acts = ["relu"] * (len(layers) - 1) + ["identity"]  # what these layers apply
    if arrays.get("activations", np.array(acts)).tolist() != acts:
        raise ValueError(f"{path}: activations must be relu for every layer but an identity last")
    return MlpModel(layers, head)
