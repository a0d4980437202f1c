"""Command-line interface.

Subcommands: refcheck, gradcheck, train, eval, retrieval-eval, enroll, auth.
Exit codes: 0 success (auth: Accepted), 1 failed check (train: a rising
embedding loss, a non-finite loss or model output, or an embedding or head
row that cannot be normalized) or non-accepted outcome, 2 usage error
(argparse or ConfigError), 3 unreadable or malformed input/output files
(enroll, auth: also a model output that is not finite).
Every subcommand is deterministic (train and gradcheck for a fixed --seed):
reruns produce byte-identical primary output files.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .angular import LossConfig
from .metrics import (
    RankedQuery,
    ScoredPairs,
    _eer_grid,
    _eer_on_sweep,
    auc,
    eer,  # noqa: F401  (not called here; the traced benchmark wraps cotface.cli.eer)
    equal_edges,
    far_frr_sweep,
    gap,
    histogram,
    histogram_to_csv,
    map_at_100,
    sweep_to_csv,
)
from .pipeline import (
    AuthConfig,
    AuthScorers,
    Gallery,
    authenticate,
    bilinear_resize,
    enroll,
    load_gallery,
    read_pgm,
    save_gallery,
    sharpness_gate,
)
from .reference import run_reference_checks
from .train import (
    GRADCHECK_LOSSES,
    ConfigError,
    SynthSpec,
    TASKS,
    TrainingDivergedError,
    forward,
    gradcheck,
    init_embedding_model,
    load_model,
    save_model,
    train_loop,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

_TOY_SIDE = 16  # the toy embedder consumes 16x16 crops flattened to 256 features


def _add_loss_config_flags(parser):
    """One flag per LossConfig field, defaulting to the field's default."""
    group = parser.add_argument_group("loss configuration")
    for f in fields(LossConfig):
        if f.name == "log_base":
            group.add_argument("--log-base", choices=("natural", "ten"), default=f.default)
        else:
            group.add_argument(f"--{f.name}", type=float, default=f.default,
                               help={"s": "logit scale", "m": "single margin"}.get(f.name))


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser: no flag is read from a prefix of its name; args.run is the handler."""
    parser = argparse.ArgumentParser(
        prog="cotface",
        description="Angular margin losses, desk-scale training, and face authentication.",
        allow_abbrev=False,
    )
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_abbrev)

    p = sub.add_parser("refcheck", help="replay the frozen reference-batch loss values")
    p.set_defaults(run=_cmd_refcheck)

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    p.add_argument("--loss", choices=GRADCHECK_LOSSES + ("all",), default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_gradcheck)

    p = sub.add_parser("train", help="train a toy model on a synthetic set")
    p.add_argument("--task", choices=TASKS, default="embedding")
    p.add_argument("--loss", required=True,
                   help="angular loss name, or margin-ce[+double] for binary tasks")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--spread", type=float, default=0.1)
    p.add_argument("--hidden", type=int, nargs="*", default=[32, 32])
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--save-model", default=None, help="optional .npz model path")
    _add_loss_config_flags(p)
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("eval", help="EER/AUC/histograms from a label,score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=int, default=20)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("retrieval-eval", help="mAP@100 and GAP from a ranked file")
    p.add_argument("--ranked", required=True,
                   help="lines query,rank,correct,confidence")
    p.add_argument("--out", required=True)
    p.add_argument("--gallery-queries", type=int, default=None,
                   help="M normalizer for GAP (default: distinct queries)")
    p.set_defaults(run=_cmd_retrieval_eval)

    p = sub.add_parser("enroll", help="enroll face images into a gallery")
    p.add_argument("--gallery", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("images", nargs="+", help="PGM face images")
    p.add_argument("--model", default=None, help="embedder .npz (default: fixed toy)")
    p.set_defaults(run=_cmd_enroll)

    p = sub.add_parser("auth", help="authenticate one frame against a gallery")
    p.add_argument("--gallery", required=True)
    p.add_argument("frame", help="PGM frame")
    p.add_argument("--model", default=None, help="embedder .npz (default: fixed toy)")
    p.add_argument("--sim-threshold", type=float, default=AuthConfig.sim_threshold)
    p.set_defaults(run=_cmd_auth)

    return parser


# --- toy scorers -------------------------------------------------------------

def _toy_embedder(model_path=None):
    """Face crop -> unit embedding via a fixed (seed 0) MLP, or the one saved at model_path."""
    model = load_model(model_path) if model_path else init_embedding_model(
        _TOY_SIDE * _TOY_SIDE, n_classes=2, hidden=(64,), embed_dim=32, seed=0)
    in_dim = model.layers[0].W.shape[1]
    if in_dim != _TOY_SIDE * _TOY_SIDE:
        raise ValueError(f"{model_path}: embedder expects "
                         f"{_TOY_SIDE * _TOY_SIDE} inputs, model has {in_dim}")

    def embed(crop):
        small = bilinear_resize(crop, _TOY_SIDE, _TOY_SIDE)
        return forward(model, (small.pixels / 255.0).reshape(1, -1))[0][0]

    return embed


class _BrightnessScorer:
    """Cascade stand-in: confidence = mean crop brightness / 255.

    Stage 3 reports canonical landmark positions (eyes level at 35% height).
    """

    _LANDMARKS = np.array([
        [0.30, 0.35], [0.70, 0.35],  # eyes
        [0.50, 0.55],                # nose
        [0.35, 0.75], [0.65, 0.75],  # mouth corners
    ])

    def stage1(self, crops, boxes):
        return crops.reshape(len(crops), -1).mean(axis=1) / 255.0

    stage2 = stage1

    def stage3(self, crops, boxes):
        return self.stage1(crops, boxes), np.broadcast_to(
            self._LANDMARKS, (len(crops),) + self._LANDMARKS.shape)


def _default_scorers(model_path=None) -> AuthScorers:
    return AuthScorers(
        detector=_BrightnessScorer(),
        spoof=lambda frame: 0.0,  # stand-in: treat every frame as live
        embedder=_toy_embedder(model_path),
        eye_closed=lambda crop: 0.0,  # stand-in: treat eyes as open
    )


# --- subcommands -------------------------------------------------------------

def _write_metrics(path, items):
    """Write (name, value) pairs as a metric,value table, each value as %.17g."""
    path.write_text("metric,value\n" + "".join(f"{k},{v:.17g}\n" for k, v in items))


def _cmd_refcheck(args) -> int:
    results = run_reference_checks()
    failed = False
    for r in results:
        delta = abs(r.computed - r.expected)
        status = "PASS" if r.passed else "FAIL"
        failed |= not r.passed
        print(f"{r.name:<12} expected {r.expected:<8.4f} computed {r.computed:<12.6f} "
              f"|delta| {delta:.2e}  {status}")
    print("all reference checks passed" if not failed else "reference check FAILED")
    return EXIT_FAILED if failed else EXIT_OK


def _cmd_gradcheck(args) -> int:
    names = GRADCHECK_LOSSES if args.loss == "all" else (args.loss,)
    failed = False
    for name in names:
        report = gradcheck(name, trials=args.trials, seed=args.seed)
        ok = report.passed()
        failed |= not ok
        status = "PASS" if ok else "FAIL"
        print(f"{name:<18} max_rel_err {report.max_rel_err:.3e}  {status}")
        if not ok:
            print(f"  worst: {report.worst}")
    return EXIT_FAILED if failed else EXIT_OK


def _cmd_train(args) -> int:
    # glibc keeps what a step frees (a few (N, C) arrays) instead of faulting it in again each step
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD: blocks up to 32 MB come from the heap
        libc.mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD: up to 64 MB of it may stay free
    spec = SynthSpec(task=args.task, n_classes=args.classes, dim=args.dim,
                     per_class=args.per_class, intra_spread=args.spread,
                     seed=args.seed)
    cfg = LossConfig(**{f.name: getattr(args, f.name) for f in fields(LossConfig)})
    model, report = train_loop(
        spec, args.loss, cfg, steps=args.steps, lr=args.lr, seed=args.seed,
        hidden=tuple(args.hidden), embed_dim=args.embed_dim,
        batch_size=args.batch_size,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(
        "step,loss\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(report.loss_curve)))
    _write_metrics(out / "metrics.csv", sorted(report.metrics.items()))
    steps = enumerate(zip(report.loss_curve, report.wall_ms))
    (out / "steps.log").write_text(
        "step,loss,wall_ms\n" + "".join(f"{i},{v:.17g},{ms:.3f}\n" for i, (v, ms) in steps))
    if args.save_model:
        save_model(model, args.save_model)
    for k, v in sorted(report.metrics.items()):
        print(f"{k} {v:.6f}")
    first, last = report.loss_curve[0], report.loss_curve[-1]
    print(f"loss {first:.6f} -> {last:.6f} ({args.steps} steps, {report.wall_time_s:.2f}s)")
    # a binary task's per-step loss is a random minibatch's, so only embedding runs are judged
    if args.task == "embedding" and last > first:
        print(f"diverged: loss rose from {first:.6f} to {last:.6f}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


_IS_GENUINE = {"1": True, "genuine": True, "0": False, "impostor": False}


def _data_lines(path):
    """(lineno, stripped line) for each text-mode line of path that is
    neither blank nor a "#" comment; errors name it as path:lineno."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _read_scores_file(path) -> ScoredPairs:
    """Parse label,score lines.

    Text mode ends lines at "\n", "\r\n" and "\r" alike.  A line is blank,
    a comment (its stripped form starts with "#"), or "label,score" with one
    comma, a label of 1/genuine or 0/impostor in any case, and a finite
    score that Python's float accepts; a ValueError names the first other
    line as path:lineno.  A plain file, whose bytes are all in
    "0123456789+-.eE,\n", that ends in "\n" and whose every line is "0," or
    "1," and a score, is read whole: its labels from the bytes, its scores
    by one np.loadtxt call.  Any other file, or a plain one that loadtxt
    refuses or reads as non-finite, goes line by line with the same result.
    """
    data = Path(path).read_bytes()
    raw, scores = np.frombuffer(data, dtype=np.uint8), None  # raw is a view of data
    if data.endswith(b"\n") and not data.translate(None, b"0123456789+-.eE,\n"):
        starts = np.r_[0, np.flatnonzero(raw[:-1] == ord("\n")) + 1]
        labels = raw[starts]
        # every line starts with a label byte, so starts + 1 is inside the file
        if ((labels == ord("0")) | (labels == ord("1"))).all() \
                and (raw[starts + 1] == ord(",")).all() \
                and np.count_nonzero(raw == ord(",")) == starts.size:
            try:
                scores = np.loadtxt(path, delimiter=",", usecols=1, comments=None, ndmin=1)
            except ValueError:
                pass
    if scores is not None and np.isfinite(scores).all():
        genuine, impostor = scores[labels == ord("1")], scores[labels == ord("0")]
    else:
        genuine, impostor = [], []
        for lineno, line in _data_lines(path):
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'label,score'")
            label = parts[0].strip().lower()
            try:
                score = float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if label not in _IS_GENUINE:
                raise ValueError(f"{path}:{lineno}: unknown label {label!r}")
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: non-finite score {parts[1]!r}")
            (genuine if _IS_GENUINE[label] else impostor).append(score)
        genuine, impostor = np.array(genuine), np.array(impostor)
    if not genuine.size or not impostor.size:
        raise ValueError(f"{path}: need at least one genuine and one impostor score")
    return ScoredPairs(genuine=genuine, impostor=impostor)


def _cmd_eval(args) -> int:
    pairs = _read_scores_file(args.scores)
    grid = _eer_grid(pairs)  # before the sort: which of 0.0 and -0.0 np.unique keeps follows it
    pairs.genuine.sort()  # once, so no metric below sorts a set again
    pairs.impostor.sort()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep = far_frr_sweep(pairs, grid)
    eer_value, eer_threshold = _eer_on_sweep(sweep)
    auc_value = auc(pairs)
    (out / "far_frr.csv").write_text(sweep_to_csv(sweep[1:-1]))
    lo, hi = float(sweep[1, 0]), float(sweep[-2, 0])  # the grid's lowest and highest score
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    # widen until every bin has width (above 2**53 the 0.5 vanishes; a few float steps are too few)
    step = math.ulp(max(abs(lo), abs(hi)))
    while lo == hi or equal_edges(lo, hi, args.bins) is None:
        lo, hi = max(lo - step, -sys.float_info.max), min(hi + step, sys.float_info.max)
        step *= 2
    gen_counts, edges = histogram(pairs.genuine, args.bins, (lo, hi))
    imp_counts, _ = histogram(pairs.impostor, args.bins, (lo, hi))
    (out / "histogram.csv").write_text(
        histogram_to_csv({"genuine": gen_counts, "impostor": imp_counts}, edges))
    _write_metrics(out / "summary.csv",
                   [("eer", eer_value), ("eer_threshold", eer_threshold), ("auc", auc_value)])
    print(f"eer {eer_value:.6f} at threshold {eer_threshold:.6f}")
    print(f"auc {auc_value:.6f}")
    return EXIT_OK


def _read_ranked_file(path):
    """Parse query,rank,correct,confidence lines (query order preserved).

    Blank and "#" lines are skipped.  Every other line has four fields: a
    query, an integer rank >= 1 that is unique within its query, correct 0 or
    1, and a finite confidence, and a query's ranks must be exactly 1..k; a
    ValueError names the first line that breaks this as path:lineno (for a
    gap, the rank after it).  Returns the queries, then each query's rank-1 confidence and flag.
    """
    per_query: dict = {}
    for lineno, line in _data_lines(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'query,rank,correct,confidence'")
        try:
            query, rank, correct, conf = parts[0], int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        entries = per_query.setdefault(query, {})
        if rank < 1:
            raise ValueError(f"{path}:{lineno}: rank must be >= 1, got {rank}")
        if rank in entries:
            raise ValueError(f"{path}:{lineno}: rank {rank} repeats within query {query!r}")
        if correct not in (0, 1):
            raise ValueError(f"{path}:{lineno}: correct must be 0 or 1")
        if not math.isfinite(conf):
            raise ValueError(f"{path}:{lineno}: non-finite confidence {parts[3]!r}")
        entries[rank] = (correct, conf, lineno)
    if not per_query:
        raise ValueError(f"{path}: no predictions")
    queries, top = [], []
    for query, entries in per_query.items():
        for k, rank in enumerate(sorted(entries), 1):
            if rank != k:
                raise ValueError(f"{path}:{entries[rank][2]}: query {query!r} skips rank {k}")
        ranked = [entries[rank] for rank in sorted(entries)]
        rel = np.array([c for c, _, _ in ranked])
        # the file carries no relevant-item counts; use the correct count
        queries.append(RankedQuery(rel=rel, num_relevant=int(rel.sum())))
        top.append(ranked[0])
    return queries, np.array([conf for _, conf, _ in top]), np.array([c for c, _, _ in top])


def _cmd_retrieval_eval(args) -> int:
    queries, confidences, correct = _read_ranked_file(args.ranked)
    num_in_gallery = args.gallery_queries or len(queries)
    if num_in_gallery < correct.sum():
        raise ConfigError(f"--gallery-queries must be >= {correct.sum()}, the queries whose "
                          f"top prediction is correct, got {num_in_gallery}")
    map_value = map_at_100(queries)
    gap_value = gap(confidences, correct, num_in_gallery)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_metrics(out / "retrieval_metrics.csv", [("map_at_100", map_value), ("gap", gap_value)])
    print(f"map_at_100 {map_value:.6f}")
    print(f"gap {gap_value:.6f}")
    return EXIT_OK


def _cmd_enroll(args) -> int:
    gallery_path = Path(args.gallery)
    gallery = load_gallery(gallery_path) if gallery_path.exists() else Gallery()
    embed = _toy_embedder(args.model)
    any_rejected = False
    for image_path in args.images:
        img = read_pgm(image_path)
        ok, edges = sharpness_gate(img)
        result = enroll(gallery, args.name, embed(img), sharpness_ok=ok)
        if result.accepted:
            print(f"enrolled {args.name} from {image_path} "
                  f"({result.count}/5, edges {edges})")
        else:
            any_rejected = True
            print(f"rejected {image_path}: {result.reason} (edges {edges})")
    save_gallery(gallery, gallery_path)
    return EXIT_FAILED if any_rejected else EXIT_OK


_VERDICT_LINES = {  # AuthOutcome kind -> the line auth prints, from the outcome's fields
    "accepted": "accepted identity={identity} similarity={similarity:.6f}",
    "stranger": "stranger best_similarity={similarity:.6f}",
    "invalid_face": "invalid_face spoof_score={spoof_score:.6f}",
    "eyes_closed": "eyes_closed identity={identity}",
    "no_face": "no_face",
}


def _cmd_auth(args) -> int:
    frame = read_pgm(args.frame)  # first: an unreadable frame costs no gallery load
    gallery = load_gallery(args.gallery)
    scorers = _default_scorers(args.model)
    outcome = authenticate(frame, gallery, scorers, AuthConfig(sim_threshold=args.sim_threshold))
    print(_VERDICT_LINES[outcome.kind].format(**vars(outcome)))
    return EXIT_OK if outcome.kind == "accepted" else EXIT_FAILED


# the least value each integer flag can work with (every --hidden entry is checked)
_MINIMUMS = dict(seed=0, steps=1, trials=1, hidden=1, embed_dim=1, batch_size=1, bins=1,
                 gallery_queries=1)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            flag = f"--{name.replace('_', '-')}"
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")
            for v in value if name == "hidden" else [value]:
                if name in _MINIMUMS and v is not None and v < _MINIMUMS[name]:
                    raise ConfigError(f"{flag} must be >= {_MINIMUMS[name]}, got {v}")
        return args.run(args)
    except TrainingDivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
