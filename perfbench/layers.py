"""Where the traced run wraps the program, and the per-layer metrics it reports.

Each function is wrapped at the name its caller looks it up: the CLI's
module globals for what a subcommand calls, the pipeline/train/metrics
module globals for calls between layers, the `cotface.pipeline` package for
the identify workload's own calls, and the `ANGULAR_LOSSES` registry entries
for the losses.  A layer's `_ms` metric is its summed self time per op;
`_calls` and the other counts are per op too.
"""

from __future__ import annotations

import dataclasses

CLI_WORKLOADS = ("auth", "train", "eval")  # the workloads that call cotface.cli.main


def _span(name, count=None, before=None):
    def factory(tracer, fn):
        return tracer.wrap(fn, name, count, before(tracer) if before else None)
    return factory


def _counter(metric):
    def factory(tracer, fn):
        return tracer.counter(fn, metric)
    return factory


def _scorers_wrapped(tracer):
    """before-hook for authenticate(frame, gallery, scorers, ...): time the
    spoof, embed and eye-closed scorers it receives."""

    def before(args, kwargs):
        frame, gallery, scorers, *rest = args
        scorers = dataclasses.replace(
            scorers,
            spoof=tracer.wrap(scorers.spoof, "auth.spoof"),
            embedder=tracer.wrap(scorers.embedder, "auth.embed"),
            eye_closed=tracer.wrap(scorers.eye_closed, "auth.eyes"),
        )
        return (frame, gallery, scorers, *rest), kwargs

    return before


def _nms_counts(kept, boxes, iou_threshold):
    return {"detect.nms_boxes_in": len(boxes), "detect.nms_boxes_kept": len(kept)}


def _match_counts(result, gallery, *args, **kwargs):
    return {"gallery.match_embeddings_scanned": gallery.total_embeddings()}


def _scores_counts(result, pairs):
    return {"metrics.scores_in": pairs.genuine.size + pairs.impostor.size}


def _grid_counts(sweep, pairs, thresholds):
    return {"metrics.grid_points": len(sweep)}


TARGETS = (
    # what the CLI subcommands call
    ("cotface.cli", "main", _span("cli.main")),
    ("cotface.cli", "load_gallery", _span("gallery.load_gallery")),
    ("cotface.cli", "save_gallery", _span("gallery.save_gallery")),
    ("cotface.cli", "enroll", _span("gallery.enroll")),
    ("cotface.cli", "read_pgm", _span("image.read_pgm")),
    ("cotface.cli", "authenticate", _span("auth.authenticate", before=_scorers_wrapped)),
    ("cotface.cli", "bilinear_resize", _counter("image.bilinear_resize_calls")),
    ("cotface.cli", "gradcheck", _span("train.gradcheck")),
    ("cotface.cli", "train_loop", _span("train.train_loop")),
    ("cotface.cli", "eer", _span("metrics.eer", count=_scores_counts)),
    ("cotface.cli", "auc", _span("metrics.auc")),
    ("cotface.cli", "far_frr_sweep", _span("metrics.far_frr_sweep", count=_grid_counts)),
    ("cotface.cli", "sweep_to_csv", _span("metrics.sweep_to_csv")),
    ("cotface.cli", "histogram", _span("metrics.histogram")),
    # calls between layers
    ("cotface.pipeline.auth", "detect", _span("detect.detect")),
    ("cotface.pipeline.auth", "align", _span("detect.align")),
    ("cotface.pipeline.auth", "match", _span("gallery.match", count=_match_counts)),
    ("cotface.pipeline.detect", "image_pyramid", _span("image.image_pyramid")),
    ("cotface.pipeline.detect", "nms", _span("detect.nms", count=_nms_counts)),
    ("cotface.pipeline.detect", "bilinear_resize", _counter("image.bilinear_resize_calls")),
    ("cotface.pipeline.image", "bilinear_resize", _counter("image.bilinear_resize_calls")),
    ("cotface.train", "forward", _span("train.forward")),
    ("cotface.train", "backward", _span("train.backward")),
    ("cotface.train", "sgd_step", _span("train.sgd_step")),
    ("cotface.train", "eer", _span("metrics.eer")),
    ("cotface.losses:ANGULAR_LOSSES", "*", _span("losses.loss")),
    ("cotface.metrics", "far_frr_sweep", _span("metrics.far_frr_sweep")),
    # the identify workload's own calls into the gallery API
    ("cotface.pipeline", "enroll", _span("gallery.enroll")),
    ("cotface.pipeline", "match", _span("gallery.match", count=_match_counts)),
    ("cotface.pipeline", "save_gallery", _span("gallery.save_gallery")),
    ("cotface.pipeline", "load_gallery", _span("gallery.load_gallery")),
)

SPANS = sorted({
    "gallery.load_gallery", "gallery.save_gallery", "gallery.enroll", "gallery.match",
    "image.read_pgm", "image.image_pyramid",
    "auth.authenticate", "auth.spoof", "auth.embed", "auth.eyes",
    "detect.detect", "detect.align", "detect.nms",
    "train.gradcheck", "train.train_loop", "train.forward", "train.backward",
    "train.sgd_step", "losses.loss",
    "metrics.eer", "metrics.auc", "metrics.far_frr_sweep", "metrics.sweep_to_csv",
    "metrics.histogram",
})
CALLS = ("detect.nms", "gallery.enroll", "gallery.match", "losses.loss")
COUNTS = ("detect.nms_boxes_in", "detect.nms_boxes_kept", "image.bilinear_resize_calls",
          "gallery.match_embeddings_scanned", "metrics.scores_in", "metrics.grid_points")

# every per-layer metric, in BENCHMARK.json order, with its unit
METRICS = (
    [(f"{s}_ms", "ms") for s in SPANS]
    + [(f"cli.{w}_self_ms", "ms") for w in CLI_WORKLOADS]
    + [(f"{c}_calls", "count") for c in CALLS]
    + [(c, "count") for c in COUNTS]
    + [("trace.op_ms", "ms"), ("trace.untraced_op_ms", "ms"), ("trace.overhead_ms", "ms"),
       ("trace.unattributed_pct", "%")]
)


def per_layer_metrics(tracer, workload, ops, untraced_op_ms, setup_metrics, n_setups):
    """Every per-layer metric for one traced run: per op over the traced ops,
    except the workload's set-up metrics, which are per set-up."""
    self_s, calls, counts = tracer.totals(ops)
    setup_self_s, _, _ = tracer.totals(["setup"])
    n = len(ops)
    op_s = self_s.pop("op")
    unknown = set(self_s) - set(SPANS) - {"cli.main"}
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    values = {}
    for span in SPANS:
        metric = f"{span}_ms"
        if metric in setup_metrics:
            values[metric] = setup_self_s.get(span, 0.0) * 1e3 / n_setups
        else:
            values[metric] = self_s.get(span, 0.0) * 1e3 / n
    for w in CLI_WORKLOADS:
        values[f"cli.{w}_self_ms"] = self_s.get("cli.main", 0.0) * 1e3 / n if w == workload else 0.0
    for c in CALLS:
        values[f"{c}_calls"] = calls.get(c, 0) / n
    for c in COUNTS:
        values[c] = counts.get(c, 0) / n
    op_ms = (op_s + sum(self_s.values())) * 1e3 / n
    values["trace.op_ms"] = op_ms
    values["trace.untraced_op_ms"] = untraced_op_ms
    values["trace.overhead_ms"] = op_ms - untraced_op_ms
    values["trace.unattributed_pct"] = 100.0 * op_s * 1e3 / n / op_ms
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
