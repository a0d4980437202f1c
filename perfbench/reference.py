"""Reference computations the benchmark checks the program's outputs against.

Written apart from the library: EER and FAR/FRR come from per-value counts of
the unique scores (cumulative sums) rather than sorted-array searches, AUC
from midranks rather than pairwise counting, and 1:N matching from one
matrix-vector product over the benchmark's own unit-vector matrix.  The
`check_*` functions return a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-12


def rates_at_unique(genuine, impostor):
    """Unique scores padded by one sentinel each side, with FAR and FRR there.

    FAR(t) = share of impostor scores >= t, FRR(t) = share of genuine < t.
    """
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    values, inverse = np.unique(np.concatenate([genuine, impostor]), return_inverse=True)
    n_gen = genuine.size
    gen_counts = np.bincount(inverse[:n_gen], minlength=values.size)
    imp_counts = np.bincount(inverse[n_gen:], minlength=values.size)
    imp_at_or_above = np.concatenate([np.cumsum(imp_counts[::-1])[::-1], [0]])
    gen_below = np.concatenate([[0], np.cumsum(gen_counts)])
    grid = np.concatenate([[values[0] - 1.0], values, [values[-1] + 1.0]])
    far = np.concatenate([[impostor.size], imp_at_or_above]) / impostor.size
    frr = np.concatenate([[0], gen_below]) / n_gen
    return grid, far, frr


def eer_reference(genuine, impostor):
    """(EER, threshold): first FAR - FRR sign change, linearly interpolated."""
    grid, far, frr = rates_at_unique(genuine, impostor)
    diff = far - frr
    hit = (diff[:-1] == 0.0) | ((diff[:-1] > 0.0) & (diff[1:] <= 0.0))
    k = int(np.argmax(hit))
    if not hit[k]:
        raise ValueError("no FAR/FRR crossing")
    if diff[k] == 0.0:
        return float(far[k]), float(grid[k])
    if diff[k + 1] == 0.0:
        return float(far[k + 1]), float(grid[k + 1])
    lam = diff[k] / (diff[k] - diff[k + 1])
    return (float(far[k] + lam * (far[k + 1] - far[k])),
            float(grid[k] + lam * (grid[k + 1] - grid[k])))


def auc_reference(genuine, impostor):
    """Mann-Whitney AUC from midranks of the pooled scores (ties count half)."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    _, inverse, counts = np.unique(np.concatenate([genuine, impostor]),
                                   return_inverse=True, return_counts=True)
    first_rank = np.cumsum(counts) - counts + 1
    midrank = first_rank + (counts - 1) / 2.0
    n_g, n_i = genuine.size, impostor.size
    rank_sum = float(midrank[inverse[:n_g]].sum())
    return (rank_sum - n_g * (n_g + 1) / 2.0) / (n_g * n_i)


def unit_rows(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix / np.sqrt((matrix * matrix).sum(axis=1, keepdims=True))


def match_reference(unit_matrix, row_names, probe, sim_threshold):
    """(identity or None, best similarity); the earliest row wins a tie."""
    probe = np.asarray(probe, dtype=np.float64)
    sims = unit_matrix @ (probe / math.sqrt(float(probe @ probe)))
    best = int(np.argmax(sims))
    sim = float(sims[best])
    return (row_names[best] if sim >= sim_threshold else None), sim


# --- checks ------------------------------------------------------------------

def _close(a, b):
    return abs(a - b) <= TOL


def check_match(result, expected, genuine_name):
    """result/expected: (identity, similarity); genuine_name None for impostors."""
    problems = []
    identity, sim = result
    ref_identity, ref_sim = expected
    if identity != ref_identity:
        problems.append(f"identity {identity!r} != reference {ref_identity!r}")
    if not _close(sim, ref_sim):
        problems.append(f"similarity {sim!r} != reference {ref_sim!r}")
    if identity != genuine_name:
        problems.append(f"identity {identity!r}, probe belongs to {genuine_name!r}")
    return problems


def check_auth(exit_code, stdout, face_expected, enrolled_names):
    """One `cotface auth` call: no_face (exit 1) or accepted (exit 0)."""
    words = stdout.split()
    if not face_expected:
        if exit_code != 1 or words != ["no_face"]:
            return [f"no-face frame gave exit {exit_code}, output {stdout!r}"]
        return []
    if exit_code != 0 or len(words) != 3 or words[0] != "accepted":
        return [f"face frame gave exit {exit_code}, output {stdout!r}"]
    fields = dict(w.split("=", 1) for w in words[1:])
    problems = []
    if fields.get("identity") not in enrolled_names:
        problems.append(f"accepted identity {fields.get('identity')!r} was not enrolled from a face")
    try:
        sim = float(fields.get("similarity", "nan"))
    except ValueError:
        sim = math.nan
    if not sim <= 1.0:
        problems.append(f"similarity {fields.get('similarity')!r} is not at most 1")
    return problems


def check_train_report(report_text, steps, metrics_text, first_report_text):
    """report.csv (header plus one loss per step) and metrics.csv of one
    `cotface train` call; report.csv must equal the first with the same seed."""
    problems = []
    lines = report_text.splitlines()
    if len(lines) != steps + 1 or lines[0] != "step,loss":
        return [f"report.csv has {len(lines)} lines, expected header plus {steps}"]
    losses = []
    for i, line in enumerate(lines[1:]):
        step, value = line.split(",")
        if int(step) != i:
            problems.append(f"report.csv row {i} is step {step}")
        losses.append(float(value))
    if not all(math.isfinite(v) for v in losses):
        problems.append("report.csv holds a non-finite loss")
    elif not losses[-1] < losses[0]:
        problems.append(f"loss did not fall: {losses[0]!r} -> {losses[-1]!r}")
    metrics = dict(line.split(",") for line in metrics_text.splitlines()[1:])
    if not float(metrics["eer_final"]) < float(metrics["eer_initial"]):
        problems.append(f"eer did not fall: {metrics['eer_initial']} -> {metrics['eer_final']}")
    if first_report_text is not None and report_text != first_report_text:
        problems.append("report.csv differs from the first run with the same seed")
    return problems


def read_csv_floats(text):
    """Rows of a CSV with a header line, as a float array."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return np.array(rows, dtype=np.float64)


def check_eval(summary_text, far_frr_text, histogram_text, genuine, impostor,
               expected_eer, expected_auc, sample_rows):
    """`cotface eval` outputs against the reference EER/AUC and direct counts."""
    problems = []
    summary = dict(line.split(",") for line in summary_text.splitlines()[1:])
    eer_value, threshold = expected_eer
    for key, ref in (("eer", eer_value), ("eer_threshold", threshold), ("auc", expected_auc)):
        if not _close(float(summary[key]), ref):
            problems.append(f"{key} {summary[key]} != reference {ref!r}")
    sweep = read_csv_floats(far_frr_text)
    n_unique = np.unique(np.concatenate([genuine, impostor])).size
    if sweep.shape != (n_unique, 3):
        problems.append(f"far_frr.csv has shape {sweep.shape}, expected ({n_unique}, 3)")
        return problems
    for row in sweep[sample_rows]:
        t, far, frr = row
        far_ref = np.count_nonzero(impostor >= t) / impostor.size
        frr_ref = np.count_nonzero(genuine < t) / genuine.size
        if not (_close(far, far_ref) and _close(frr, frr_ref)):
            problems.append(f"far_frr.csv row at {t!r}: ({far!r}, {frr!r}) "
                            f"!= counted ({far_ref!r}, {frr_ref!r})")
    hist = read_csv_floats(histogram_text)
    if hist[:, 2].sum() != genuine.size or hist[:, 3].sum() != impostor.size:
        problems.append(f"histogram counts sum to ({hist[:, 2].sum()}, {hist[:, 3].sum()}), "
                        f"expected ({genuine.size}, {impostor.size})")
    return problems
