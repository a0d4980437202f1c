"""The benchmark's references agree with the slow oracles of tests/oracles.py,
and its checks reject corrupted outputs.

    python3 -m pytest -q perfbench/test_reference.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import reference  # noqa: E402
from oracles import auc_pairwise, eer_exhaustive  # noqa: E402


def _scores(rng, decimals):
    n_gen, n_imp = rng.integers(1, 30, size=2)
    genuine = np.round(rng.normal(0.6, 0.2, n_gen), decimals)
    impostor = np.round(rng.normal(0.3, 0.2, n_imp), decimals)
    return genuine, impostor


@pytest.mark.parametrize("decimals", [1, 2, 6])
def test_eer_and_auc_agree_with_oracles(decimals):
    rng = np.random.default_rng(decimals)
    for _ in range(200):
        genuine, impostor = _scores(rng, decimals)
        got, want = reference.eer_reference(genuine, impostor), eer_exhaustive(genuine, impostor)
        assert got == pytest.approx(want, abs=1e-12)
        assert reference.auc_reference(genuine, impostor) == pytest.approx(
            auc_pairwise(genuine, impostor), abs=1e-12)


def test_rates_match_direct_counts():
    rng = np.random.default_rng(0)
    genuine, impostor = _scores(rng, 1)
    grid, far, frr = reference.rates_at_unique(genuine, impostor)
    for t, a, r in zip(grid, far, frr):
        assert a == np.count_nonzero(impostor >= t) / impostor.size
        assert r == np.count_nonzero(genuine < t) / genuine.size


def test_match_is_the_first_best_row():
    rng = np.random.default_rng(1)
    rows = reference.unit_rows(rng.standard_normal((20, 8)))
    rows[13] = rows[4]  # a tie: the earlier row wins
    names = [f"n{i // 5}" for i in range(20)]
    for probe in [rows[4] * 3.0] + list(rng.standard_normal((50, 8))):
        sims = [float(np.dot(r, probe / np.linalg.norm(probe))) for r in rows]
        best = max(range(20), key=lambda i: (sims[i], -i))
        identity, sim = reference.match_reference(rows, names, probe, 0.5)
        assert sim == pytest.approx(sims[best], abs=1e-12)
        assert identity == (names[best] if sims[best] >= 0.5 else None)
    assert reference.match_reference(rows, names, rows[4], 0.5)[0] == "n0"


def test_check_match_rejects_a_wrong_identity_or_similarity():
    assert reference.check_match(("a", 0.9), ("a", 0.9), "a") == []
    assert reference.check_match((None, 0.2), (None, 0.2), None) == []
    assert reference.check_match(("b", 0.9), ("a", 0.9), "a")
    assert reference.check_match(("a", 0.9 + 1e-9), ("a", 0.9), "a")
    assert reference.check_match(("a", 0.9), ("a", 0.9), None)  # impostor accepted


def test_check_auth_rejects_wrong_verdicts():
    names = ("ada", "bo")
    assert reference.check_auth(1, "no_face\n", False, names) == []
    assert reference.check_auth(0, "accepted identity=bo similarity=0.981\n", True, names) == []
    assert reference.check_auth(0, "accepted identity=bo similarity=0.98\n", False, names)
    assert reference.check_auth(1, "no_face\n", True, names)
    assert reference.check_auth(0, "accepted identity=distractor001 similarity=0.6\n", True, names)
    assert reference.check_auth(0, "accepted identity=ada similarity=1.000001\n", True, names)
    assert reference.check_auth(1, "stranger best_similarity=0.3\n", True, names)


def _report(losses):
    return "step,loss\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(losses))


def test_check_train_report_rejects_bad_runs():
    metrics = "metric,value\neer_final,0.1\neer_initial,0.2\n"
    good = _report([3.0, 2.0, 1.0])
    assert reference.check_train_report(good, 3, metrics, None) == []
    assert reference.check_train_report(good, 3, metrics, good) == []
    assert reference.check_train_report(_report([3.0, 2.0, 3.5]), 3, metrics, None)
    assert reference.check_train_report(_report([3.0, float("nan"), 1.0]), 3, metrics, None)
    assert reference.check_train_report(good, 4, metrics, None)
    assert reference.check_train_report(good, 3, "metric,value\neer_final,0.2\neer_initial,0.2\n",
                                        None)
    assert reference.check_train_report(good, 3, metrics, _report([3.0, 2.0, 1.0000001]))


def _eval_outputs(genuine, impostor, eer_shift=0.0, far_shift=0.0, drop_count=0):
    eer_value, threshold = eer_exhaustive(genuine, impostor)
    summary = (f"metric,value\neer,{eer_value + eer_shift:.17g}\n"
               f"eer_threshold,{threshold:.17g}\nauc,{auc_pairwise(genuine, impostor):.17g}\n")
    rows = ["threshold,far,frr"]
    for t in np.unique(np.concatenate([genuine, impostor])):
        far = sum(v >= t for v in impostor) / len(impostor) + far_shift
        frr = sum(v < t for v in genuine) / len(genuine)
        rows.append(f"{t:.17g},{far:.17g},{frr:.17g}")
    hist = (f"bin_left,bin_right,genuine,impostor\n0,0.5,0,{len(impostor) - drop_count}\n"
            f"0.5,1,{len(genuine)},0\n")
    return summary, "\n".join(rows) + "\n", hist


def test_check_eval_rejects_shifted_outputs():
    rng = np.random.default_rng(3)
    genuine, impostor = _scores(rng, 1)
    expected = (reference.eer_reference(genuine, impostor),
                reference.auc_reference(genuine, impostor))
    n_unique = np.unique(np.concatenate([genuine, impostor])).size
    rows = np.arange(n_unique)

    def check(**corruption):
        return reference.check_eval(*_eval_outputs(genuine, impostor, **corruption),
                                    genuine, impostor, *expected, rows)

    assert check() == []
    assert check(eer_shift=1e-9)
    assert check(far_shift=1e-6)
    assert check(drop_count=1)
