"""tools/bench_compare.py: folding parent and change benchmark records."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_compare  # noqa: E402


def _record(path, workload, seed, op_ms, rss, commit="abc", failed=0,
            setup_s=2.0, wall_setup_s=(1.0, 1.5, 1.25)):
    record = {
        "workload": workload, "seed": seed, "seconds": 18.0, "trace": 0,
        "machine": {"nproc": 2, "numpy": "x", "git_commit": commit},
        "wall_op_ms_median": 2.0 * op_ms, "correct": failed == 0,
        "wall_import_s": 0.5, "wall_setup_s": list(wall_setup_s),
        "attempted": 10, "failed": failed,
        "metrics": {"op_ms": {"value": op_ms, "unit": "ms"},
                    "setup_s": {"value": setup_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    path.write_text(json.dumps(record))
    return str(path)


def test_medians_quartiles_and_pair_wins(tmp_path):
    parent = [_record(tmp_path / f"p{i}.json", "auth", i, v, 40.0, "p")
              for i, v in enumerate([100.0, 110.0, 120.0, 130.0, 140.0])]
    change = [_record(tmp_path / f"c{i}.json", "auth", i, v, 41.0, "c", failed=i == 4)
              for i, v in enumerate([50.0, 120.0, 60.0, 70.0, 140.0])]
    out = tmp_path / "bench.json"
    assert bench_compare.main(["--label", "t", "--parent", *parent,
                               "--change", *change, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert (result["parent_commit"], result["change_commit"]) == ("p", "c")
    assert result["machine"] == {"nproc": 2, "numpy": "x"}
    auth = result["workloads"]["auth"]
    assert auth["failed_ops"] == {"parent": "0/50", "change": "1/50"}
    op = auth["metrics"]["op_ms"]
    assert op["parent"]["median"] == 120.0
    assert (op["parent"]["q1"], op["parent"]["q3"], op["parent"]["iqr"]) == (110.0, 130.0, 20.0)
    assert op["change"]["median"] == 70.0 and op["ratio"] == 70.0 / 120.0
    assert (op["pairs"], op["pairs_change_better"], op["pairs_change_worse"]) == (5, 3, 1)
    assert op["better"] == "lower" and op["bound"] == 0.25
    assert auth["metrics"]["wall_op_ms_median"]["change"]["median"] == 140.0
    assert auth["metrics"]["peak_rss_mb"]["pairs_change_worse"] == 5
    assert (op["gain_met"], op["within_bound"]) == (False, True)  # 3/5 wins
    assert "within_bound" not in auth["metrics"]["wall_op_ms_median"]  # no bound


def test_raw_setup_wall_beside_the_scaled_setup(tmp_path):
    """wall_setup_s_median is the import wall plus the median raw set-up
    wall; it ranks the sides on its own, even against the scaled setup_s."""
    parent = [_record(tmp_path / f"p{i}.json", "train", i, 100.0, 40.0, "p",
                      setup_s=2.13, wall_setup_s=(1.56, 1.52, 1.49)) for i in range(3)]
    change = [_record(tmp_path / f"c{i}.json", "train", i, 100.0, 40.0, "c",
                      setup_s=2.15, wall_setup_s=(1.28, 1.25, 1.26)) for i in range(3)]
    out = tmp_path / "bench.json"
    assert bench_compare.main(["--label", "t", "--parent", *parent,
                               "--change", *change, "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["train"]["metrics"]
    raw = metrics["wall_setup_s_median"]
    assert raw["parent"]["median"] == 0.5 + 1.52 and raw["change"]["median"] == 0.5 + 1.26
    assert (raw["better"], raw["pairs_change_better"], raw["gain_met"]) == ("lower", 3, True)
    assert "within_bound" not in raw  # no bound
    assert metrics["setup_s"]["pairs_change_worse"] == 3


def _verdicts(tmp_path, parent_ops, change_ops, rss=(40.0, 40.0)):
    parent = [_record(tmp_path / f"p{i}.json", "eval", i, v, rss[0], "p")
              for i, v in enumerate(parent_ops)]
    change = [_record(tmp_path / f"c{i}.json", "eval", i, v, rss[1], "c")
              for i, v in enumerate(change_ops)]
    out = tmp_path / "bench.json"
    assert bench_compare.main(["--label", "t", "--parent", *parent,
                               "--change", *change, "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["eval"]["metrics"]
    return {name: (m["gain_met"], m.get("within_bound")) for name, m in metrics.items()}


@pytest.mark.parametrize("parent_ops,change_ops,op_verdict", [
    # 9/10 wins and a median gap (50) wider than the parent's quartile distance
    ([100, 110, 120, 130, 140, 100, 110, 120, 130, 140],
     [60, 60, 60, 60, 60, 60, 60, 60, 60, 150], (True, True)),
    # 8/10 wins: not a gain
    ([100, 110, 120, 130, 140, 100, 110, 120, 130, 140],
     [60, 60, 60, 60, 60, 60, 60, 60, 150, 150], (False, True)),
    # 10/10 wins but a gap (5) inside the parent's quartile distance (20)
    ([100, 110, 120, 130, 140, 100, 110, 120, 130, 140],
     [95, 105, 115, 125, 135, 95, 105, 115, 125, 135], (False, True)),
    # worse by 25% of the parent median: at the bound; by 26%: past it
    ([100] * 3, [125] * 3, (False, True)),
    ([100] * 3, [126] * 3, (False, False)),
])
def test_gain_and_bound_verdicts(tmp_path, parent_ops, change_ops, op_verdict):
    verdicts = _verdicts(tmp_path, parent_ops, change_ops)
    assert verdicts["op_ms"] == op_verdict
    assert verdicts["wall_op_ms_median"][0] == op_verdict[0]


def test_bound_is_relative_to_the_parent_median(tmp_path):
    verdicts = _verdicts(tmp_path, [100] * 3, [100] * 3, rss=(50.0, 55.5))
    assert verdicts["peak_rss_mb"] == (False, False)  # +11% against a 10% bound
    assert _verdicts(tmp_path, [100] * 3, [100] * 3, rss=(50.0, 54.5))["peak_rss_mb"] == \
        (False, True)


@pytest.mark.parametrize("problem", ["one_sided", "mixed_commits", "other_machine"])
def test_bad_inputs_exit_3(tmp_path, problem):
    parent = [_record(tmp_path / "p.json", "auth", 1, 100.0, 40.0)]
    change = [_record(tmp_path / "c.json", "auth", 1, 50.0, 40.0)]
    if problem == "one_sided":
        change = [_record(tmp_path / "c.json", "eval", 1, 50.0, 40.0)]
    elif problem == "mixed_commits":
        parent.append(_record(tmp_path / "p2.json", "auth", 2, 90.0, 40.0, commit="other"))
    else:
        record = json.loads(Path(change[0]).read_text())
        record["machine"]["nproc"] = 4
        Path(change[0]).write_text(json.dumps(record))
    assert bench_compare.main(["--label", "t", "--parent", *parent, "--change", *change,
                               "--out", str(tmp_path / "o.json")]) == 3
