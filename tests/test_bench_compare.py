"""tools/bench_compare.py: folding parent and change benchmark records."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_compare  # noqa: E402


def _record(path, workload, seed, op_ms, rss, commit="abc", failed=0):
    record = {
        "workload": workload, "seed": seed, "seconds": 18.0, "trace": 0,
        "machine": {"nproc": 2, "numpy": "x", "git_commit": commit},
        "wall_op_ms_median": 2.0 * op_ms, "correct": failed == 0,
        "attempted": 10, "failed": failed,
        "metrics": {"op_ms": {"value": op_ms, "unit": "ms"},
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
