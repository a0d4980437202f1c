"""Fold perfbench result records of a parent and a change into one file.

    python3 tools/bench_compare.py --label NAME \
        --parent P1.json P2.json ... --change C1.json C2.json ... --out BENCH_NAME.json

Each record is one `perfbench/out/result-*.json` (one run of one workload;
copy it aside after each run, because perfbench overwrites it).  Records may
mix workloads; they are grouped by workload, and the i-th parent and i-th
change record of a workload form pair i, so pass them in the order they ran.

Per workload and metric (every entry of a record's `metrics`, plus the raw
`wall_op_ms_median`), the output gives each side's run values, median,
quartiles and quartile distance, the change/parent ratio of the medians, and
how many pairs the change wins (ties count for neither side).  The better
direction and the regression bound come from BENCHMARK.json.  It also records
the runs' machine block, both commits and the failed-op counts.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_OP = "wall_op_ms_median"  # unscaled wall time, kept beside the scaled op_ms


def spread(values):
    """Median, quartiles and quartile distance of a list of numbers."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def metric_specs(benchmark):
    """name -> {"better", "bound"?} for every metric BENCHMARK.json declares."""
    specs = {m["name"]: {"better": m["better"], "bound": m["bound"]}
             for m in benchmark.get("end_to_end", [])}
    for m in benchmark.get("per_layer", []):
        specs[m["name"]] = {"better": m["better"]}
    specs[RAW_OP] = {"better": "lower"}
    return specs


def record_values(record):
    values = {name: m["value"] for name, m in record["metrics"].items()}
    if RAW_OP in record:
        values[RAW_OP] = record[RAW_OP]
    return values


def side_commit(records, side):
    commits = {r.get("machine", {}).get("git_commit") for r in records}
    if len(commits) != 1:
        raise ValueError(f"{side} records come from several commits: {sorted(map(str, commits))}")
    return commits.pop()


def compare(parent, change, specs):
    """The per-workload comparison of two lists of result records."""
    out = {}
    for workload in sorted({r["workload"] for r in parent + change}):
        sides = {"parent": [r for r in parent if r["workload"] == workload],
                 "change": [r for r in change if r["workload"] == workload]}
        if not all(sides.values()):
            raise ValueError(f"workload {workload}: need records on both sides")
        values = {side: [record_values(r) for r in recs] for side, recs in sides.items()}
        names = sorted(set.intersection(*(set(v) for vals in values.values() for v in vals)))
        metrics = {}
        for name in names:
            p = [v[name] for v in values["parent"]]
            c = [v[name] for v in values["change"]]
            entry = {**specs.get(name, {}), "parent": spread(p), "change": spread(c)}
            pm = entry["parent"]["median"]
            entry["ratio"] = entry["change"]["median"] / pm if pm else None
            better = entry.get("better")
            if better in ("lower", "higher"):
                sign = 1.0 if better == "lower" else -1.0
                entry["pairs"] = min(len(p), len(c))
                entry["pairs_change_better"] = sum(sign * (a - b) > 0 for a, b in zip(p, c))
                entry["pairs_change_worse"] = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            metrics[name] = entry
        out[workload] = {
            "runs": {side: len(recs) for side, recs in sides.items()},
            "seeds": {side: [r["seed"] for r in recs] for side, recs in sides.items()},
            "seconds": sorted({r["seconds"] for recs in sides.values() for r in recs}),
            "failed_ops": {side: f"{sum(r['failed'] for r in recs)}/"
                                 f"{sum(r['attempted'] for r in recs)}"
                           for side, recs in sides.items()},
            "all_correct": {side: all(r["correct"] for r in recs)
                            for side, recs in sides.items()},
            "metrics": metrics,
        }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--parent", nargs="+", required=True, type=Path)
    p.add_argument("--change", nargs="+", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--parent-commit", help="default: the parent records' git_commit")
    p.add_argument("--change-commit", help="default: the change records' git_commit")
    args = p.parse_args(argv)

    try:
        parent = [json.loads(path.read_text()) for path in args.parent]
        change = [json.loads(path.read_text()) for path in args.change]
        specs = metric_specs(json.loads((ROOT / "BENCHMARK.json").read_text()))
        machines = [{k: v for k, v in r["machine"].items() if k != "git_commit"}
                    for r in parent + change]
        if any(m != machines[0] for m in machines):
            raise ValueError("the records come from different machines or settings")
        result = {
            "label": args.label,
            "parent_commit": args.parent_commit or side_commit(parent, "parent"),
            "change_commit": args.change_commit or side_commit(change, "change"),
            "machine": machines[0],
            "workloads": compare(parent, change, specs),
        }
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
