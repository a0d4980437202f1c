#!/usr/bin/env python3
"""cotface benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload auth --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Run from the repository root.  Untraced (--trace 0), it reports the
end-to-end metrics setup_s, op_ms and peak_rss_mb; traced (--trace 1), the
per-layer metrics of perfbench/README.md.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  The line before it
records the machine.  Results and span traces go to perfbench/out/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread: the workloads are single-caller loops, and a second thread
# would share the machine's two cores with the measured one.  Set before
# numpy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("auth", "identify", "train", "eval")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_info(np):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_all(args):
    """Run every workload, each in its own fresh process, and tabulate."""
    results, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        results[name] = result
        ok &= result["correct"] and result["failed"] == 0
        metrics = "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                            for k, v in result["metrics"].items()
                            if args.trace == 0 or v["value"] != 0)
        print(f"{name:<9} attempted {result['attempted']:<5} failed {result['failed']:<3} {metrics}")
    print(json.dumps({"workloads": results}))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cotface" / "__init__.py").is_file():
        print(f"error: no cotface sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import cotface.cli  # noqa: F401  (imports are part of set-up)
    import cotface.pipeline  # noqa: F401
    import layers
    import speed
    import tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = tracing.Tracer() if args.trace else None
    problems = []
    workdir = None
    # wall seconds, and the same scaled to the nominal CPU speed (speed.py)
    reference_s = [speed.measure()]
    setup_s, setup_scaled_s = [], []
    op_s, op_scaled_s = [], []
    traced_ops, untraced_s = [], []
    attempted = failed = 0
    try:
        # set-up: input generation plus one warm-up op, several times
        for _ in range(SETUP_REPEATS):
            if workdir is not None:
                shutil.rmtree(workdir)
            workdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT)
            wl = WORKLOADS[args.workload](args.seed, workdir)
            if tracer:
                tracer.install(layers.TARGETS)
            t0 = time.perf_counter()
            with (tracer.root("setup", "setup") if tracer else contextlib.nullcontext()):
                wl.setup()
                wl.prepare()
                warm = wl.op()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
            reference_s.append(speed.measure())
            setup_s.append(dt)
            setup_scaled_s.append(speed.scale(dt, *reference_s[-2:]))
            problems += wl.setup_problems() + wl.check(warm)

        # timed ops; traced runs alternate untraced and traced ops
        deadline = time.perf_counter() + args.seconds
        while True:
            wl.prepare()
            traced = tracer is not None and attempted % 2 == 1
            if traced:
                tracer.install(layers.TARGETS)
            with (tracer.root("op", attempted) if traced else contextlib.nullcontext()):
                t0 = time.perf_counter()
                result = wl.op()
                dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                traced_ops.append(attempted)
            else:
                untraced_s.append(dt)
            reference_s.append(speed.measure())
            op_s.append(dt)
            op_scaled_s.append(speed.scale(dt, *reference_s[-2:]))
            attempted += 1
            op_problems = wl.check(result)
            if op_problems:
                failed += 1
                problems += [f"op {attempted - 1}: {p}" for p in op_problems]
            if time.perf_counter() >= deadline and (tracer is None or traced_ops):
                break
    finally:
        if tracer:
            tracer.uninstall()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "setup_s": {"value": speed.scale(import_s, reference_s[0], reference_s[0])
                        + statistics.median(setup_scaled_s), "unit": "s"},
            "op_ms": {"value": statistics.median(op_scaled_s) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        metrics = layers.per_layer_metrics(tracer, args.workload, traced_ops,
                                           statistics.fmean(untraced_s) * 1e3,
                                           WORKLOADS[args.workload].setup_metrics,
                                           SETUP_REPEATS)
        tracer.write_jsonl(OUT / f"trace-{tag}.jsonl")

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(np),
        "wall_import_s": import_s, "wall_setup_s": setup_s,
        "ops": len(op_s), "wall_op_ms_median": statistics.median(op_s) * 1e3,
        "reference_work_ms_median": statistics.median(reference_s) * 1e3,
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps({**record, **result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
