"""Print the sha256 of cotface's bulk float outputs for inputs built from a seed.

    python3 tools/output_digests.py --seed 0

From the seed (stdlib `random`), it writes the eval recipe's 300,000
`label,score` lines (60,000 genuine N(0.55, 0.15^2) and 240,000 impostor
N(0.25, 0.15^2), shuffled, 5 decimals), runs `cotface eval` on them, and
builds a 2,000-identity gallery of 5 random 128-d embeddings each with
`enroll`, saved with `save_gallery`, and matches 64 probes against it with
`match`: 32 stored embeddings plus N(0, 0.03^2) noise per value and 32 random
vectors.  The gallery's 10,000 x 128 rows are above the size at which match
scores row slices on several threads.  It prints one `sha256  name` line for
far_frr.csv, summary.csv, histogram.csv, the gallery text and its .rows
companion, and the matches' (identity, repr(best similarity)) list.  Then it
runs `cotface train --loss lmcot` and `--loss dual` at the benchmark's train
arguments (`perfbench/workloads.py`'s `Train.TRAIN_ARGS`), and `cotface train
--task binary-live-spoof --loss margin-ce+double --steps 200`, each with
`--seed` the given seed, and prints the digests of each run's report.csv and
metrics.csv.  Then it prints the
digest of the stdout of `cotface gradcheck --loss all` at that seed, and
last the digest of the exit codes and output of the benchmark's auth op
(`perfbench/workloads.py`'s `Auth` recipe built at the seed: `cotface auth`
on its 8 frames).  Run it in two checkouts to show that they write the same
bytes.  It sets one BLAS thread before numpy loads: the train bytes differ
between thread counts.  It imports `cotface` from the checkout's `src/`, and
the train arguments and the auth recipe from its `perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

from cotface.cli import main  # noqa: E402
from cotface.pipeline import Gallery, enroll, match, save_gallery  # noqa: E402
from workloads import Auth, Train  # noqa: E402

N_GENUINE, N_IMPOSTOR, DECIMALS = 60_000, 240_000, 5
IDENTITIES, PER_IDENTITY, DIM = 2_000, 5, 128
NEAR_PROBES, RANDOM_PROBES, PROBE_NOISE = 32, 32, 0.03


def score_lines(rng: random.Random) -> str:
    labels = [1] * N_GENUINE + [0] * N_IMPOSTOR
    rng.shuffle(labels)
    return "".join(f"{label},{rng.gauss(0.55 if label else 0.25, 0.15):.{DECIMALS}f}\n"
                   for label in labels)


def _run(argv) -> str:
    """Run the cotface CLI in-process; returns its stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    if code != 0:
        raise SystemExit(f"cotface {argv[0]} exited {code}")
    return stdout.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def match_digest(gallery: Gallery, rng: random.Random) -> str:
    """The (identity, repr(best similarity)) of each probe's match, in probe order."""
    stored = [gallery.identities[f"id{rng.randrange(IDENTITIES)}"][rng.randrange(PER_IDENTITY)]
              for _ in range(NEAR_PROBES)]
    probes = [[x + rng.gauss(0.0, PROBE_NOISE) for x in row] for row in stored]
    probes += [[rng.gauss(0.0, 1.0) for _ in range(DIM)] for _ in range(RANDOM_PROBES)]
    found = [(name, repr(sim)) for name, sim in (match(gallery, p) for p in probes)]
    return hashlib.sha256(repr(found).encode()).hexdigest()


def digests(seed: int, work: Path) -> dict[str, str]:
    """far_frr.csv, summary.csv, histogram.csv, the gallery text and its companion, and
    the digest of 64 matches against that gallery."""
    rng = random.Random(seed)
    scores, out = work / "scores.csv", work / "eval"
    scores.write_text(score_lines(rng))
    _run(["eval", "--scores", str(scores), "--out", str(out)])
    gallery = Gallery()
    for k in range(IDENTITIES * PER_IDENTITY):
        enroll(gallery, f"id{k // PER_IDENTITY}", [rng.gauss(0.0, 1.0) for _ in range(DIM)])
    save_gallery(gallery, work / "gallery.txt")
    files = [out / "far_frr.csv", out / "summary.csv", out / "histogram.csv",
             work / "gallery.txt", work / "gallery.txt.rows"]
    return {**{path.name: _sha256(path) for path in files},
            "match(identity,sim)": match_digest(gallery, rng)}


def train_digests(seed: int, work: Path) -> dict[str, str]:
    """report.csv and metrics.csv of the benchmark's lmcot and dual train runs and of
    the binary margin-ce+double run, then the stdout of gradcheck over every loss."""
    runs = {loss: ["--loss", loss, *Train.TRAIN_ARGS] for loss in Train.LOSSES}
    runs["margin-ce+double"] = ["--task", "binary-live-spoof", "--loss", "margin-ce+double",
                                "--steps", "200"]
    found = {}
    for loss, args in runs.items():
        out = work / f"train-{loss}"
        _run(["train", *args, "--seed", str(seed), "--out", str(out)])
        for name in ("report.csv", "metrics.csv"):
            found[f"{loss}/{name}"] = _sha256(out / name)
    stdout = _run(["gradcheck", "--loss", "all", "--seed", str(seed)])
    found["gradcheck.stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return found


def auth_digest(seed: int, work: Path) -> dict[str, str]:
    """The exit code and output of each `cotface auth` call of the benchmark's
    auth op, built at the seed."""
    workload = Auth(seed, work / "auth")
    workload.dir.mkdir()
    workload.setup()
    text = "".join(f"{code}\n{out}" for code, out in workload.op())
    return {"auth.exit+stdout": hashlib.sha256(text.encode()).hexdigest()}


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        found = {**digests(args.seed, Path(work)), **train_digests(args.seed, Path(work)),
                 **auth_digest(args.seed, Path(work))}
        for name, digest in found.items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
