"""Print the sha256 of cotface's bulk float outputs for inputs built from a seed.

    python3 tools/output_digests.py --seed 0

From the seed (stdlib `random`), it writes the eval recipe's 300,000
`label,score` lines (60,000 genuine N(0.55, 0.15^2) and 240,000 impostor
N(0.25, 0.15^2), shuffled, 5 decimals), runs `cotface eval` on them, and
builds a 2,000-identity gallery of 5 random 128-d embeddings each with
`enroll`, saved with `save_gallery`.  It prints one `sha256  name` line for
far_frr.csv, summary.csv, histogram.csv, the gallery text and its .rows
companion.  Run it in two checkouts to show that they write the same bytes.
It imports `cotface` from the checkout's `src/`; everything else is stdlib.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cotface.cli import main  # noqa: E402
from cotface.pipeline import Gallery, enroll, save_gallery  # noqa: E402

N_GENUINE, N_IMPOSTOR, DECIMALS = 60_000, 240_000, 5
IDENTITIES, PER_IDENTITY, DIM = 2_000, 5, 128


def score_lines(rng: random.Random) -> str:
    labels = [1] * N_GENUINE + [0] * N_IMPOSTOR
    rng.shuffle(labels)
    return "".join(f"{label},{rng.gauss(0.55 if label else 0.25, 0.15):.{DECIMALS}f}\n"
                   for label in labels)


def digests(seed: int, work: Path) -> dict[str, str]:
    rng = random.Random(seed)
    scores, out = work / "scores.csv", work / "eval"
    scores.write_text(score_lines(rng))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--scores", str(scores), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"cotface eval exited {code}")
    gallery = Gallery()
    for k in range(IDENTITIES * PER_IDENTITY):
        enroll(gallery, f"id{k // PER_IDENTITY}", [rng.gauss(0.0, 1.0) for _ in range(DIM)])
    save_gallery(gallery, work / "gallery.txt")
    files = [out / "far_frr.csv", out / "summary.csv", out / "histogram.csv",
             work / "gallery.txt", work / "gallery.txt.rows"]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        for name, digest in digests(args.seed, Path(work)).items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
