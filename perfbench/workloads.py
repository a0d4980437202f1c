"""The four workloads.  Each drives the program only through its public
surface (`cotface.cli.main` and the `cotface.pipeline` gallery API), makes
its inputs from the seed, and checks every op's outputs with `reference`.

A workload object owns one temporary input directory.  `setup()` writes the
inputs (run.py then warms up with one op); `prepare()` runs untimed before
each op; `op()` is the timed unit and returns what `check()` needs.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import reference


def cotface_call(argv):
    """(exit code, stdout + stderr) of one in-process `cotface` call."""
    import cotface.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cotface.cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue()


def write_pgm_bytes(path, pixels):
    """Binary PGM written by the benchmark (not by the program under test)."""
    levels = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
    height, width = levels.shape
    Path(path).write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii") + levels.tobytes())


def unit(rng, n, dim):
    return reference.unit_rows(rng.standard_normal((n, dim)))


class Workload:
    setup_metrics = ()  # per-layer metrics measured in set-up, not per op

    def __init__(self, seed, workdir):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.dir = Path(workdir)

    def setup_problems(self):
        return []

    def prepare(self):
        pass


class Auth(Workload):
    """One op: `cotface auth` on each frame of a fixed frame list."""

    # (side, content): dark/gray frames hold no face; small faces are a
    # quarter of the side (1.25 x the CLI's min_face of side/5), large faces
    # three quarters of it.  Faces are centred: the toy spoof model scores
    # some off-centre large faces above its 0.65 threshold.
    FRAMES = ((48, "dark"), (48, "small"), (48, "large"),
              (80, "gray"), (80, "small"),
              (120, "dark"), (120, "small"), (120, "large"))
    FACE_SHARE = {"small": 0.25, "large": 0.75}
    ENROLLED = ("ada", "bo", "cy")
    IMAGES_PER_ENROLLED = 5
    DISTRACTORS = 97  # x 5 embeddings; with the enrolled: 500 embeddings
    EMBED_DIM = 32    # the CLI's toy embedder

    def _face(self, side):
        return self.rng.uniform(215.0, 255.0, (side, side))

    def setup(self):
        rng = self.rng
        self.gallery = str(self.dir / "gallery.txt")
        lines = ["facegallery 1", str(self.DISTRACTORS)]
        for i in range(self.DISTRACTORS):
            lines += [f"distractor{i:03d}", f"{self.EMBED_DIM} 5"]
            lines += [" ".join(f"{v:.17g}" for v in row) for row in unit(rng, 5, self.EMBED_DIM)]
        Path(self.gallery).write_text("\n".join(lines) + "\n")
        self.enroll_results = []
        for name in self.ENROLLED:
            images = []
            for k in range(self.IMAGES_PER_ENROLLED):
                path = self.dir / f"{name}{k}.pgm"
                write_pgm_bytes(path, self._face(48))
                images.append(str(path))
            self.enroll_results.append(
                cotface_call(["enroll", "--gallery", self.gallery, "--name", name] + images))
        self.frames = []
        for i, (side, content) in enumerate(self.FRAMES):
            if content == "gray":
                pixels = rng.uniform(100.0, 140.0, (side, side))
            else:
                pixels = rng.uniform(0.0, 60.0, (side, side))
            if content in self.FACE_SHARE:
                face = int(round(side * self.FACE_SHARE[content]))
                at = (side - face) // 2
                pixels[at:at + face, at:at + face] = self._face(face)
            path = self.dir / f"frame{i}_{side}_{content}.pgm"
            write_pgm_bytes(path, pixels)
            self.frames.append((str(path), content in self.FACE_SHARE))

    def setup_problems(self):
        problems = []
        for name, (code, out) in zip(self.ENROLLED, self.enroll_results):
            if code != 0 or out.count(f"enrolled {name}") != self.IMAGES_PER_ENROLLED:
                problems.append(f"enroll {name}: exit {code}, output {out!r}")
        return problems

    def op(self):
        return [cotface_call(["auth", "--gallery", self.gallery, path])
                for path, _ in self.frames]

    def check(self, results):
        problems = []
        for (path, has_face), (code, out) in zip(self.frames, results):
            problems += [f"{Path(path).name}: {p}"
                         for p in reference.check_auth(code, out, has_face, self.ENROLLED)]
        return problems


class Identify(Workload):
    """One op: enroll one new identity (5 embeddings), then match 4 probes on
    a gallery of 10,000 embeddings."""

    DIM = 128
    BASE_IDENTITIES = 2000
    PER_IDENTITY = 5
    SIM_THRESHOLD = 0.7  # random 128-d impostors stay far below it
    PROBE_NOISE = 0.03   # per coordinate; genuine cosine about 0.95
    ROUNDS = 50          # distinct rounds; then the gallery is reloaded
    setup_metrics = ("gallery.save_gallery_ms", "gallery.load_gallery_ms")

    def setup(self):
        import cotface.pipeline as pl

        rng = self.rng
        n_base = self.BASE_IDENTITIES * self.PER_IDENTITY
        raw = rng.standard_normal((n_base, self.DIM))
        names = [f"id{i:04d}" for i in range(self.BASE_IDENTITIES)]
        gallery = pl.Gallery()
        for row, vector in enumerate(raw):
            pl.enroll(gallery, names[row // self.PER_IDENTITY], vector)
        self.path = str(self.dir / "gallery.txt")
        pl.save_gallery(gallery, self.path)
        self.gallery = pl.load_gallery(self.path)
        self.gallery_size = self.gallery.total_embeddings()

        n_rows = n_base + self.ROUNDS * self.PER_IDENTITY
        self.ref = np.empty((n_rows, self.DIM))
        self.ref[:n_base] = reference.unit_rows(raw)
        self.ref_names = [names[r // self.PER_IDENTITY] for r in range(n_base)]
        self.n_base = n_base
        self.rounds = []
        for r in range(self.ROUNDS):
            name = f"new{r:02d}"
            new = rng.standard_normal((self.PER_IDENTITY, self.DIM))
            base_row = int(rng.integers(n_base))
            probes = [  # (probe, identity it belongs to)
                (self._near(reference.unit_rows(new[[rng.integers(self.PER_IDENTITY)]])[0]), name),
                (self._near(self.ref[base_row]), self.ref_names[base_row]),
                (rng.standard_normal(self.DIM), None),
                (rng.standard_normal(self.DIM), None),
            ]
            self.rounds.append((name, new, probes))
        self.round = 0

    def _near(self, unit_vector):
        return unit_vector + self.PROBE_NOISE * self.rng.standard_normal(self.DIM)

    def setup_problems(self):
        if self.gallery_size != self.n_base:
            return [f"loaded gallery holds {self.gallery_size} embeddings, saved {self.n_base}"]
        return []

    def prepare(self):
        if self.round == self.ROUNDS:
            import cotface.pipeline as pl

            self.gallery = None  # so that two galleries never coexist
            self.gallery = pl.load_gallery(self.path)
            self.ref_names = self.ref_names[:self.n_base]
            self.round = 0

    def op(self):
        import cotface.pipeline as pl

        name, new, probes = self.rounds[self.round]
        self.round += 1
        enrolled = [pl.enroll(self.gallery, name, vector) for vector in new]
        matched = [pl.match(self.gallery, probe, self.SIM_THRESHOLD) for probe, _ in probes]
        return name, new, probes, enrolled, matched

    def check(self, result):
        name, new, probes, enrolled, matched = result
        problems = [f"enroll {name} #{k + 1}: {e}" for k, e in enumerate(enrolled)
                    if not (e.accepted and e.count == k + 1)]
        row = len(self.ref_names)
        self.ref[row:row + len(new)] = reference.unit_rows(new)
        self.ref_names += [name] * len(new)
        ref = self.ref[:len(self.ref_names)]
        for (probe, owner), got in zip(probes, matched):
            expected = reference.match_reference(ref, self.ref_names, probe, self.SIM_THRESHOLD)
            problems += reference.check_match(got, expected, owner)
        return problems


class Train(Workload):
    """One op: gradcheck then train, for lmcot and for dual."""

    LOSSES = ("lmcot", "dual")
    STEPS = 60
    TRAIN_ARGS = ("--classes", "200", "--per-class", "8", "--spread", "0.2",
                  "--steps", str(STEPS), "--lr", "0.7", "--s", "8", "--m", "0.05")

    def setup(self):
        self.seed_arg = str(self.seed % 2**32)
        self.first_report = {loss: None for loss in self.LOSSES}

    def op(self):
        results = {}
        for loss in self.LOSSES:
            out = self.dir / f"train-{loss}"
            gradcheck = cotface_call(["gradcheck", "--loss", loss, "--seed", self.seed_arg])
            train = cotface_call(["train", "--loss", loss, "--seed", self.seed_arg,
                                  "--out", str(out), *self.TRAIN_ARGS])
            results[loss] = (gradcheck, train, out)
        return results

    def check(self, results):
        problems = []
        for loss, ((gc_code, gc_out), (tr_code, tr_out), out) in results.items():
            if gc_code != 0 or "PASS" not in gc_out or "FAIL" in gc_out:
                problems.append(f"gradcheck {loss}: exit {gc_code}, output {gc_out!r}")
            if tr_code != 0:
                problems.append(f"train {loss}: exit {tr_code}, output {tr_out!r}")
                continue
            try:
                report = (out / "report.csv").read_text()
                metrics = (out / "metrics.csv").read_text()
            except OSError as exc:
                problems.append(f"train {loss}: {exc}")
                continue
            problems += [f"train {loss}: {p}" for p in reference.check_train_report(
                report, self.STEPS, metrics, self.first_report[loss])]
            if self.first_report[loss] is None:
                self.first_report[loss] = report
            for name in ("report.csv", "metrics.csv", "steps.log"):
                (out / name).unlink(missing_ok=True)
        return problems


class Eval(Workload):
    """One op: `cotface eval` on a file of 300,000 label,score lines."""

    N_GENUINE = 60_000
    N_IMPOSTOR = 240_000
    DECIMALS = 5        # rounding: many ties, about 81,000 unique scores
    SAMPLED_ROWS = 64   # far_frr.csv rows checked against direct counts

    def setup(self):
        rng = self.rng
        labels = np.zeros(self.N_GENUINE + self.N_IMPOSTOR, dtype=int)
        labels[:self.N_GENUINE] = 1
        rng.shuffle(labels)
        raw = np.where(labels == 1, rng.normal(0.55, 0.15, labels.size),
                       rng.normal(0.25, 0.15, labels.size))
        texts = [f"{v:.{self.DECIMALS}f}" for v in raw]
        self.scores = str(self.dir / "scores.csv")
        Path(self.scores).write_text(
            "".join(f"{label},{text}\n" for label, text in zip(labels, texts)))
        values = np.array([float(t) for t in texts])
        self.genuine = values[labels == 1]
        self.impostor = values[labels == 0]
        self.eer = reference.eer_reference(self.genuine, self.impostor)
        self.auc = reference.auc_reference(self.genuine, self.impostor)
        n_unique = np.unique(values).size
        self.sample_rows = np.sort(rng.choice(n_unique, self.SAMPLED_ROWS, replace=False))
        self.out = self.dir / "eval-out"

    def op(self):
        return cotface_call(["eval", "--scores", self.scores, "--out", str(self.out)])

    def check(self, result):
        code, text = result
        if code != 0:
            return [f"eval: exit {code}, output {text!r}"]
        names = ("summary.csv", "far_frr.csv", "histogram.csv")
        try:
            files = {name: (self.out / name).read_text() for name in names}
        except OSError as exc:
            return [f"eval: {exc}"]
        finally:
            for name in names:
                (self.out / name).unlink(missing_ok=True)
        return reference.check_eval(files["summary.csv"], files["far_frr.csv"],
                                    files["histogram.csv"], self.genuine, self.impostor,
                                    self.eer, self.auc, self.sample_rows)


WORKLOADS = {"auth": Auth, "identify": Identify, "train": Train, "eval": Eval}
