"""Command-line interface: subcommands, exit codes, output files."""

import argparse
import importlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cotface import cli
from cotface.cli import main
from cotface.train import init_embedding_model
from cotface.pipeline import (
    Gallery,
    GrayImage,
    enroll,
    gallery_to_text,
    load_gallery,
    read_pgm,
    save_gallery,
    write_pgm,
)
from mutations import (
    GALLERY_EDITS,
    PGM_EDITS,
    SCORE_EDITS,
    mutate_gallery,
    mutate_pgm,
    mutate_scores,
)
from oracles import read_scores_loop

detect_module = importlib.import_module("cotface.pipeline.detect")


def _write_frame(path, kind):
    """PGM fixtures: 'face' is bright with sharpness dots, 'blank' is flat."""
    if kind == "face":
        px = np.full((60, 60), 255.0)
        for (y, x) in [(10, 12), (18, 40), (33, 22), (47, 50), (52, 9)]:
            px[y, x] = 180.0
    elif kind == "blank":
        px = np.full((60, 60), 128.0)
    elif kind == "dark":
        px = np.zeros((60, 60))
    else:
        raise AssertionError(kind)
    write_pgm(GrayImage(px), path)
    return str(path)


class TestUsageErrors:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "bogus", "--loss", "arcface", "--out", "x"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--scores", "x.csv"])  # --out missing
        assert exc.value.code == 2


def _numeric_flags():
    """(subcommand, flag, type) for every option that the parser reads as an int or a float."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, flag, a.type) for name, p in sub.choices.items() for a in p._actions
            if a.type in (int, float) for flag in a.option_strings]


def _float_flags():
    """(subcommand, flag) for every option that the parser reads as a float."""
    return [(name, flag) for name, flag, kind in _numeric_flags() if kind is float]


class TestNumericArguments:
    """Every float flag must be finite: a usage error (exit 2, one 'error:'
    line) before the subcommand runs, whatever it would have done."""

    @staticmethod
    def _argv(command, tmp_path):
        return {
            "refcheck": ["refcheck"],
            "gradcheck": ["gradcheck", "--loss", "double", "--trials", "1"],
            "train": ["train", "--loss", "lmcot", "--steps", "1", "--out", str(tmp_path / "o")],
            "enroll": ["enroll", "--gallery", str(tmp_path / "g.txt"), "--name", "a",
                       _write_frame(tmp_path / "face.pgm", "face")],
            "auth": ["auth", "--gallery", str(tmp_path / "g.txt"),
                     _write_frame(tmp_path / "face.pgm", "face")],
            "eval": ["eval", "--scores", str(_write_text(tmp_path / "s.csv", "1,0.9\n0,0.1\n")),
                     "--out", str(tmp_path / "o")],
            "retrieval-eval": ["retrieval-eval", "--out", str(tmp_path / "o"), "--ranked",
                               str(_write_text(tmp_path / "r.csv", "q,1,1,0.9\nq,2,0,0.5\n"))],
        }[command]

    _BAD_NUMBERS = {int: ("0", "-1"), float: ("0", "-1", "1e308", "inf", "-inf", "nan")}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bad_numbers_give_an_exit_code_and_at_most_one_line(self, data):
        """Up to three of one subcommand's numeric flags set to 0, -1 or (floats
        only) 1e308, +-inf or nan: exit 0, 1 or 2, at most one stderr line, no
        numpy warning and no traceback (an exception escaping main fails the
        test).  No huge integer is drawn: a huge size would try to allocate it."""
        numeric = _numeric_flags()
        command = data.draw(st.sampled_from(sorted({c for c, _, _ in numeric})))
        flags = data.draw(st.lists(st.sampled_from([(f, t) for c, f, t in numeric if c == command]),
                                   min_size=1, max_size=3, unique=True))
        extra = [f"{flag}={data.draw(st.sampled_from(self._BAD_NUMBERS[kind]))}"
                 for flag, kind in flags]
        if command == "train" and data.draw(st.booleans()):
            extra = ["--task", "binary-live-spoof", "--loss", "margin-ce+double"] + extra
        with tempfile.TemporaryDirectory() as tmp:
            assert _run_cli(self._argv("enroll", Path(tmp))) == (0, "")  # auth's gallery
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, err = _run_cli(self._argv(command, Path(tmp)) + extra)
        assert code in (0, 1, 2)
        assert err.count("\n") + len(caught) <= 1, (err, [str(w.message) for w in caught])

    def test_every_float_flag_is_covered(self):
        assert {c for c, _ in _float_flags()} == {"train", "auth"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", _float_flags())
    def test_non_finite_value_is_a_usage_error(self, tmp_path, command, flag, value):
        code, err = _run_cli(self._argv(command, tmp_path) + [f"{flag}={value}"])
        assert (code, err) == (2, f"error: {flag} must be finite, got {float(value)}\n")
        assert not (tmp_path / "o").exists() and not (tmp_path / "g.txt").exists()

    def test_negative_scale_is_a_usage_error(self, tmp_path):
        code, err = _run_cli(self._argv("train", tmp_path) + ["--s=-1"])
        assert (code, err) == (2, "error: scale s must be >= 0, got -1.0\n")

    def test_zero_bins_is_a_usage_error_before_any_output(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("1,0.9\n0,0.1\n")
        code, err = _run_cli(["eval", "--scores", str(scores), "--out", str(tmp_path / "o"),
                              "--bins", "0"])
        assert (code, err) == (2, "error: --bins must be >= 1, got 0\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,extra,message", [
        ("train", ["--hidden", "0"], "--hidden must be >= 1, got 0"),
        ("train", ["--hidden", "8", "-3"], "--hidden must be >= 1, got -3"),
        ("train", ["--embed-dim", "0"], "--embed-dim must be >= 1, got 0"),
        ("train", ["--embed-dim=-1"], "--embed-dim must be >= 1, got -1"),
        ("train", ["--task", "binary-live-spoof", "--loss", "margin-ce", "--batch-size", "0"],
         "--batch-size must be >= 1, got 0"),
        ("train", ["--task", "binary-live-spoof", "--loss", "margin-ce", "--batch-size=-1"],
         "--batch-size must be >= 1, got -1"),
        ("train", ["--seed=-1"], "--seed must be >= 0, got -1"),
        ("train", ["--steps", "0"], "--steps must be >= 1, got 0"),
        ("gradcheck", ["--seed=-1"], "--seed must be >= 0, got -1"),
        ("gradcheck", ["--trials", "0"], "--trials must be >= 1, got 0"),
    ])
    def test_integer_below_its_minimum_is_a_usage_error(self, tmp_path, command, extra, message):
        """Sizes, counts and seeds that cannot work: exit 2 and one 'error:'
        line, nothing written."""
        code, err = _run_cli(self._argv(command, tmp_path) + extra)
        assert (code, err) == (2, f"error: {message}\n")
        assert not (tmp_path / "o").exists() and not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("command", ["auth", "enroll"])
    def test_toy_embedder_takes_no_seed(self, tmp_path, command):
        """Enroll and auth must embed alike, so the toy embedder is fixed and
        --seed is no flag of either (--model brings another embedder)."""
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stderr(err):
            main(self._argv(command, tmp_path) + ["--seed", "0"])
        assert exc.value.code == 2 and "unrecognized arguments: --seed 0" in err.getvalue()
        assert not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("extra,steps", [
        (["--steps", "1"], 1),
        (["--steps", "2"], 2),
        (["--task", "binary-live-spoof", "--loss", "margin-ce+double", "--steps", "3"], 3),
    ])
    def test_weights_that_overflow_end_in_one_diverged_line(self, tmp_path, extra, steps):
        """--lr 1e308 leaves the first loss finite and the weights huge: the next
        forward pass (the final metric's, after one step) is a divergence."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run_cli(self._argv("train", tmp_path) + ["--lr", "1e308"] + extra)
        assert (code, err, caught) == (
            1, f"diverged: model output is not finite after 1 of {steps} steps\n", [])

    def test_loss_that_overflows_ends_in_one_diverged_line(self, tmp_path):
        """A finite --s 1e308 overflows the logits at the first step: exit 1, and
        stderr is one 'diverged:' line, with no numpy warning before it."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run_cli(self._argv("train", tmp_path) + ["--s", "1e308"])
        assert (code, err, caught) == (1, "diverged: non-finite loss inf at step 0\n", [])

    @pytest.mark.parametrize("extra,message", [
        (["--spread", "1e156", "--s", "8", "--m", "0.1"], "model output is not finite"),
        (["--hidden", "1"], "matrix has a row with norm below eps"),
    ])
    def test_embedding_that_cannot_be_normalized_ends_in_one_diverged_line(
            self, tmp_path, extra, message):
        """Features so large that the embeddings' norms overflow, and a dead
        network's zero embeddings, are a divergence (exit 1), not a flat loss
        (exit 0) or a file error (exit 3)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run_cli(["train", "--loss", "arcface", "--steps", "3",
                                  "--out", str(tmp_path / "o"), *extra])
        assert (code, err, caught) == (1, f"diverged: {message} after 0 of 3 steps\n", [])


class TestRefcheck:
    def test_passes_and_is_repeatable(self, capsys):
        assert main(["refcheck"]) == 0
        first = capsys.readouterr().out
        assert main(["refcheck"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "all reference checks passed" in first
        for name in ("softmax", "sphereface", "cosface", "arcface", "lmcot"):
            assert name in first

    def test_a_wrong_frozen_value_fails(self, monkeypatch, capsys):
        """refcheck judges at its fixed tolerance, so one frozen value moved by
        1e-2 fails the run: exit 1, that line FAIL, the others PASS."""
        from cotface import reference
        checks = [(name, value + 1e-2 if name == "lmcot" else value, fn)
                  for name, value, fn in reference._CHECKS]
        monkeypatch.setattr(reference, "_CHECKS", tuple(checks))
        assert main(["refcheck"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("reference check FAILED\n")
        assert [line.split()[-1] for line in out.splitlines()[:-1]] == [
            "FAIL" if name == "lmcot" else "PASS" for name, _, _ in checks]

    def test_library_tolerance_still_judges(self):
        """The fixed bound is the library default; a caller's own bound still
        decides, so an unreachable one fails."""
        from cotface.reference import run_reference_checks
        assert all(r.passed for r in run_reference_checks())
        assert not all(r.passed for r in run_reference_checks(tolerance=1e-9))


class TestGradcheck:
    def test_single_loss_passes(self, capsys):
        assert main(["gradcheck", "--loss", "arcface", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "arcface" in out and "PASS" in out


@pytest.mark.parametrize("command,flag,value", [
    ("refcheck", "--tol", "1e-9"),
    ("gradcheck", "--tol", "1e-18"),
    ("gradcheck", "--h", "1e-5"),
])
def test_check_bounds_are_not_flags(command, flag, value):
    """What refcheck and gradcheck accept is fixed by the library: neither
    parser has the flag, and a bound on the command line runs no check
    (no flag is read from a prefix of its name, so '--h' is not '--help')."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert flag not in {f for a in sub.choices[command]._actions for f in a.option_strings}
    out = io.StringIO()
    with pytest.raises(SystemExit), redirect_stderr(io.StringIO()), redirect_stdout(out):
        main([command, flag, value])
    assert "PASS" not in out.getvalue()


def _subparsers():
    return next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_settable_values_are_counted():
    """Every subcommand argument (flags and positionals, --help aside) is a
    setting a user can get wrong; a new one has to change this count."""
    counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
              for name, p in _subparsers().items()}
    assert counts == {"refcheck": 0, "gradcheck": 3, "train": 25, "eval": 3,
                      "retrieval-eval": 3, "enroll": 4, "auth": 4}
    assert sum(counts.values()) == 42


@st.composite
def _flag_prefixes(draw):
    """(subcommand, prefix): a proper prefix, of at least one letter, of one
    of the subcommand's long flags (--help included) that is not a flag."""
    parsers = _subparsers()
    command = draw(st.sampled_from(sorted(parsers)))
    flags = {f for a in parsers[command]._actions for f in a.option_strings}
    return command, draw(st.sampled_from(sorted(
        {f[:n] for f in flags if f.startswith("--") for n in range(3, len(f))} - flags)))


@settings(max_examples=60, deadline=None)
@given(choice=_flag_prefixes())
@example(choice=("gradcheck", "--h"))
@example(choice=("gradcheck", "--tri"))
def test_no_flag_is_read_from_a_prefix(choice):
    """A prefix of a flag's name is a usage error: exit 2, one 'error:' line
    naming it, and nothing on stdout."""
    command, prefix = choice
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(TestNumericArguments._argv(command, Path(tmp)) + [prefix, "1"])
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert (exc.value.code, out.getvalue()) == (2, "")
    assert len(errors) == 1 and f"unrecognized arguments: {prefix} 1" in errors[0]


_TRAIN_ARGS = [
    "train", "--task", "embedding", "--loss", "arcface",
    "--steps", "8", "--lr", "0.1", "--seed", "3",
    "--classes", "4", "--dim", "8", "--per-class", "6",
    "--hidden", "16", "--embed-dim", "8", "--batch-size", "8",
    "--s", "8.0", "--m", "0.05",
]


class TestTrain:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets glibc's heap policy")
    def test_steps_reuse_the_memory_they_free(self, tmp_path):
        """A second train run in one process faults in almost no fresh pages:
        the (N, C) arrays each step frees (600 x 100 here, 480 kB each) stay in
        the heap.  Left to glibc's default policy, each step faults in several
        of them again: over 100 pages a step."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import resource\n"
            "from cotface.cli import main\n"
            "argv = ['train', '--loss', 'lmcot', '--classes', '100', '--per-class', '8',"
            f" '--steps', '40', '--out', {str(tmp_path)!r}]\n"
            "main(argv)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "main(argv)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), check=True)
        assert int(proc.stdout.split()[-1]) < 10 * 40

    def test_writes_report_metrics_and_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_TRAIN_ARGS + ["--out", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "step,loss"
        assert len(report) == 1 + 8
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "metric,value"
        assert {line.split(",")[0] for line in metrics[1:]} == {"eer_initial", "eer_final"}
        steps = (out / "steps.log").read_text().splitlines()
        assert steps[0] == "step,loss,wall_ms"
        assert len(steps) == 1 + 8
        assert [line.rsplit(",", 1)[0] for line in steps[1:]] == report[1:]
        stdout = capsys.readouterr().out
        assert "eer_final" in stdout and "loss " in stdout

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_TRAIN_ARGS + ["--out", str(a)]) == 0
        assert main(_TRAIN_ARGS + ["--out", str(b)]) == 0
        for name in ("report.csv", "metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_lr_curve_is_flat(self, tmp_path):
        out = tmp_path / "flat"
        args = [a if a != "0.1" else "0.0" for a in _TRAIN_ARGS]
        assert main(args + ["--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        losses = {row.split(",")[1] for row in rows}
        assert len(losses) == 1

    def test_binary_task_reports_auc(self, tmp_path):
        out = tmp_path / "bin"
        args = [
            "train", "--task", "binary-live-spoof", "--loss", "margin-ce+double",
            "--steps", "10", "--lr", "0.3", "--seed", "0", "--m", "1.0",
            "--dim", "8", "--per-class", "30", "--hidden", "8",
            "--out", str(out),
        ]
        assert main(args) == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in metrics[1:]} == {
            "auc_initial", "auc_final", "margin_ce_initial", "margin_ce_final"}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_binary_metrics_tell_the_losses_apart(self, tmp_path, seed):
        """The AUC saturates at 1, but the held-out margin_sigmoid_ce still
        differs between the two binary losses; each file is the same on a rerun."""
        written = {}
        for loss in ("margin-ce", "margin-ce+double"):
            for run in ("a", "b"):
                out = tmp_path / f"{loss}-{run}"
                assert main(["train", "--task", "binary-live-spoof", "--loss", loss, "--steps",
                             "20", "--seed", str(seed), "--out", str(out)]) == 0
                written[loss, run] = (out / "metrics.csv").read_bytes()
            assert written[loss, "a"] == written[loss, "b"]
        assert written["margin-ce", "a"] != written["margin-ce+double", "a"]

    def test_unknown_loss_is_reported_as_bad_input(self, tmp_path, capsys):
        args = ["train", "--task", "embedding", "--loss", "nonesuch",
                "--steps", "1", "--out", str(tmp_path / "x")]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_reversed_binary_loss_name_is_a_usage_error(self, tmp_path, capsys):
        args = ["train", "--task", "binary-live-spoof", "--loss", "double+margin-ce",
                "--steps", "1", "--out", str(tmp_path / "x")]
        assert main(args) == 2
        assert capsys.readouterr().err == ("error: binary tasks take 'margin-ce' or "
                                           "'margin-ce+double', got 'double+margin-ce'\n")

    def test_unknown_binary_loss_is_a_usage_error(self, tmp_path, capsys):
        args = ["train", "--task", "binary-live-spoof", "--loss", "nonesuch",
                "--steps", "1", "--out", str(tmp_path / "x")]
        assert main(args) == 2
        assert "margin-ce" in capsys.readouterr().err

    def test_per_class_without_two_held_out_is_a_usage_error(self, tmp_path, capsys):
        args = [a if a != "6" else "5" for a in _TRAIN_ARGS]
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert "--per-class 5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag,value", [("--per-class", "1"), ("--classes", "1"),
                                            ("--spread", "-0.1")])
    def test_impossible_dataset_is_a_usage_error(self, tmp_path, flag, value):
        args = [*_TRAIN_ARGS, flag, value, "--out", str(tmp_path / "x")]
        assert main(args) == 2

    @pytest.mark.parametrize("task", [[], ["--task", "binary-live-spoof", "--loss", "margin-ce"]])
    def test_overflowing_dataset_is_a_usage_error(self, tmp_path, task):
        """--spread 1e308 overflows the features: one 'error:' line, exit 2,
        nothing written, before any step runs."""
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run_cli(["train", "--loss", "lmcot", *task, "--spread", "1e308",
                                  "--steps", "1", "--out", str(out)])
        assert (code, err, caught) == (
            2, "error: intra_spread 1e+308 makes the features overflow\n", [])
        assert not out.exists()

    def test_per_class_six_holds_out_two(self, tmp_path):
        assert "6" in _TRAIN_ARGS
        assert main(_TRAIN_ARGS + ["--out", str(tmp_path / "x")]) == 0

    def test_diverged_embedding_run_writes_outputs_and_exits_1(self, tmp_path, capsys):
        """lmcot at its defaults (s=64, m=0.5, lr=0.1) ends with a higher loss than
        it started with: the outputs are written, then the run fails."""
        out = tmp_path / "run"
        assert main(["train", "--loss", "lmcot", "--out", str(out)]) == 1
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[1]) > float(rows[0].split(",")[1])
        assert (out / "metrics.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("diverged: loss rose from ") and err.count("\n") == 1

    def test_binary_run_with_rising_minibatch_loss_exits_0(self, tmp_path):
        """A binary task's per-step loss is a random minibatch's; at lr 0 and this
        seed the last one is above the first, which is not a failure."""
        out = tmp_path / "bin"
        args = ["train", "--task", "binary-live-spoof", "--loss", "margin-ce",
                "--steps", "5", "--lr", "0.0", "--seed", "0", "--dim", "8",
                "--per-class", "30", "--hidden", "8", "--out", str(out)]
        assert main(args) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[1]) > float(rows[0].split(",")[1])

    def test_zero_steps_is_a_usage_error(self, tmp_path, capsys):
        assert main(_TRAIN_ARGS + ["--steps", "0", "--out", str(tmp_path / "x")]) == 2
        assert "--steps" in capsys.readouterr().err

    def test_save_model_round_trip(self, tmp_path):
        out = tmp_path / "run"
        model_path = tmp_path / "model.npz"
        assert main(_TRAIN_ARGS + ["--out", str(out), "--save-model", str(model_path)]) == 0
        assert model_path.exists()


class TestEval:
    def _scores(self, tmp_path, lines):
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_disjoint_scores(self, tmp_path, capsys):
        scores = self._scores(tmp_path, [
            "# verification scores", "1,0.9", "genuine,0.8", "0,0.2", "impostor,0.1",
        ])
        out = tmp_path / "eval"
        assert main(["eval", "--scores", scores, "--out", str(out)]) == 0
        summary = dict(
            line.split(",") for line in
            (out / "summary.csv").read_text().splitlines()[1:]
        )
        assert float(summary["eer"]) == 0.0
        assert float(summary["auc"]) == 1.0
        assert (out / "far_frr.csv").read_text().splitlines()[0] == "threshold,far,frr"
        header = (out / "histogram.csv").read_text().splitlines()[0]
        assert header == "bin_left,bin_right,genuine,impostor"
        assert "eer 0.000000" in capsys.readouterr().out

    def test_overlapping_scores_give_midpoint_eer(self, tmp_path):
        scores = self._scores(tmp_path, ["1,0.6", "1,0.2", "0,0.4", "0,0.1"])
        out = tmp_path / "eval"
        assert main(["eval", "--scores", scores, "--out", str(out)]) == 0
        summary = dict(
            line.split(",") for line in
            (out / "summary.csv").read_text().splitlines()[1:]
        )
        assert float(summary["eer"]) == pytest.approx(0.5)

    def test_scores_past_two_to_the_53(self, tmp_path):
        """At 1e16, score + 1.0 == score: eer's crossing is still bracketed."""
        scores = self._scores(tmp_path, ["1,3", "0,1e16", "1,1e16"])
        out = tmp_path / "eval"
        code, err = _run_cli(["eval", "--scores", scores, "--out", str(out)])
        assert (code, err) == (0, "")
        assert (out / "summary.csv").read_text() == (
            "metric,value\neer,0.66666666666666674\neer_threshold,10000000000000000\nauc,0.25\n")

    def test_eer_threshold_at_the_largest_float_is_finite(self, tmp_path, capsys):
        """Above the largest float eer's high sentinel is inf; the threshold is
        capped at the largest float, not interpolated halfway to inf."""
        top = "1.7976931348623157e308"
        scores = self._scores(tmp_path, [f"1,{top}", f"0,{top}"])
        out = tmp_path / "eval"
        code, err = _run_cli(["eval", "--scores", scores, "--out", str(out)])
        assert (code, err) == (0, "")
        assert (out / "summary.csv").read_text() == (
            f"metric,value\neer,0.5\neer_threshold,{top.replace('e', 'e+')}\nauc,0.5\n")

    def test_eer_threshold_across_the_whole_float_range(self, tmp_path):
        """A bracket from -max to +max spans more than the largest float: the
        threshold is interpolated without overflow, at 0.6 of the largest float."""
        top = "1.7976931348623157e308"
        scores = self._scores(tmp_path, [f"1,-{top}", f"1,{top}"] + [f"0,-{top}"] * 3
                              + [f"0,{top}"])
        out = tmp_path / "eval"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run_cli(["eval", "--scores", scores, "--out", str(out)])
        assert (code, err, caught) == (0, "", [])
        summary = dict(line.split(",") for line in (out / "summary.csv").read_text().splitlines())
        assert float(summary["eer_threshold"]) == pytest.approx(0.6 * float(top), rel=1e-15)

    def test_bad_label_exits_3(self, tmp_path, capsys):
        scores = self._scores(tmp_path, ["1,0.9", "maybe,0.5"])
        assert main(["eval", "--scores", scores, "--out", str(tmp_path / "o")]) == 3
        assert "unknown label" in capsys.readouterr().err

    def test_single_class_exits_3(self, tmp_path):
        scores = self._scores(tmp_path, ["1,0.9", "1,0.8"])
        assert main(["eval", "--scores", scores, "--out", str(tmp_path / "o")]) == 3

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["eval", "--scores", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 3

    @staticmethod
    def _assert_histogram(lines, bins=20):
        """eval on label,score lines exits 0 with no warning, and its bins have
        strictly increasing edges that cover every score and count each once."""
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scores = Path(tmp) / "scores.csv"
            scores.write_text("".join(line + "\n" for line in lines))
            out = Path(tmp) / "o"
            result = _run_cli(["eval", "--scores", str(scores), "--out", str(out),
                               "--bins", str(bins)])
            rows = [r.split(",") for r in (out / "histogram.csv").read_text().splitlines()[1:]]
        assert (result, caught) == ((0, ""), [])
        assert len(rows) == bins and all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
        edges = [float(r[0]) for r in rows] + [float(rows[-1][1])]
        values = [float(line.split(",")[1]) for line in lines]
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert edges[0] <= min(values) and max(values) <= edges[-1]
        assert sum(int(r[2]) + int(r[3]) for r in rows) == len(lines)

    @pytest.mark.parametrize("lines", [
        ["1,1e17", "0,1e17"],  # the 0.5 widening of one repeated score vanishes
        ["1,1.0000000000000002", "0,1", "1,1.0000000000000004"],  # 4 float steps, 20 bins
        ["1,1.7976931348623157e308", "0,1"],  # eer's sentinel is past the largest float
        ["1,1.7976931348623157e308", "0,1.7976931348623157e308"],
        ["1,-1.7976931348623157e308", "0,1.7976931348623157e308"],  # the span overflows
    ])
    def test_large_close_scores_get_a_histogram(self, lines):
        self._assert_histogram(lines)

    @settings(max_examples=150, deadline=None)
    @given(scores=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                           max_size=6),
           bins=st.integers(1, 40))
    def test_every_valid_file_gets_a_histogram(self, scores, bins):
        self._assert_histogram([f"{i % 2},{v!r}" for i, v in enumerate(scores)], bins)

    @pytest.mark.parametrize("line,message", [
        ("1,abc", "could not convert string to float: 'abc'"),
        ("0, nan", "non-finite score ' nan'"),
        ("genuine,-inf", "non-finite score '-inf'"),
        ("1,0.5,0.7", "expected 'label,score'"),
    ])
    def test_bad_score_line_names_its_line(self, tmp_path, capsys, line, message):
        scores = self._scores(tmp_path, ["# header", "1,0.9", "0,0.1", line, "0,0.2"])
        assert main(["eval", "--scores", scores, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: {scores}:4: {message}\n"


_PADS = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"])
_LABELS = st.sampled_from(["1", "0", "genuine", "impostor", "GENUINE", "Impostor", "gEnUiNe",
                           "maybe", "2", "", "#1", "1 0"])
_SCORES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["0.5", "1e400", "-0.0", "1_0", "abc", "", "0x1", "nan", "-inf", "0.5\x1c"]))
_LINES = st.one_of(
    st.tuples(_PADS, _LABELS, _PADS, _PADS, _SCORES, _PADS).map(
        lambda t: f"{t[0]}{t[1]}{t[2]},{t[3]}{t[4]}{t[5]}"),
    st.tuples(_PADS, st.sampled_from(["#", "# a,b", "#1,0.5,x"])).map("".join),  # comments
    _PADS,  # blank lines
    st.sampled_from(["1,0.5,0", "1", "0.25", "0;0.5"]),  # lines the grammar rejects
)


# score texts over the plain alphabet, which loadtxt and float must read alike
_PLAIN_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", ".", "1e", "1e400", "-1e400", "9007199254740993",
                     "2.2250738585072011e-308", "4.9406564584124654e-324", "+.5", "1.e1", "e5"]),
    st.text("0123456789+-.eE", max_size=8),
)


_PLAIN_FILE = b"1,0.5\n0,0.25\n1,-2e-3\n0,1E+2\n"


class TestScoresParser:
    """cli._read_scores_file, on its whole-file path for plain 0,/1, files and
    its line loop for every other file, against the line loop of
    oracles.read_scores_loop: equal arrays bit for bit, or the same ValueError.
    A file with a byte outside "0123456789+-.eE,\n", or without a last "\n",
    must reach the line loop."""

    @staticmethod
    def _assert_matches_line_loop(data: bytes):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_data_lines", wraps=cli._data_lines) as line_loop:
            path = Path(tmp) / "scores.csv"
            path.write_bytes(data)
            try:
                expected = read_scores_loop(path)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    cli._read_scores_file(path)
                assert str(got.value) == str(exc)
                expected = None
            else:
                pairs = cli._read_scores_file(path)
        if not (set(data) <= set(b"0123456789+-.eE,\n") and data.endswith(b"\n")):
            assert line_loop.called
        if expected is not None:
            for got, want in zip((pairs.genuine, pairs.impostor), expected):
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r"])),
                          min_size=1, max_size=12),
           last_ending=st.booleans())
    def test_matches_line_loop(self, lines, last_ending):
        text = "".join(line + ending for line, ending in lines)
        if not last_ending:
            text = text[:-len(lines[-1][1])]
        self._assert_matches_line_loop(text.encode("utf-8"))

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.tuples(st.sampled_from("01"), _PLAIN_SCORES), min_size=1,
                          max_size=12))
    def test_plain_files_match_line_loop(self, lines):
        self._assert_matches_line_loop("".join(f"{lab},{v}\n" for lab, v in lines).encode())

    @pytest.mark.parametrize("data", [
        b"1,0.5\n0,\x1c0.0\n",  # loadtxt reads 0.0 where float refuses
        b"1,1_0\n0,0.5\n",  # float reads 10.0 where loadtxt refuses
        b"1,0.5\n0,0.25",  # no last newline
        b"1,0.5\n",  # one line
        # a plain file with one byte outside the alphabet: first, mid-file, before the last "\n"
        *(_PLAIN_FILE[:at] + byte + _PLAIN_FILE[at:] for byte in (b" ", b"\r", b"\x00", b"\xc3")
          for at in (0, len(_PLAIN_FILE) // 2, len(_PLAIN_FILE) - 1)),
        b"genuine,0.5\r\nimpostor,0.25\r\n1,-2e-3\n0,1E+2\r\n",  # word labels, CRLF ends
        b"genuine,impostor\n0,0.5\n",  # a word in the score field
        b"1,genuine\nimpostor,0.5\n",
        b"genuine,\ngenuine,0.5\nimpostor,0.25\n",  # an empty score before a word label
        b"impostor,0.5,genuine,0.5\n1,0.25\n",
        b" genuine,0.5\nimpostor,0.25\n",  # padding
        b"genuine ,0.5\nimpostor, 0.25\n",
        b"genuine,0.5\nimpostor,0.25 \r\n",
        b"Genuine,0.5\nimpostor,0.25\n",  # mixed case
        b"genuine,0.5\nIMPOSTOR,0.25\n",
        b"genuine,0.5\r\nImpostor,0.25\r\n",
        b"xgenuine,0.5\nimpostor,0.25\n",
        b"genuine,0.5\rimpostor,0.25\n",  # a lone "\r" ends a line
        b"genuine,0.5\r\r\nimpostor,0.25\r\n",
        b"genuine,0.5\r\nimpostor,0.25\r",
        b"genuine,0.5\r\n\r\nimpostor,0.25\r\n",  # a blank line
        b"# genuine,0.5\r\ngenuine,0.5\r\nimpostor,0.25\r\n",  # comments
        b"genuine,0.5\n#impostor,0.25\nimpostor,0.25\n",
        b"genuine,1e999\r\nimpostor,0.25\r\n",  # float reads inf
        b"genuine,1_0\nimpostor,0.25\n",  # float reads 10.0
        b"genuine,0.5\r\n",  # no impostor score
        b"genuine,0.5\r\nimpostor,0.25",  # no last newline
    ])
    def test_edge_files_match_line_loop(self, data):
        self._assert_matches_line_loop(data)

    def test_plain_file_skips_the_line_loop(self, tmp_path, monkeypatch):
        def line_loop(path):
            raise AssertionError(f"{path} went line by line")

        monkeypatch.setattr(cli, "_data_lines", line_loop)
        path = tmp_path / "scores.csv"
        path.write_text("1,0.9\n0,0.25\n1,1e-3\n0,-2.5E+2\n1,0.00001\n")
        pairs = cli._read_scores_file(path)
        assert pairs.genuine.tolist() == [0.9, 1e-3, 1e-5]
        assert pairs.impostor.tolist() == [0.25, -250.0]

    def test_long_well_formed_files(self, tmp_path):
        """2,000 lines with mixed label spellings and CRLF ends (the line loop),
        and the same lines as 0/1 with "\n" ends (the whole-file path)."""
        rng = np.random.default_rng(3)
        labels = rng.choice(["1", "0", "genuine", "Impostor"], 2000)
        values = rng.normal(size=2000).tolist()
        crlf = "".join(f"{lab},{v!r}\r\n" for lab, v in zip(labels, values))
        plain = "".join(f"{int(lab in ('1', 'genuine'))},{v!r}\n" for lab, v in zip(labels, values))
        for text in (crlf, plain):
            path = tmp_path / "scores.csv"
            path.write_text(text, newline="")
            expected = read_scores_loop(path)
            pairs = cli._read_scores_file(path)
            for got, want in zip((pairs.genuine, pairs.impostor), expected):
                assert got.tobytes() == want.tobytes()


class TestRetrievalEval:
    def _ranked(self, tmp_path, lines):
        path = tmp_path / "ranked.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def _run(self, tmp_path, lines, extra=()):
        ranked = self._ranked(tmp_path, lines)
        out = tmp_path / "ret"
        assert main(["retrieval-eval", "--ranked", ranked, "--out", str(out),
                     *extra]) == 0
        rows = (out / "retrieval_metrics.csv").read_text().splitlines()
        assert rows[0] == "metric,value"
        values = dict(line.split(",") for line in rows[1:])
        return float(values["map_at_100"]), float(values["gap"])

    def test_five_sixths_fixture(self, tmp_path):
        map_value, _ = self._run(tmp_path, ["q1,1,1,0.9", "q1,2,0,0.8", "q1,3,1,0.7"])
        assert map_value == (1.0 + 2.0 / 3.0) / 2.0

    def test_gap_half_fixture(self, tmp_path):
        map_value, gap_value = self._run(tmp_path, ["a,1,1,0.9", "b,1,0,0.8"])
        assert gap_value == 0.5
        assert map_value == 1.0  # query b has no relevant items and is excluded

    def test_gap_quarter_fixture(self, tmp_path):
        _, gap_value = self._run(tmp_path, ["a,1,0,0.9", "b,1,1,0.8"])
        assert gap_value == 0.25

    def test_gap_counts_each_query_once(self, tmp_path):
        _, gap_value = self._run(
            tmp_path, ["a,1,1,0.9", "a,2,1,0.8", "b,1,1,0.7", "b,2,1,0.6"])
        assert gap_value == 1.0

    def test_gap_judges_each_query_by_its_rank_1_row(self, tmp_path):
        # a's rank-1 row is wrong and its rank-2 row right: a counts as wrong
        _, gap_value = self._run(
            tmp_path, ["a,2,1,0.95", "a,1,0,0.9", "b,1,1,0.8", "b,2,0,0.7"])
        assert gap_value == 0.25

    def test_gallery_queries_override(self, tmp_path):
        _, gap_value = self._run(tmp_path, ["a,1,1,0.9", "b,1,0,0.8"],
                                 extra=("--gallery-queries", "4"))
        assert gap_value == 0.25

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_nonpositive_gallery_queries_is_a_usage_error(self, tmp_path, capsys, count):
        ranked = self._ranked(tmp_path, ["a,1,1,0.9"])
        assert main(["retrieval-eval", "--ranked", ranked,
                     "--out", str(tmp_path / "o"), "--gallery-queries", count]) == 2
        assert "--gallery-queries must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gallery_queries_below_the_correct_count_is_a_usage_error(self, tmp_path, capsys):
        """Three correct top predictions need M >= 3; M = 1 would give GAP 3."""
        ranked = self._ranked(tmp_path, ["a,1,1,0.9", "b,1,1,0.8", "c,1,1,0.7"])
        assert main(["retrieval-eval", "--ranked", ranked,
                     "--out", str(tmp_path / "o"), "--gallery-queries", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --gallery-queries must be >= 3, ") and err.count("\n") == 1
        assert err.endswith(", got 1\n")
        assert not (tmp_path / "o").exists()

    def test_rank_gap_names_the_rank_after_it(self, tmp_path, capsys):
        ranked = self._ranked(tmp_path, ["# header", "a,1,1,0.9", "", "a,3,0,0.8"])
        assert main(["retrieval-eval", "--ranked", ranked,
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: {ranked}:4: query 'a' skips rank 2\n"

    def test_malformed_line_exits_3(self, tmp_path, capsys):
        ranked = self._ranked(tmp_path, ["a,1,1"])
        assert main(["retrieval-eval", "--ranked", ranked,
                     "--out", str(tmp_path / "o")]) == 3
        assert "expected" in capsys.readouterr().err

    def test_file_of_comments_only_exits_3(self, tmp_path, capsys):
        ranked = self._ranked(tmp_path, ["# query,rank,correct,confidence", "", "# none"])
        assert main(["retrieval-eval", "--ranked", ranked,
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: {ranked}: no predictions\n"
        assert not (tmp_path / "o").exists()


@st.composite
def _face_placements(draw):
    """(frame side, face side, x, y): a square face at least side/5 wide, inside the frame."""
    side = draw(st.integers(60, 120))
    face = draw(st.integers(-(-side // 5), side))
    return side, face, draw(st.integers(0, side - face)), draw(st.integers(0, side - face))


class TestEnrollAuth:
    def test_enroll_then_auth_accepts(self, tmp_path, capsys):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        assert main(["enroll", "--gallery", gallery, "--name", "alice", face]) == 0
        out = capsys.readouterr().out
        assert "enrolled alice" in out and "(1/5" in out
        assert main(["auth", "--gallery", gallery, face]) == 0
        assert "accepted identity=alice" in capsys.readouterr().out

    def test_blurry_image_rejected(self, tmp_path, capsys):
        blank = _write_frame(tmp_path / "blank.pgm", "blank")
        gallery = str(tmp_path / "g.txt")
        assert main(["enroll", "--gallery", gallery, "--name", "alice", blank]) == 1
        assert "blurry" in capsys.readouterr().out
        assert load_gallery(gallery).total_embeddings() == 0

    @pytest.mark.parametrize("flag", ["--pixel-threshold=0", "--count-threshold=0"])
    def test_sharpness_gate_has_no_off_switch(self, tmp_path, flag):
        """enroll judges sharpness at the library's thresholds; no flag moves them."""
        blank = _write_frame(tmp_path / "blank.pgm", "blank")
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(["enroll", "--gallery", str(tmp_path / "g.txt"), "--name", "a", blank, flag])
        assert exc.value.code == 2 and not (tmp_path / "g.txt").exists()

    def test_enroll_after_an_all_blurry_enroll(self, tmp_path, capsys):
        """A gallery saved with no rows takes the next enroll."""
        blank = _write_frame(tmp_path / "blank.pgm", "blank")
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        assert main(["enroll", "--gallery", gallery, "--name", "alice", blank]) == 1
        assert main(["enroll", "--gallery", gallery, "--name", "alice", face]) == 0
        capsys.readouterr()
        assert main(["auth", "--gallery", gallery, face]) == 0
        assert "accepted identity=alice" in capsys.readouterr().out

    def test_sixth_image_hits_capacity(self, tmp_path, capsys):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        assert main(["enroll", "--gallery", gallery, "--name", "alice"] + [face] * 6) == 1
        out = capsys.readouterr().out
        assert out.count("enrolled alice") == 5
        assert "capacity" in out
        assert load_gallery(gallery).total_embeddings() == 5

    def test_enrollment_accumulates_across_invocations(self, tmp_path):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        assert main(["enroll", "--gallery", gallery, "--name", "alice", face]) == 0
        assert main(["enroll", "--gallery", gallery, "--name", "alice", face]) == 0
        assert load_gallery(gallery).total_embeddings() == 2

    def test_auth_reads_the_same_gallery_with_or_without_its_companion(self, tmp_path, capsys):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = tmp_path / "g.txt"
        g = Gallery()
        rng = np.random.default_rng(5)
        for k in range(12):  # distractors enrolled round-robin, so not in file order
            enroll(g, f"d{k % 4}", rng.normal(size=32))
        save_gallery(g, gallery)
        assert main(["enroll", "--gallery", str(gallery), "--name", "alice", face]) == 0
        companion = Path(f"{gallery}.rows")
        capsys.readouterr()
        runs = []
        for damage in (None, "flip", "delete"):
            if damage == "flip":  # the last row byte, before the 32-byte checksum
                data = bytearray(companion.read_bytes())
                data[-33] ^= 1
                companion.write_bytes(bytes(data))
            elif damage == "delete":
                companion.unlink()
            runs.append((main(["auth", "--gallery", str(gallery), face]), capsys.readouterr()))
            assert gallery.read_text(encoding="utf-8") == gallery_to_text(load_gallery(gallery))
        assert runs[0][0] == 0 and "accepted identity=alice" in runs[0][1].out
        assert runs[1:] == runs[:1] * 2

    def test_auth_stranger_at_tight_threshold(self, tmp_path, capsys):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        capsys.readouterr()
        assert main(["auth", "--gallery", gallery, face, "--sim-threshold", "1.0"]) == 1
        assert "stranger" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--spoof-threshold", "--eye-threshold"])
    def test_auth_takes_no_spoof_or_eye_threshold(self, tmp_path, capsys, flag):
        """The stand-in spoof and eye scorers are the constant 0.0, so such a
        threshold could only reject every frame: it is not a flag."""
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["auth", "--gallery", gallery, face, flag, "0.5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {flag} 0.5" in captured.err

    @pytest.mark.parametrize("width, height", [(1, 1), (29, 60), (1, 200)])
    def test_auth_refuses_a_frame_narrower_than_30_px(self, tmp_path, capsys, monkeypatch,
                                                      width, height):
        """Below 30 px the smallest face, width / 5, is under 6 px: exit 3 with
        one 'error:' line, before the pyramid resamples anything."""
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        narrow = tmp_path / "narrow.pgm"
        write_pgm(GrayImage(np.full((height, width), 255.0)), narrow)
        capsys.readouterr()

        def no_resize(*args):
            raise AssertionError("the pyramid resampled a frame it should refuse")

        monkeypatch.setattr(detect_module, "bilinear_resize", no_resize)
        assert main(["auth", "--gallery", gallery, str(narrow)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: min_face must be") and captured.err.count("\n") == 1

    def test_auth_takes_a_frame_30_px_wide(self, tmp_path, capsys):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        frame = tmp_path / "frame.pgm"
        write_pgm(GrayImage(np.full((30, 30), 255.0)), frame)
        capsys.readouterr()
        assert main(["auth", "--gallery", gallery, str(frame)]) in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["face", "dark", "blank"])
    def test_default_spoof_scorer_is_a_constant(self, tmp_path, kind):
        """The default spoof scorer calls every frame live."""
        frame = read_pgm(_write_frame(tmp_path / "f.pgm", kind))
        assert cli._default_scorers().spoof(frame) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(placement=_face_placements(), face_level=st.integers(200, 255),
           dark_level=st.integers(0, 40))
    @example(placement=(120, 90, 15, 30), face_level=235, dark_level=30)
    def test_auth_never_calls_a_bright_face_invalid(self, placement, face_level, dark_level):
        """A bright square face at least side/5 wide, anywhere in a dark frame,
        is never an invalid_face at the default thresholds: the frame's spoof
        score does not depend on where the face sits."""
        side, face, x, y = placement
        pixels = np.full((side, side), float(dark_level))
        pixels[y:y + face, x:x + face] = face_level
        g = Gallery()
        enroll(g, "mallory", np.random.default_rng(0).normal(size=32))
        with tempfile.TemporaryDirectory() as tmp:
            gallery, frame = Path(tmp) / "g.txt", Path(tmp) / "frame.pgm"
            gallery.write_text(gallery_to_text(g))
            write_pgm(GrayImage(pixels), frame)
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["auth", "--gallery", str(gallery), str(frame)])
        assert code in (0, 1) and not out.getvalue().startswith("invalid_face"), out.getvalue()

    def test_auth_no_face_on_dark_frame(self, tmp_path, capsys):
        face = _write_frame(tmp_path / "face.pgm", "face")
        dark = _write_frame(tmp_path / "dark.pgm", "dark")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        capsys.readouterr()
        assert main(["auth", "--gallery", gallery, dark]) == 1
        assert "no_face" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_auth_non_finite_threshold_exits_2(self, tmp_path, capsys, value):
        """A non-finite threshold is a usage error: at a NaN --sim-threshold the
        similarity test would pass this stranger."""
        face = _write_frame(tmp_path / "face.pgm", "face")
        g = Gallery()
        enroll(g, "mallory", np.random.default_rng(0).normal(size=32))
        gallery = tmp_path / "g.txt"
        gallery.write_text(gallery_to_text(g))
        assert main(["auth", "--gallery", str(gallery), face]) == 1
        assert "stranger" in capsys.readouterr().out
        assert main(["auth", "--gallery", str(gallery), face, f"--sim-threshold={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err

    def test_auth_missing_gallery_exits_3(self, tmp_path, capsys):
        face = _write_frame(tmp_path / "face.pgm", "face")
        assert main(["auth", "--gallery", str(tmp_path / "none.txt"), face]) == 3
        assert "error:" in capsys.readouterr().err

    def test_auth_corrupt_gallery_exits_3(self, tmp_path):
        face = _write_frame(tmp_path / "face.pgm", "face")
        bad = tmp_path / "bad.txt"
        bad.write_text("not a gallery\n")
        assert main(["auth", "--gallery", str(bad), face]) == 3

    def test_auth_corrupt_frame_exits_3(self, tmp_path):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n9 9\n255\n123")
        assert main(["auth", "--gallery", gallery, str(bad)]) == 3

    def test_auth_reads_the_frame_before_the_gallery(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n9 9\n255\n123")
        assert main(["auth", "--gallery", str(tmp_path / "none.txt"), str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "none.txt" not in err

    def test_malformed_detector_output_exits_3(self, tmp_path, capsys, monkeypatch):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        capsys.readouterr()
        monkeypatch.setattr(cli._BrightnessScorer, "stage1", lambda self, crops, boxes: 0.9)
        assert main(["auth", "--gallery", gallery, face]) == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_confidence_in_the_first_scored_chunk_exits_3(self, tmp_path, capsys,
                                                              monkeypatch):
        """auth rescores only the largest boxes, and validates each of them:
        1.5 for the first box stage 2 sees is a malformed output."""
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        capsys.readouterr()
        calls = []

        def stage2(self, crops, boxes):
            calls.append(len(crops))
            conf = self.stage1(crops, boxes)
            if len(calls) == 1:
                conf[0] = 1.5
            return conf

        monkeypatch.setattr(cli._BrightnessScorer, "stage2", stage2)
        assert main(["auth", "--gallery", gallery, face]) == 3
        assert capsys.readouterr().err == "error: confidence must lie in [0, 1]\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["a\nb", "a\u2028b", "a\x85b", "a\rb", "a\udcffb"])
    def test_enroll_unstorable_name_exits_3(self, tmp_path, capsys, name):
        """A name the gallery file cannot hold as one line is refused before the
        file is rewritten, so the gallery still loads."""
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = tmp_path / "g.txt"
        assert main(["enroll", "--gallery", str(gallery), "--name", "alice", face]) == 0
        before = gallery.read_bytes()
        capsys.readouterr()
        assert main(["enroll", "--gallery", str(gallery), "--name", name, face]) == 3
        assert capsys.readouterr().err.startswith("error: identity name")
        assert gallery.read_bytes() == before
        assert list(load_gallery(gallery).identities) == ["alice"]

    def test_enroll_unreadable_image_exits_3(self, tmp_path):
        assert main(["enroll", "--gallery", str(tmp_path / "g.txt"),
                     "--name", "alice", str(tmp_path / "missing.pgm")]) == 3


def _write_text(path, text):
    path.write_text(text)
    return path


def _run_cli(argv):
    """(exit code, stderr) of one in-process run; an exception that escapes
    main (a traceback for a user) fails the calling test."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_fails_cleanly(result, malformed):
    """A malformed input gives exit 3 and one 'error:' line; exit 3 always
    comes with that line, and any other exit is a verdict (0 or 1) with an
    empty stderr."""
    code, err = result
    if malformed:
        assert code == 3
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1) and err == ""


def _well_formed(reader, path):
    try:
        reader(path)
    except ValueError:  # GalleryFormatError and UnicodeDecodeError are ValueErrors
        return False
    return True


class TestMalformedInput:
    """Edited gallery files, PGM frames and score files: the CLI exits 3 with
    an 'error:' line for every one its reader rejects, and never with a
    traceback."""

    @staticmethod
    def _files(tmp):
        blank = _write_frame(Path(tmp) / "blank.pgm", "blank")
        g = Gallery()
        rng = np.random.default_rng(7)
        for name, count in (("alice", 2), ("bob", 1), ("carol", 3)):
            for _ in range(count):
                enroll(g, name, rng.normal(size=32))  # the toy embedder's dim
        return blank, gallery_to_text(g)

    @settings(max_examples=200, deadline=None)
    @given(edit=GALLERY_EDITS)
    def test_gallery_files(self, edit):
        with tempfile.TemporaryDirectory() as tmp:
            blank, text = self._files(tmp)
            gallery = Path(tmp) / "g.txt"
            mutated = mutate_gallery(text, *edit)
            gallery.write_text(mutated)
            malformed = not _well_formed(load_gallery, gallery)
            _assert_fails_cleanly(_run_cli(["auth", "--gallery", str(gallery), blank]), malformed)
            _assert_fails_cleanly(
                _run_cli(["enroll", "--gallery", str(gallery), "--name", "dave", blank]), malformed)
            assert gallery.read_text() == mutated or not malformed

    @settings(max_examples=200, deadline=None)
    @given(edit=PGM_EDITS)
    def test_pgm_frames(self, edit):
        with tempfile.TemporaryDirectory() as tmp:
            blank, text = self._files(tmp)
            gallery = Path(tmp) / "g.txt"
            gallery.write_text(text)
            frame = Path(tmp) / "frame.pgm"
            frame.write_bytes(mutate_pgm(Path(blank).read_bytes(), *edit))
            malformed = not _well_formed(read_pgm, frame)
            _assert_fails_cleanly(_run_cli(["auth", "--gallery", str(gallery), str(frame)]), malformed)
            _assert_fails_cleanly(
                _run_cli(["enroll", "--gallery", str(gallery), "--name", "dave", str(frame)]), malformed)

    @settings(max_examples=200, deadline=None)
    @given(edit=SCORE_EDITS)
    def test_score_files(self, edit):
        with tempfile.TemporaryDirectory() as tmp:
            scores = Path(tmp) / "scores.txt"
            scores.write_bytes(mutate_scores(b"1,0.9\n1,0.7\n0,0.2\n0,0.6\n", *edit))
            malformed = not _well_formed(cli._read_scores_file, scores)
            _assert_fails_cleanly(
                _run_cli(["eval", "--scores", str(scores), "--out", str(Path(tmp) / "o")]), malformed)

    @staticmethod
    def _model_arrays():
        """The entries save_model writes for the toy embedder's shape."""
        model = init_embedding_model(256, n_classes=2, hidden=(64,), embed_dim=32, seed=3)
        arrays = {"n_layers": np.array(2), "head_W": model.head_W}
        for i, layer in enumerate(model.layers):
            arrays[f"W{i}"], arrays[f"b{i}"] = layer.W, layer.b
        return arrays

    _BAD_MODELS = {  # name: (entries to drop, entries to set) or the file's bytes
        "zip-garbage": b"PK\x03\x04garbage",
        "text": b"not a model\n",
        "empty": b"",
        "no-n_layers": (["n_layers"], {}),
        "no-W1": (["W1"], {}),
        "no-b0": (["b0"], {}),
        "n_layers-0": ([], {"n_layers": np.array(0)}),
        "n_layers-negative": ([], {"n_layers": np.array(-1)}),
        "n_layers-vector": ([], {"n_layers": np.array([2])}),
        "n_layers-float": ([], {"n_layers": np.array(2.0)}),
        "W0-1d": ([], {"W0": np.ones(256)}),
        "W0-text": ([], {"W0": np.array([["a"] * 256] * 64)}),
        "W0-nan": ([], {"W0": np.full((64, 256), np.nan)}),
        "head_W-inf": ([], {"head_W": np.full((2, 32), np.inf)}),
        "W1-unchained": ([], {"W1": np.ones((32, 63))}),
        "b1-short": ([], {"b1": np.zeros(31)}),
        "head_W-narrow": ([], {"head_W": np.ones((2, 31))}),
        "head_W-1d": ([], {"head_W": np.ones(32)}),
        "activations-relu": ([], {"activations": np.array(["relu", "relu"])}),
        "activations-identity": ([], {"activations": np.array(["identity", "identity"])}),
    }

    @pytest.mark.parametrize("case", sorted(_BAD_MODELS))
    def test_model_files(self, tmp_path, case):
        """auth and enroll reject each bad --model file with exit 3 and one
        'error:' line that names it, and enroll leaves the gallery alone."""
        blank, text = self._files(tmp_path)
        gallery = tmp_path / "g.txt"
        gallery.write_text(text)
        model = tmp_path / "model.npz"
        bad = self._BAD_MODELS[case]
        if isinstance(bad, bytes):
            model.write_bytes(bad)
        else:
            arrays = {k: v for k, v in self._model_arrays().items() if k not in bad[0]}
            np.savez(model, **{**arrays, **bad[1]})
        for argv in (["auth", "--gallery", str(gallery), "--model", str(model), blank],
                     ["enroll", "--gallery", str(gallery), "--name", "dave", "--model",
                      str(model), blank]):
            code, err = _run_cli(argv)
            assert code == 3 and err.startswith(f"error: {model}: ") and err.count("\n") == 1
        assert gallery.read_text() == text

    def test_model_of_another_input_width(self, tmp_path):
        """A well-formed model whose first layer does not take the toy crop's
        256 inputs: auth and enroll exit 3 with one 'error:' line that names
        it, and enroll leaves the gallery alone."""
        blank, text = self._files(tmp_path)
        gallery = tmp_path / "g.txt"
        gallery.write_text(text)
        arrays = self._model_arrays()
        arrays["W0"] = arrays["W0"][:, :100]
        model = tmp_path / "model.npz"
        np.savez(model, **arrays)
        for argv in (["auth", "--gallery", str(gallery), "--model", str(model), blank],
                     ["enroll", "--gallery", str(gallery), "--name", "dave", "--model",
                      str(model), blank]):
            code, err = _run_cli(argv)
            assert code == 3 and err.startswith(f"error: {model}: ") and err.count("\n") == 1
        assert gallery.read_text() == text

    def test_model_whose_output_overflows(self, tmp_path):
        """Finite weights whose forward pass overflows: auth and enroll both exit
        3 with one 'error:' line and no numpy warning, and enroll leaves the
        gallery alone."""
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = tmp_path / "g.txt"
        assert _run_cli(["enroll", "--gallery", str(gallery), "--name", "a", face]) == (0, "")
        text = gallery.read_text()
        arrays = self._model_arrays()
        arrays["W0"] = np.full_like(arrays["W0"], 1e308)
        model = tmp_path / "model.npz"
        np.savez(model, **arrays)
        for argv in (["auth", "--gallery", str(gallery), "--model", str(model), face],
                     ["enroll", "--gallery", str(gallery), "--name", "b", "--model",
                      str(model), face]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = _run_cli(argv)
            assert (result, caught) == ((3, "error: model output is not finite\n"), [])
        assert gallery.read_text() == text

    @pytest.mark.parametrize("text,lineno", [
        ("q1,1,1,nan\n", 1),
        ("q1,x,1,0.5\n", 1),
        ("q1,1,1,0.9\nq1,1,0,0.8\nq2,-3,1,inf\n", 2),
        ("q1,1,1,0.9\nq2,-3,1,0.5\n", 2),
        ("q1,1,1,inf\n", 1),
        ("q1,1,2,0.5\n", 1),
        ("q1,1,1\n", 1),
        ("q1,1,0,0.9\nq1,3,1,0.5\n", 2),
        ("q1,4,0,0.9\nq2,1,1,0.8\nq1,1,1,0.5\nq1,2,0,0.4\n", 1),
    ])
    def test_ranked_files(self, tmp_path, text, lineno):
        """A non-finite confidence, a field that is not a number, a rank below 1,
        a rank repeated within a query, a correct flag other than 0 or 1 and a
        short line each name their line; a gap in a query's ranks names the
        line of the rank after it."""
        ranked = tmp_path / "ranked.txt"
        ranked.write_text(text)
        code, err = _run_cli(["retrieval-eval", "--ranked", str(ranked),
                              "--out", str(tmp_path / "o")])
        assert code == 3
        assert err.startswith(f"error: {ranked}:{lineno}: ") and err.count("\n") == 1


class TestConsoleScript:
    def test_entry_point_runs(self):
        exe = shutil.which("cotface")
        assert exe is not None
        proc = subprocess.run([exe, "refcheck"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "all reference checks passed" in proc.stdout

    def test_module_entry_point_runs(self):
        # `python -m cotface` from the source tree, with no install needed
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "cotface", "refcheck"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "all reference checks passed" in proc.stdout
