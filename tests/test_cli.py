"""Command-line interface: subcommands, exit codes, output files."""

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotface import cli
from cotface.cli import main
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


def _float_flags():
    """(subcommand, flag) for every option that the parser reads as a float."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, flag) for name, p in sub.choices.items() for a in p._actions
            if a.type is float for flag in a.option_strings]


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
        }[command]

    def test_every_float_flag_is_covered(self):
        assert {c for c, _ in _float_flags()} == {"refcheck", "gradcheck", "train", "enroll",
                                                  "auth"}

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_loss_that_overflows_ends_in_one_diverged_line(self, tmp_path):
        """A finite --s 1e308 overflows the logits at the first step: exit 1, and
        the run's last word on stderr is one 'diverged:' line, not a traceback."""
        code, err = _run_cli(self._argv("train", tmp_path) + ["--s", "1e308"])
        assert code == 1
        assert err.splitlines()[-1] == "diverged: non-finite loss inf at step 0"


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

    def test_unreachable_tolerance_fails(self, capsys):
        assert main(["refcheck", "--tol", "1e-9"]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestGradcheck:
    def test_single_loss_passes(self, capsys):
        assert main(["gradcheck", "--loss", "arcface", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "arcface" in out and "PASS" in out

    def test_stricter_than_float_noise_fails(self, capsys):
        rc = main(["gradcheck", "--loss", "cosface", "--trials", "3", "--tol", "1e-18"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


_TRAIN_ARGS = [
    "train", "--task", "embedding", "--loss", "arcface",
    "--steps", "8", "--lr", "0.1", "--seed", "3",
    "--classes", "4", "--dim", "8", "--per-class", "6",
    "--hidden", "16", "--embed-dim", "8", "--batch-size", "8",
    "--s", "8.0", "--m", "0.05",
]


class TestTrain:
    def test_writes_report_metrics_and_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_TRAIN_ARGS + ["--out", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "step,loss"
        assert len(report) == 1 + 8
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "metric,value"
        assert {line.split(",")[0] for line in metrics[1:]} == {"eer_initial", "eer_final"}
        assert (out / "steps.log").read_text().splitlines()[0] == "step,loss,wall_ms"
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
        assert {line.split(",")[0] for line in metrics[1:]} == {"auc_initial", "auc_final"}

    def test_unknown_loss_is_reported_as_bad_input(self, tmp_path, capsys):
        args = ["train", "--task", "embedding", "--loss", "nonesuch",
                "--steps", "1", "--out", str(tmp_path / "x")]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_binary_loss_is_a_usage_error(self, tmp_path, capsys):
        args = ["train", "--task", "binary-eye-state", "--loss", "nonesuch",
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


class TestScoresParser:
    """cli._read_scores_file, block by block, against the line loop of
    oracles.read_scores_loop: equal arrays bit for bit, or the same ValueError."""

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r"])),
                          min_size=1, max_size=12),
           last_ending=st.booleans(),
           block_chars=st.integers(1, 40))
    def test_matches_line_loop(self, lines, last_ending, block_chars):
        text = "".join(line + ending for line, ending in lines)
        if not last_ending:
            text = text[:-len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = read_scores_loop(path)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    cli._read_scores_file(path, block_chars)
                assert str(got.value) == str(exc)
                return
            pairs = cli._read_scores_file(path, block_chars)
        for got, want in zip((pairs.genuine, pairs.impostor), expected):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_well_formed_blocks(self, tmp_path):
        """A long well-formed file with CRLF endings, read whole and in blocks
        that cut lines (and CRLF pairs) at every offset."""
        rng = np.random.default_rng(3)
        labels = rng.choice(["1", "0", "genuine", "Impostor"], 2000)
        text = "".join(f"{lab},{v!r}\r\n" for lab, v in zip(labels, rng.normal(size=2000).tolist()))
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = read_scores_loop(path)
        for block_chars in (7, 64, 1000, 1 << 17):
            pairs = cli._read_scores_file(path, block_chars)
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

    def test_malformed_line_exits_3(self, tmp_path, capsys):
        ranked = self._ranked(tmp_path, ["a,1,1"])
        assert main(["retrieval-eval", "--ranked", ranked,
                     "--out", str(tmp_path / "o")]) == 3
        assert "expected" in capsys.readouterr().err


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

    def test_auth_spoof_threshold_blocks(self, tmp_path, capsys):
        # the toy spoof model scores this frame ~0.55: fake at threshold 0.5
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        capsys.readouterr()
        assert main(["auth", "--gallery", gallery, face, "--spoof-threshold", "0.5"]) == 1
        assert "invalid_face" in capsys.readouterr().out

    def test_auth_no_face_on_dark_frame(self, tmp_path, capsys):
        face = _write_frame(tmp_path / "face.pgm", "face")
        dark = _write_frame(tmp_path / "dark.pgm", "dark")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        capsys.readouterr()
        assert main(["auth", "--gallery", gallery, dark]) == 1
        assert "no_face" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--sim-threshold", "--spoof-threshold", "--eye-threshold"])
    def test_auth_non_finite_threshold_exits_2(self, tmp_path, capsys, flag, value):
        """A non-finite threshold is a usage error: at a NaN --sim-threshold the
        similarity test would pass this stranger."""
        face = _write_frame(tmp_path / "face.pgm", "face")
        g = Gallery()
        enroll(g, "mallory", np.random.default_rng(0).normal(size=32))
        gallery = tmp_path / "g.txt"
        gallery.write_text(gallery_to_text(g))
        assert main(["auth", "--gallery", str(gallery), face]) == 1
        assert "stranger" in capsys.readouterr().out
        assert main(["auth", "--gallery", str(gallery), face, f"{flag}={value}"]) == 2
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

    def test_malformed_detector_output_exits_3(self, tmp_path, capsys, monkeypatch):
        face = _write_frame(tmp_path / "face.pgm", "face")
        gallery = str(tmp_path / "g.txt")
        main(["enroll", "--gallery", gallery, "--name", "alice", face])
        capsys.readouterr()
        monkeypatch.setattr(cli._BrightnessScorer, "stage1", lambda self, crops, boxes: 0.9)
        assert main(["auth", "--gallery", gallery, face]) == 3
        assert "error:" in capsys.readouterr().err

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
