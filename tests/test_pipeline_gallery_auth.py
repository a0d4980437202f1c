"""Gallery storage, matching, and the end-to-end authentication order."""

import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import math
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cotface.angular import l2_normalize
from cotface.pipeline import gallery as gallery_module
from cotface.pipeline import (
    AuthConfig,
    AuthScorers,
    Gallery,
    GalleryFormatError,
    GrayImage,
    MAX_EMBEDDINGS_PER_IDENTITY,
    authenticate,
    detect,
    enroll,
    gallery_to_text,
    largest_face,
    load_gallery,
    match,
    save_gallery,
    sharpness_gate,
    spoof_gate,
)

from mutations import (
    COMPANION_EDITS,
    GALLERY_EDITS,
    TABLE_FORGERIES,
    mutate_companion,
    mutate_gallery,
)
from oracles import format_17g_rows, match_loop

auth_module = importlib.import_module("cotface.pipeline.auth")
detect_module = importlib.import_module("cotface.pipeline.detect")


# every line break str.splitlines knows besides "\n"
_LINE_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _unit(seed, dim=8):
    return l2_normalize(np.random.default_rng(seed).normal(size=dim))


@contextlib.contextmanager
def _split_over(cores):
    """match slices every gallery of 2 or more rows as if the process had cores cores."""
    with mock.patch.object(gallery_module, "_SPLIT_VALUES", 0), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: range(cores), create=True):
        yield


def _one_row_gallery(dim):
    g = Gallery()
    enroll(g, "alice", _unit(0, dim))
    return g


class TestEnroll:
    def test_first_enrollment(self):
        g = Gallery()
        res = enroll(g, "alice", np.array([3.0, 4.0]))
        assert res.accepted and res.reason is None and res.count == 1
        np.testing.assert_allclose(g.identities["alice"][0], [0.6, 0.8], atol=1e-15)

    def test_blurry_rejected_without_mutation(self):
        g = Gallery()
        enroll(g, "alice", _unit(0))
        before = [e.copy() for e in g.identities["alice"]]
        res = enroll(g, "alice", _unit(1), sharpness_ok=False)
        assert (res.accepted, res.reason, res.count) == (False, "blurry", 1)
        assert len(g.identities["alice"]) == 1
        np.testing.assert_array_equal(g.identities["alice"][0], before[0])

    def test_capacity_cap_is_five(self):
        g = Gallery()
        for i in range(MAX_EMBEDDINGS_PER_IDENTITY):
            assert enroll(g, "alice", _unit(i)).accepted
        res = enroll(g, "alice", _unit(99))
        assert (res.accepted, res.reason, res.count) == (False, "capacity", 5)
        assert g.total_embeddings() == 5

    def test_blurry_reported_even_at_capacity(self):
        g = Gallery()
        for i in range(5):
            enroll(g, "alice", _unit(i))
        assert enroll(g, "alice", _unit(9), sharpness_ok=False).reason == "blurry"

    def test_dim_mismatch_rejected(self):
        g = Gallery()
        enroll(g, "alice", _unit(0, dim=8))
        with pytest.raises(ValueError, match="dim"):
            enroll(g, "bob", _unit(1, dim=9))

    def test_overflowing_norm_rejected(self):
        g = Gallery()
        with pytest.raises(ValueError, match="overflow"):
            enroll(g, "big", np.array([1.5e308, 1.5e308]))
        assert g.identities == {}

    def test_huge_embedding_whose_norm_is_a_float_is_enrolled(self):
        g = Gallery()
        assert enroll(g, "big", np.array([3e200, 4e200])).accepted
        np.testing.assert_array_equal(g.identities["big"], [[0.6, 0.8]])
        assert match(g, [4e200, -3e200], sim_threshold=-1.0) == ("big", 0.0)

    @pytest.mark.parametrize("embedding", [np.ones((2, 2)), np.ones((1, 4)), np.float64(2.0)])
    def test_embedding_that_is_not_1d_rejected_without_mutation(self, embedding):
        for g in (Gallery(), _one_row_gallery(4)):
            before = g.identities
            with pytest.raises(ValueError, match=re.escape(f"1-D, got shape {embedding.shape}")):
                enroll(g, "a", embedding)
            assert g.total_embeddings() == len(before) and g.identities.keys() == before.keys()

    def test_bad_name_rejected(self):
        g = Gallery()
        enroll(g, "alice", _unit(0))
        for name in ["", "a\nb", "\r\n", "a\udcffb"] + [f"a{c}b" for c in _LINE_BREAKS]:
            with pytest.raises(ValueError, match="identity name"):
                enroll(g, name, _unit(1))
        assert list(g.identities) == ["alice"] and g.total_embeddings() == 1

    @given(names=st.lists(
        st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(_LINE_BREAKS)),
                max_size=6),
        min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_accepted_names_round_trip(self, names):
        """Every name enroll accepts comes back from save_gallery/load_gallery."""
        g = Gallery()
        for k, name in enumerate(names):
            try:
                enroll(g, name, _unit(k, dim=3))
            except ValueError:
                pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            save_gallery(g, path)
            loaded = load_gallery(path)
        assert list(loaded.identities) == list(g.identities)
        for name, rows in g.identities.items():
            np.testing.assert_array_equal(np.array(loaded.identities[name]), np.array(rows))


class TestMatch:
    def test_self_match(self):
        g = Gallery()
        v = _unit(3)
        enroll(g, "alice", v)
        name, sim = match(g, v)
        assert name == "alice" and sim >= 1.0 - 1e-9

    def test_empty_gallery(self):
        assert match(Gallery(), _unit(0)) == (None, -1.0)

    def test_orthogonal_probe_is_stranger(self):
        g = Gallery()
        enroll(g, "alice", np.array([1.0, 0.0, 0.0]))
        name, sim = match(g, np.array([0.0, 1.0, 0.0]))
        assert name is None and sim == pytest.approx(0.0, abs=1e-15)

    def test_threshold_is_inclusive(self):
        g = Gallery()
        enroll(g, "alice", np.array([1.0, 1.0, 1.0, 1.0]))  # stored as [0.5]*4
        name, sim = match(g, np.array([1.0, 0.0, 0.0, 0.0]), sim_threshold=0.5)
        assert sim == 0.5 and name == "alice"

    def test_tie_keeps_earliest_enrolled(self):
        g = Gallery()
        v = _unit(4)
        enroll(g, "first", v)
        enroll(g, "second", v.copy())
        name, _ = match(g, v)
        assert name == "first"

    def test_tie_goes_to_first_enrolled_identity_not_earliest_row(self):
        g = Gallery()
        v = np.array([0.6, 0.8])
        enroll(g, "alice", np.array([1.0, 0.0]))
        enroll(g, "bob", v)
        enroll(g, "alice", v)
        assert match(g, v) == ("alice", 1.0)

    def test_nan_threshold_is_stranger(self):
        g = Gallery()
        v = _unit(3)
        enroll(g, "alice", v)
        name, sim = match(g, v, sim_threshold=float("nan"))
        assert name is None and sim >= 1.0 - 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf / inf
    @pytest.mark.parametrize("probe", [[np.nan, 0.0, 0.0], [1.0, np.inf, 0.0]])
    def test_non_finite_probe_is_stranger(self, probe):
        g = Gallery()
        enroll(g, "alice", np.array([1.0, 0.0, 0.0]))
        enroll(g, "bob", np.array([0.0, 1.0, 0.0]))
        name, sim = match(g, np.array(probe))
        assert name is None and np.isnan(sim)

    @pytest.mark.parametrize("probe", [[3.0], [-1.0], [1.0, 0.0, 0.0]])
    def test_probe_of_another_dim_rejected(self, probe):
        # einsum would broadcast a 1-element probe over every column of the rows
        g = Gallery()
        enroll(g, "alice", _unit(0, dim=32))
        with pytest.raises(ValueError, match=f"embedding dim {len(probe)} != gallery dim 32"):
            match(g, np.array(probe), sim_threshold=-1.0)

    @pytest.mark.parametrize("probe", [np.ones((1, 32)), np.ones((2, 16)), np.ones((32, 1))])
    def test_probe_that_is_not_1d_rejected(self, probe):
        # einsum would score a (1, 32) probe as a (1,) row of sums
        message = re.escape(f"embedding dim {probe.shape} != gallery dim 32")
        with pytest.raises(ValueError, match=message):
            match(_one_row_gallery(32), probe, sim_threshold=-1.0)

    @pytest.mark.parametrize("probe", [[1.5e308, 1.5e308], [1.5e308, -1.5e308]])
    def test_overflowing_probe_rejected(self, probe):
        # l2_normalize would divide such a probe by an infinite norm, to zeros
        g = Gallery()
        enroll(g, "alice", np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="norm overflows"):
            match(g, probe, sim_threshold=-0.5)

    def test_best_across_multiple_embeddings(self):
        g = Gallery()
        enroll(g, "alice", np.array([1.0, 0.0]))
        enroll(g, "bob", np.array([0.0, 1.0]))
        probe = np.array([0.2, 1.0])
        name, sim = match(g, probe)
        assert name == "bob" and sim == pytest.approx(1.0 / np.hypot(0.2, 1.0) * 1.0)


class TestGalleryMatrix:
    # Interleaved enrolls plant exact duplicates of one embedding at any rows
    # (over the examples, at every row offset mod 16), inside one identity
    # and across identities.  A kernel that gives equal rows unequal bits at
    # some offsets (BLAS gemv does), or a tie rule of "earliest row", picks
    # the wrong identity.
    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf / inf
    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 200),
           schedule=st.lists(st.tuples(st.integers(0, 11), st.booleans()),
                             min_size=1, max_size=64),
           probe_kind=st.sampled_from(["planted", "near", "random", "nan", "inf"]),
           threshold=st.sampled_from([-1.0, 0.5, 0.99]),
           seed=st.integers(0, 2**32 - 1),
           split=st.sampled_from([None, 2, 3, 5]))
    def test_match_agrees_with_scalar_loop(self, dim, schedule, probe_kind, threshold, seed,
                                           split):
        """split: None leaves the gallery to its size rule; k forces slices over k cores."""
        rng = np.random.default_rng(seed)
        planted = rng.normal(size=dim)
        g = Gallery()
        for who, duplicate in schedule:
            enroll(g, f"id{who}", planted if duplicate else rng.normal(size=dim))
        probe = {"planted": planted, "near": planted + 1e-3 * rng.normal(size=dim),
                 "random": rng.normal(size=dim)}.get(probe_kind, rng.normal(size=dim))
        if probe_kind in ("nan", "inf"):
            probe[rng.integers(dim)] = np.nan if probe_kind == "nan" else np.inf
        with _split_over(split) if split else contextlib.nullcontext():
            name, sim = match(g, probe, threshold)
        want_name, want_sim = match_loop(g.identities, probe, threshold)
        assert name == want_name
        assert (math.isnan(sim) and math.isnan(want_sim)) or abs(sim - want_sim) <= 1e-12

    @pytest.mark.parametrize("n,dim,cores", [
        (40, 3, 2), (40, 127, 3), (41, 129, 4), (25, 1, 5), (23, 8193, 5),
        (1, 8193, 2), (2, 8193, 2), (3, 131073, 3),  # a lone row's sum is in another order
    ])
    def test_split_match_keeps_the_whole_einsums_bits_and_rule(self, n, dim, cores):
        """The embedding on both sides of every cut, each row under a random owner:
        the split's best similarity has the single einsum's bits, and its identity
        the smallest owner rank among the rows that reach it."""
        rng = np.random.default_rng(n * dim)
        planted = rng.normal(size=dim)
        parts = max(1, min(cores, n // 2))
        edges = {c + side for c in (n * k // parts for k in range(1, parts)) for side in (-1, 0)}
        g, owners = Gallery(), rng.permutation(np.arange(n) % -(-n // 5))
        for row in range(n):
            at_edge = n <= 3 or row in edges
            enroll(g, f"id{owners[row]}", planted if at_edge else rng.normal(size=dim))
        rows, ranks = g._rows[:n], g._owner[:n]
        for probe in [planted] + [planted + 1e-3 * rng.normal(size=dim) for _ in range(4)]:
            sims = np.einsum("ij,j->i", rows, l2_normalize(probe))
            want = g._names[ranks[sims == sims.max()].min()], float(sims.max())
            with _split_over(cores):
                assert match(g, probe, sim_threshold=-1.0) == want

    def test_a_gallery_below_the_split_size_starts_no_thread(self, monkeypatch):
        """auth's 500 x 32 gallery is scored in the calling thread."""
        monkeypatch.setattr(gallery_module, "_pools", {})
        g, rng = Gallery(), np.random.default_rng(5)
        for k in range(500):
            enroll(g, f"id{k // 5}", rng.normal(size=32))
        threads = threading.active_count()
        match(g, rng.normal(size=32))
        assert threading.active_count() == threads and gallery_module._pools == {}

    def test_the_pool_module_loads_only_for_a_split(self):
        """concurrent.futures (which loads logging, about 6 ms) is not imported by a cold
        process that imports the CLI and matches a gallery below the split size."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = ("import sys\n"
                  "import cotface.cli\n"
                  "from cotface.pipeline import Gallery, enroll, match\n"
                  "g = Gallery()\n"
                  "enroll(g, 'a', [1.0, 0.0])\n"
                  "match(g, [1.0, 0.0])\n"
                  "print('concurrent.futures' in sys.modules, 'logging' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), check=True)
        assert proc.stdout == "False False\n"

    def test_concurrent_matches_agree(self, monkeypatch):
        """Four threads match one split gallery at once, from the pool's first use on,
        switching every microsecond: each answer is the one a lone call gives."""
        g, rng = Gallery(), np.random.default_rng(7)
        for k in range(400):
            enroll(g, f"id{k // 5}", rng.normal(size=16))
        probes = [g.identities[f"id{k}"][k % 5] + 1e-3 * rng.normal(size=16) for k in range(80)]
        want = [match(g, p) for p in probes]
        monkeypatch.setattr(gallery_module, "_pools", {})
        found, interval = [], sys.getswitchinterval()
        threads = [threading.Thread(target=lambda: found.append([match(g, p) for p in probes]))
                   for _ in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            with _split_over(3):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and found == [want] * 4

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_a_forked_child_matches_with_its_own_pool(self):
        """A child forked after the parent's pool ran has none of its threads;
        matching there must neither hang nor differ."""
        g, rng = Gallery(), np.random.default_rng(6)
        for k in range(4096):  # 2**19 values: the smallest gallery that is split
            enroll(g, f"id{k // 5}", rng.normal(size=128))
        probe = g.identities["id7"][2] + 1e-3 * rng.normal(size=128)
        with _split_over(2):
            want = match(g, probe)
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: report and leave without running pytest's exit
                try:
                    os.write(write, repr(match(g, probe)).encode())
                finally:
                    os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 30.0
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's match did not finish")
            time.sleep(0.01)
        with os.fdopen(read, "rb") as fh:
            assert fh.read().decode() == repr(want) and want[0] == "id7"

    def test_enroll_grows_the_matrix_geometrically(self):
        g = Gallery()
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(3000, 4))
        reallocations = 0
        for k, v in enumerate(vectors):
            before = g._rows
            assert enroll(g, f"id{k // 5}", v).accepted
            reallocations += g._rows is not before
        assert reallocations <= 2 * math.log2(len(vectors))
        stored = np.concatenate([np.array(rows) for rows in g.identities.values()])
        np.testing.assert_array_equal(stored, [v / np.linalg.norm(v) for v in vectors])

    def test_identities_are_read_only(self):
        g = Gallery()
        enroll(g, "alice", np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            g.identities["alice"][0][0] = 0.0
        assert match(g, np.array([1.0, 0.0])) == ("alice", 1.0)


class TestGalleryFile:
    def test_text_format(self):
        g = Gallery()
        enroll(g, "alice", np.array([1.0, 0.0]))
        enroll(g, "bob", np.array([3.0, 4.0]))
        text = gallery_to_text(g)
        assert text == (
            "facegallery 1\n"
            "2\n"
            "alice\n"
            "2 1\n"
            "1 0\n"
            "bob\n"
            "2 1\n"
            "0.59999999999999998 0.80000000000000004\n"
        )

    def test_round_trip_bit_exact(self, tmp_path):
        g = Gallery()
        rng = np.random.default_rng(5)
        for name in ("alice", "bob", "carol"):
            for _ in range(int(rng.integers(1, 6))):
                enroll(g, name, rng.normal(size=16))
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        loaded = load_gallery(path)
        assert list(loaded.identities) == list(g.identities)
        for name in g.identities:
            assert len(loaded.identities[name]) == len(g.identities[name])
            for a, b in zip(loaded.identities[name], g.identities[name]):
                assert np.array_equal(a, b)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        """A write that fails midway leaves the old file and no temporary file."""
        g = Gallery()
        enroll(g, "alice", _unit(1))
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        before, rows_before = path.read_bytes(), _companion(path).read_bytes()
        enroll(g, "bob", _unit(2))
        text_lines = gallery_module._text_lines

        def failing_lines(gallery):
            yield from itertools.islice(text_lines(gallery), 1)  # the header, not the rows
            raise OSError("disk full")

        monkeypatch.setattr(gallery_module, "_text_lines", failing_lines)
        with pytest.raises(OSError, match="disk full"):
            save_gallery(g, path)
        assert path.read_bytes() == before
        assert _companion(path).read_bytes() == rows_before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "g.txt.rows"]

    def test_load_does_not_renormalize(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("facegallery 1\n1\nalice\n2 1\n0.28 0.96\n")
        loaded = load_gallery(path)
        np.testing.assert_array_equal(loaded.identities["alice"][0], [0.28, 0.96])

    @pytest.mark.parametrize("text,fragment", [
        ("faceroster 1\n0\n", "magic"),
        ("facegallery 2\n0\n", "version"),
        ("facegallery 1\n", "bad identity count"),
        ("facegallery 1\n1\nalice\n2 1\n", "truncated"),
        ("facegallery 1\n1\nalice\n2 6\n" + "1 0\n" * 6, "cap"),
        ("facegallery 1\n2\nalice\n2 1\n1 0\nalice\n2 1\n0 1\n", "duplicate"),
        ("facegallery 1\n1\nalice\nnot numbers\n1 0\n", "dim count"),
        ("facegallery 1\n1\nalice\n3 1\n1 0\n", "length"),
        ("facegallery 1\n1\n\n2 1\n1 0\n", "empty identity"),
        ("facegallery x\n0\n", "version"),
        ("facegallery 1\n-1\n", "bad identity count"),
        ("facegallery 1\n1\nalice\n2 -1\n", "cap"),
        ("facegallery 1\n1\nalice\n2 1\n1 zero\n", "non-numeric"),
        ("facegallery 1\n1\nalice\n2 1\nnan 0\n", "norm nan"),
        ("facegallery 1\n1\nalice\n2 1\ninf 0\n", "norm inf"),
        ("facegallery 1\n1\nbob\n3 1\n3 0 0\n", "norm 3.0"),
        ("facegallery 1\n2\nalice\n2 1\n1 0\nbob\n3 1\n1 0 0\n", "gallery dim 2"),
        ("facegallery 1\n1\nalice\n2 1\n1 0\n\nextra\n", "trailing"),
        ("facegallery 1\n1\nalice\n2 1\n1 0\nbob\n2 1\n0 1\n", "trailing"),
        ("facegallery 1\n0\n\n", "trailing"),
        # lines end where str.splitlines ends them, the rule enroll's name
        # check relies on; str.split alone would take \x1c for a space
        ("facegallery 1\n1\nalice\n2 1\n0.6\x1c0.8\n", "length"),
        ("facegallery 1\n1\nalice\n2 1\n0.6\r0.8\n", "length"),
        ("facegallery 1\n1\nal\u2028ice\n2 1\n1 0\n", "dim count"),
    ])
    def test_malformed_files_rejected(self, tmp_path, text, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(GalleryFormatError, match=fragment):
            load_gallery(path)

    def test_crlf_line_endings_load(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"facegallery 1\r\n2\r\nalice\r\n2 1\r\n1 0\r\nbob\r\n0 0\r\n")
        loaded = load_gallery(path)
        assert list(loaded.identities) == ["alice", "bob"] and loaded.dim == 2
        np.testing.assert_array_equal(loaded.identities["alice"][0], [1.0, 0.0])

    def test_load_streams_the_file(self, tmp_path):
        """The reader holds a few lines at a time, never the file's text or
        its line list: its traced peak stays below the file's size."""
        g = Gallery()
        rng = np.random.default_rng(7)
        for k in range(2000):
            enroll(g, f"id{k // 5}", rng.normal(size=64))
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        tracemalloc.start()
        try:
            loaded = load_gallery(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.total_embeddings() == 2000
        assert peak < path.stat().st_size

    def test_save_holds_a_few_identities_of_text(self, tmp_path):
        """save_gallery renders and writes the text a chunk of identities at a
        time: its traced peak stays below a third of the text's size."""
        g = Gallery()
        rng = np.random.default_rng(8)
        for k in range(10_000):
            enroll(g, f"id{k // 5}", rng.normal(size=128))
        path = tmp_path / "g.txt"
        tracemalloc.start()
        try:
            save_gallery(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 3

    def test_text_is_the_per_value_format_across_chunks(self):
        """Identities enrolled round-robin, some with no rows, over several
        chunks of text: each row is its values' "%.17g" joined by spaces."""
        g = Gallery()
        rng = np.random.default_rng(9)
        for k in range(300):
            enroll(g, f"id{k % 70}", rng.normal(size=4) * 10.0 ** rng.integers(-6, 3, 4))
        for k in range(5):
            g._register(f"empty{k}")
        expected = [f"facegallery 1\n{len(g.identities)}\n"]
        for name, rows in g.identities.items():
            expected.append(f"{name}\n{4 if rows else 0} {len(rows)}\n")
            expected.append(format_17g_rows(rows, " ", "\n").decode())
        assert gallery_to_text(g) == "".join(expected)

    def test_companion_rows_are_bit_identical_and_skip_the_parse(self, tmp_path, monkeypatch):
        g = Gallery()
        rng = np.random.default_rng(3)
        enroll(g, "alice", np.array([3.0, -0.0, 4.0]))  # -0.0 survives "%.17g" as "-0"
        for k in range(40):  # enrolled round-robin: the file groups rows by identity
            enroll(g, f"id{k % 8}", rng.normal(size=3) * 10.0 ** rng.integers(-5, 150))
        g._register("nobody")  # "0 0"
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        monkeypatch.setattr(gallery_module, "_read_text", _no_text_parse)
        loaded = load_gallery(path)
        monkeypatch.undo()
        _companion(path).unlink()
        _assert_same_gallery(loaded, load_gallery(path))
        assert gallery_to_text(loaded) == gallery_to_text(g)

    def test_an_older_companion_reads_as_the_text_until_the_next_save(self, tmp_path,
                                                                       monkeypatch):
        """A companion of the format before the identity table (its own magic;
        a header of magic, text sha256, n and d; the rows; the checksum) sends
        the load down the text parse, and the next save replaces it."""
        g = Gallery()
        rng = np.random.default_rng(4)
        for name in ("bob", "alice", "bob", "carol", "alice"):
            enroll(g, name, rng.normal(size=4))
        g._register("dan")
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        text = path.read_bytes()
        body = struct.pack("<24s32sQQ", f"cotface-gallery-rows {np.dtype(np.float64).str}".encode(),
                           hashlib.sha256(text).digest(), g.total_embeddings(), g.dim)
        body += b"".join(g._rows[ids].tobytes() for _, ids in g._ids.values())
        older = body + hashlib.sha256(body).digest()
        _companion(path).write_bytes(older)
        parses = _count_text_parses(monkeypatch)
        beside_older = load_gallery(path)
        assert len(parses) == 1
        _companion(path).unlink()
        _assert_same_gallery(beside_older, load_gallery(path))
        _companion(path).write_bytes(older)
        save_gallery(beside_older, path)
        assert path.read_bytes() == text
        assert _companion(path).read_bytes().startswith(gallery_module._COMPANION_MAGIC)
        monkeypatch.setattr(gallery_module, "_read_text", _no_text_parse)
        _assert_same_gallery(load_gallery(path), beside_older)

    def test_empty_gallery_loads_and_grows(self, tmp_path):
        g = Gallery()
        g._register("dan")
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        loaded = load_gallery(path)
        assert loaded.total_embeddings() == 0 and loaded.dim is None
        assert enroll(loaded, "alice", _unit(1)).accepted
        assert match(loaded, _unit(1))[0] == "alice"

    def test_text_alone_is_not_hashed(self, tmp_path, monkeypatch):
        """With no companion beside it, the load reads the text once."""
        g = Gallery()
        enroll(g, "alice", _unit(1))
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        _companion(path).unlink()
        monkeypatch.setattr(gallery_module, "hashlib", None)
        assert gallery_to_text(load_gallery(path)) == gallery_to_text(g)

    def test_companion_takes_the_text_permissions(self, tmp_path):
        g = Gallery()
        enroll(g, "alice", _unit(1))
        path = tmp_path / "g.txt"
        path.write_text("")
        path.chmod(0o600)
        save_gallery(g, path)
        assert _companion(path).stat().st_mode & 0o777 == 0o600

    def test_failed_companion_write_keeps_both_files(self, tmp_path, monkeypatch):
        g = Gallery()
        enroll(g, "alice", _unit(1))
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        before = path.read_bytes(), _companion(path).read_bytes()
        enroll(g, "bob", _unit(2))

        class FailingHeader:
            size = gallery_module._COMPANION.size

            def pack(self, *args):
                raise OSError("disk full")

        monkeypatch.setattr(gallery_module, "_COMPANION", FailingHeader())
        with pytest.raises(OSError, match="disk full"):
            save_gallery(g, path)
        assert (path.read_bytes(), _companion(path).read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "g.txt.rows"]

    def test_failure_between_the_replaces_leaves_a_stale_companion(self, tmp_path, monkeypatch):
        """The text is replaced first; the old companion then no longer
        matches it, and the load reads the text."""
        g = Gallery()
        enroll(g, "alice", _unit(1))
        path = tmp_path / "g.txt"
        save_gallery(g, path)
        rows_before = _companion(path).read_bytes()
        enroll(g, "bob", _unit(2))
        replace = gallery_module.os.replace

        def text_only(src, dst):
            if str(dst).endswith(".rows"):
                raise OSError("power cut")
            replace(src, dst)

        monkeypatch.setattr(gallery_module.os, "replace", text_only)
        with pytest.raises(OSError, match="power cut"):
            save_gallery(g, path)
        monkeypatch.undo()
        assert path.read_text() == gallery_to_text(g)
        assert _companion(path).read_bytes() == rows_before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "g.txt.rows"]
        assert gallery_to_text(load_gallery(path)) == gallery_to_text(g)

    def test_format_error_is_a_value_error(self):
        assert issubclass(GalleryFormatError, ValueError)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_gallery(tmp_path / "absent.txt")


class TestGalleryProperties:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
           index=st.integers(0, 2), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           name=st.sampled_from(["alice", "mallory"]), sharp=st.booleans())
    def test_non_finite_never_enrolled(self, values, index, bad, name, sharp):
        g = Gallery()
        enroll(g, "alice", np.array([1.0, 0.0, 0.0]))
        before = gallery_to_text(g)
        values[index] = bad
        if sharp:
            with pytest.raises(ValueError, match="non-finite"):
                enroll(g, name, values)
        else:
            assert enroll(g, name, values, sharpness_ok=False).reason == "blurry"
        assert gallery_to_text(g) == before

    @settings(max_examples=200, deadline=None)
    @given(mutation=GALLERY_EDITS)
    def test_mutated_file_rejected_or_bounded(self, mutation):
        g = Gallery()
        rng = np.random.default_rng(11)
        for name, count in (("alice", 2), ("bob", 1), ("carol", 3)):
            for _ in range(count):
                enroll(g, name, rng.normal(size=4))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_text(mutate_gallery(gallery_to_text(g), *mutation))
            try:
                loaded = load_gallery(path)
            except GalleryFormatError:
                return
        probes = [e for embeddings in loaded.identities.values() for e in embeddings]
        for probe in probes + [rng.normal(size=4)]:
            if probe.size == loaded.dim:
                assert match(loaded, probe)[1] <= 1.0 + 1e-9


    @staticmethod
    def _saved(tmp, empty=False):
        """A saved gallery whose text order (identity by identity) is not
        its enrollment order, with an identity that has no rows; or, when
        empty, only that identity."""
        g = Gallery()
        rng = np.random.default_rng(11)
        for name in () if empty else ("alice", "bob", "alice", "carol", "bob", "carol", "carol"):
            enroll(g, name, rng.normal(size=4))
        g._register("dan")  # "0 0"
        path = Path(tmp) / "g.txt"
        save_gallery(g, path)
        return g, path

    @settings(max_examples=200, deadline=None)
    @given(mutation=GALLERY_EDITS)
    def test_stale_companion_reads_as_the_text(self, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            g, path = self._saved(tmp)
            path.write_text(mutate_gallery(gallery_to_text(g), *mutation))
            results = []
            for _ in range(2):  # beside the stale companion, then the text alone
                try:
                    results.append(load_gallery(path))
                except GalleryFormatError as exc:
                    results.append(str(exc))
                _companion(path).unlink(missing_ok=True)
        if isinstance(results[0], str):
            assert results[0] == results[1]
        else:
            _assert_same_gallery(*results)

    @settings(max_examples=200, deadline=None)
    @given(edit=COMPANION_EDITS, empty=st.booleans())
    def test_damaged_companion_reads_as_the_text(self, edit, empty):
        with tempfile.TemporaryDirectory() as tmp:
            g, path = self._saved(tmp, empty)
            companion = _companion(path)
            companion.write_bytes(mutate_companion(companion.read_bytes(), *edit))
            loaded = load_gallery(path)
            companion.unlink()
            text_only = load_gallery(path)
            _assert_same_gallery(loaded, text_only)
            assert gallery_to_text(loaded) == gallery_to_text(g)
            for each in (loaded, text_only):  # both take a new row alike
                enroll(each, "erin", np.arange(1.0, 5.0))
            _assert_same_gallery(loaded, text_only)

    @pytest.mark.parametrize("forgery", range(len(TABLE_FORGERIES)))
    @pytest.mark.parametrize("identity", range(4))
    def test_each_forged_table_reads_as_the_text(self, tmp_path, monkeypatch, forgery, identity):
        """Each table forgery at each identity (the last, "dan", has no rows)
        fails a check, so the load parses the text."""
        g, path = self._saved(tmp_path)
        companion = _companion(path)
        companion.write_bytes(mutate_companion(companion.read_bytes(), "table", identity, forgery))
        parses = _count_text_parses(monkeypatch)
        forged = load_gallery(path)
        assert len(parses) == 1
        companion.unlink()
        _assert_same_gallery(forged, load_gallery(path))


def _no_text_parse(path, fh):
    raise AssertionError(f"{path}: the text was parsed")


def _count_text_parses(monkeypatch):
    """A list that gains an entry at each text parse load_gallery makes."""
    parses, read_text = [], gallery_module._read_text
    monkeypatch.setattr(gallery_module, "_read_text",
                        lambda path, fh: parses.append(path) or read_text(path, fh))
    return parses


def _companion(path):
    """The row companion save_gallery writes beside path."""
    return Path(f"{path}.rows")


def _assert_same_gallery(a, b):
    """Equal names, owners and rows, the rows bit for bit."""
    assert a._names == b._names and a._ids == b._ids and a.dim == b.dim
    n = a.total_embeddings()
    assert b.total_embeddings() == n
    np.testing.assert_array_equal(a._owner[:n], b._owner[:n])
    assert a._rows[:n].tobytes() == b._rows[:n].tobytes()


class TestSpoofGate:
    def test_threshold_inclusive_fake(self):
        assert not spoof_gate(0.65)

    def test_just_below_is_live(self):
        assert spoof_gate(0.649)

    def test_zero_is_live(self):
        assert spoof_gate(0.0)

    def test_nan_is_fake(self):
        assert not spoof_gate(float("nan"))


class _Recorder:
    def __init__(self):
        self.calls = []

    def order(self):
        return list(dict.fromkeys(self.calls))


class _FaceScorer:
    """Brightness cascade scorer that logs stage-1 activity."""

    def __init__(self, recorder, landmarks=True):
        self.recorder = recorder
        self.landmarks = landmarks

    def stage1(self, crops, boxes):
        self.recorder.calls.append("detect")
        return crops.reshape(len(crops), -1).mean(axis=1) / 255.0

    def stage2(self, crops, boxes):
        return crops.reshape(len(crops), -1).mean(axis=1) / 255.0

    def stage3(self, crops, boxes):
        rel = None
        if self.landmarks:
            rel = np.broadcast_to([[0.3, 0.4], [0.7, 0.4]], (len(crops), 2, 2))
        return crops.reshape(len(crops), -1).mean(axis=1) / 255.0, rel


class _Spoof:
    def __init__(self, recorder, score):
        self.recorder = recorder
        self.score = score
        self.seen = None

    def __call__(self, img):
        self.recorder.calls.append("spoof")
        self.seen = img
        return self.score


class _Embedder:
    def __init__(self, recorder, vector):
        self.recorder = recorder
        self.vector = vector
        self.seen = None

    def __call__(self, crop):
        self.recorder.calls.append("embed")
        self.seen = crop
        return self.vector


class _Eyes:
    def __init__(self, recorder, scores):
        self.recorder = recorder
        self.scores = list(scores)

    def __call__(self, crop):
        self.recorder.calls.append("eyes")
        return self.scores.pop(0)


E_ALICE = np.array([1.0, 0.0, 0.0])


def _face_frame():
    img = GrayImage(np.zeros((60, 60)))
    img.pixels[20:40, 20:40] = 255.0
    return img


def _setup(spoof_score=0.0, eye_scores=(0.0, 0.0), embedding=E_ALICE, landmarks=True):
    rec = _Recorder()
    scorers = AuthScorers(
        detector=_FaceScorer(rec, landmarks=landmarks),
        spoof=_Spoof(rec, spoof_score),
        embedder=_Embedder(rec, embedding),
        eye_closed=_Eyes(rec, eye_scores),
    )
    gallery = Gallery()
    enroll(gallery, "alice", E_ALICE)
    config = AuthConfig(min_face_ratio=3.0)  # the smallest face of a 60 px frame: 20 px
    return rec, scorers, gallery, config


class TestAuthConfig:
    @pytest.mark.parametrize("ratio", [0.0, math.nan, math.inf, -1.0])
    def test_min_face_ratio_must_be_finite_and_positive(self, ratio):
        # authenticate would divide the frame width by 0 and find no face at NaN
        with pytest.raises(ValueError, match="min_face_ratio"):
            AuthConfig(min_face_ratio=ratio)

    def test_a_smallest_face_below_6_px_is_refused_before_any_scan(self, monkeypatch):
        """60 / 10 = 6 px is the least smallest face; 60 / 10.5 is refused
        before the pyramid resamples the frame or the detector runs."""
        rec, scorers, gallery, _ = _setup()
        assert authenticate(_face_frame(), gallery, scorers,
                            AuthConfig(min_face_ratio=10.0)).kind == "accepted"
        rec.calls.clear()

        def no_resize(*args):
            raise AssertionError("the pyramid resampled a frame it should refuse")

        monkeypatch.setattr(detect_module, "bilinear_resize", no_resize)
        with pytest.raises(ValueError, match="min_face must be finite and at least 6 px"):
            authenticate(_face_frame(), gallery, scorers, AuthConfig(min_face_ratio=10.5))
        assert rec.calls == []


def test_pipeline_settable_values_are_counted():
    """The pipeline's settings are AuthConfig's fields and the parameters of
    detect, largest_face, sharpness_gate and spoof_gate beyond their inputs;
    a new one has to change this test."""
    inputs = {detect: 2, largest_face: 2, sharpness_gate: 1, spoof_gate: 1}
    knobs = {f.name for f in dataclasses.fields(AuthConfig)}
    for fn, n in inputs.items():
        knobs |= set(list(inspect.signature(fn).parameters)[n:])
    assert knobs == {"min_face", "sim_threshold", "min_face_ratio"}


class _WidthScorer:
    """Stage 1 passes the boxes whose width `keep` accepts; stages 2 and 3
    pass every box, without landmarks."""

    def __init__(self, keep):
        self.keep = keep

    def stage1(self, crops, boxes):
        return self.keep(boxes[:, 2] - boxes[:, 0]).astype(np.float64)

    def stage2(self, crops, boxes):
        return np.ones(len(crops))

    def stage3(self, crops, boxes):
        return np.ones(len(crops)), None


class TestSmallestFace:
    """authenticate keeps a face at least frame width / min_face_ratio wide,
    the same smallest face that sets the scan's first pyramid level (a
    narrower one: TestAuthenticate.test_undersized_face_is_no_face)."""

    @pytest.mark.parametrize("keep", [lambda w: w == 20.0, lambda w: w > 20.0],
                             ids=["exactly-the-smallest", "wider"])
    def test_a_face_at_least_the_smallest_is_kept(self, keep):
        """On a 60 px frame at ratio 3 the first level's boxes are exactly
        20 px wide, and the gate is inclusive."""
        rec, scorers, gallery, config = _setup()
        scorers.detector = _WidthScorer(keep)
        face = largest_face(_face_frame(), scorers.detector, 20.0)
        assert face is not None and keep(np.array(face.width))
        assert authenticate(_face_frame(), gallery, scorers, config).kind == "accepted"

    # (side, face side, x, y): a dark square frame with one bright face that
    # the cascade finds at the first level, in a box whose edges, divided by
    # the scale, round to a width up to half an ulp of side under side / 5
    @pytest.mark.parametrize("side, face, x, y", [
        (41, 8, 32, 31), (71, 14, 57, 24), (67, 14, 37, 29), (91, 18, 41, 8),
        (104, 25, 68, 1), (109, 21, 12, 64)])
    def test_a_first_level_face_that_rounds_narrower_is_kept(self, side, face, x, y):
        rec, scorers, gallery, _ = _setup()
        frame = GrayImage(np.zeros((side, side)))
        frame.pixels[y:y + face, x:x + face] = 255.0
        assert largest_face(frame, scorers.detector, side / 5).width < side / 5
        assert authenticate(frame, gallery, scorers).kind == "accepted"

    @pytest.mark.parametrize("side", [s for s in range(12, 500) if s * (12 / s) < 12])
    @pytest.mark.parametrize("wide, ratio", [(1, 1.0), (5, 5.0)], ids=["square", "five-wide"])
    def test_a_frame_one_smallest_face_tall_is_scanned(self, side, wide, ratio):
        """A bright frame whose height is its smallest face, where side *
        (12 / side) rounds to an ulp under 12 (15 sides in 12..499)."""
        _, scorers, gallery, _ = _setup()
        frame = GrayImage(np.full((side, wide * side), 255.0))
        out = authenticate(frame, gallery, scorers, AuthConfig(min_face_ratio=ratio))
        assert out.kind == "accepted"

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(30, 130), extra=st.integers(0, 40), ratio=st.floats(1.5, 5.0),
           pick=st.floats(0.0, 1.0))
    def test_every_unclamped_first_level_box_passes_the_gate(self, width, extra, ratio, pick):
        """Stage 1 passes one first-level box that the right edge did not
        clamp, the narrowest or one drawn at random; authenticate keeps it."""
        _, scorers, gallery, _ = _setup()
        frame, min_face, seen = GrayImage(np.zeros((width + extra, width))), width / ratio, []
        scorers.detector = _WidthScorer(None)  # stage 1 replaced below
        scorers.detector.stage1 = lambda crops, boxes: seen.append(boxes) or np.zeros(len(boxes))
        assert largest_face(frame, scorers.detector, min_face) is None
        boxes = np.concatenate(seen)
        # later levels are at least 1 / PYRAMID_STEP = 1.41 times as wide
        first = boxes[(boxes[:, 2] < width) & (boxes[:, 2] - boxes[:, 0] < 1.2 * min_face)]
        widths = first[:, 2] - first[:, 0]
        for box in (first[np.argmin(widths)], first[int(pick * (len(first) - 1))]):
            scorers.detector.stage1 = lambda crops, boxes, box=box: (boxes == box).all(axis=1) * 1.0
            out = authenticate(frame, gallery, scorers, AuthConfig(min_face_ratio=ratio))
            assert out.kind == "accepted"


class TestAuthenticate:
    def test_accepted_round_trip(self):
        rec, scorers, gallery, config = _setup()
        out = authenticate(_face_frame(), gallery, scorers, config)
        assert out.kind == "accepted"
        assert out.identity == "alice"
        assert out.similarity >= 1.0 - 1e-9

    def test_stage_order(self):
        rec, scorers, gallery, config = _setup()
        authenticate(_face_frame(), gallery, scorers, config)
        assert rec.order() == ["detect", "spoof", "embed", "eyes"]

    def test_spoof_sees_the_full_frame(self):
        rec, scorers, gallery, config = _setup()
        frame = _face_frame()
        authenticate(frame, gallery, scorers, config)
        assert scorers.spoof.seen is frame

    def test_embedder_sees_the_aligned_crop(self):
        rec, scorers, gallery, config = _setup()
        authenticate(_face_frame(), gallery, scorers, config)
        crop = scorers.embedder.seen
        assert 15 <= crop.width <= 25 and 15 <= crop.height <= 25

    def test_no_face_on_blank_frame(self):
        rec, scorers, gallery, config = _setup()
        out = authenticate(GrayImage(np.zeros((60, 60))), gallery, scorers, config)
        assert out.kind == "no_face"
        assert "spoof" not in rec.calls and "embed" not in rec.calls

    def test_undersized_face_is_no_face(self):
        """An 11 px face on the right edge of a 60 px frame at ratio 4.96.  The
        first level is 59.52 px, rounded to 60, so its last window column ends
        past the frame and is clamped to it: the cascade finds the face only
        in that 11.6 px box, narrower than the smallest face, 12.1 px."""
        rec, scorers, gallery, _ = _setup()
        frame = GrayImage(np.zeros((60, 60)))
        frame.pixels[20:32, 49:] = 255.0
        face = largest_face(frame, scorers.detector, 60 / 4.96)
        assert face is not None and face.x2 == 60.0 and face.width < 60 / 4.96
        rec.calls.clear()
        out = authenticate(frame, gallery, scorers, AuthConfig(min_face_ratio=4.96))
        assert out.kind == "no_face"
        assert "detect" in rec.calls and "spoof" not in rec.calls

    def test_spoofed_frame_blocks_before_embedding(self):
        rec, scorers, gallery, config = _setup(spoof_score=0.9)
        out = authenticate(_face_frame(), gallery, scorers, config)
        assert out.kind == "invalid_face"
        assert out.spoof_score == 0.9
        assert "embed" not in rec.calls and "eyes" not in rec.calls

    def test_spoof_threshold_inclusive(self):
        _, scorers, gallery, config = _setup(spoof_score=0.65)
        assert authenticate(_face_frame(), gallery, scorers, config).kind == "invalid_face"
        _, scorers, gallery, config = _setup(spoof_score=0.649)
        assert authenticate(_face_frame(), gallery, scorers, config).kind == "accepted"

    def test_spoofed_beats_empty_gallery(self):
        rec, scorers, _, config = _setup(spoof_score=1.0)
        out = authenticate(_face_frame(), Gallery(), scorers, config)
        assert out.kind == "invalid_face"

    def test_stranger_when_embedding_far(self):
        rec, scorers, gallery, config = _setup(embedding=np.array([0.0, 1.0, 0.0]))
        out = authenticate(_face_frame(), gallery, scorers, config)
        assert out.kind == "stranger"
        assert out.identity is None
        assert out.similarity == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf / inf
    @pytest.mark.parametrize("embedding", [
        [np.nan, np.nan, np.nan], [1.0, np.nan, 0.0], [np.inf, 0.0, 0.0]])
    def test_non_finite_embedding_is_never_accepted(self, embedding):
        rec, scorers, gallery, config = _setup(embedding=np.array(embedding))
        enroll(gallery, "bob", np.array([0.0, 1.0, 0.0]))
        out = authenticate(_face_frame(), gallery, scorers, config)
        assert out.kind == "stranger" and out.identity is None

    def test_nan_spoof_score_is_invalid_face(self):
        rec, scorers, gallery, config = _setup(spoof_score=float("nan"))
        out = authenticate(_face_frame(), gallery, scorers, config)
        assert out.kind == "invalid_face"
        assert "embed" not in rec.calls

    def test_stranger_against_empty_gallery(self):
        rec, scorers, _, config = _setup()
        out = authenticate(_face_frame(), Gallery(), scorers, config)
        assert out.kind == "stranger" and out.similarity == -1.0

    def test_both_eyes_closed_rejects(self):
        rec, scorers, gallery, config = _setup(eye_scores=(1.0, 1.0))
        out = authenticate(_face_frame(), gallery, scorers, config)
        assert out.kind == "eyes_closed" and out.identity == "alice"

    @pytest.mark.parametrize("eye_scores", [(1.0, 0.0), (0.0, 1.0)])
    def test_one_open_eye_suffices(self, eye_scores):
        rec, scorers, gallery, config = _setup(eye_scores=eye_scores)
        out = authenticate(_face_frame(), gallery, scorers, config)
        assert out.kind == "accepted"

    def test_eye_threshold_inclusive(self):
        rec, scorers, gallery, config = _setup(eye_scores=(0.5, 0.5))
        assert authenticate(_face_frame(), gallery, scorers, config).kind == "eyes_closed"

    def test_missing_landmarks_skip_eye_check(self):
        rec, scorers, gallery, config = _setup(eye_scores=(1.0, 1.0), landmarks=False)
        out = authenticate(_face_frame(), gallery, scorers, config)
        assert out.kind == "accepted"
        assert "eyes" not in rec.calls


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _poisoned_scorers(slot, value, part):
    """The accepted set-up of _setup with one scorer output made non-finite:
    a whole detector stage output, one spoof score, one embedding coordinate
    (part 0-2; 3 = all), or one eye score (part 0 left, 1 right, 2-3 both)."""
    rec, scorers, gallery, config = _setup()
    det = scorers.detector
    stage3 = det.stage3
    if slot in ("stage1", "stage2"):
        setattr(det, slot, lambda crops, boxes: np.full(len(crops), value))
    elif slot == "stage3":
        det.stage3 = lambda crops, boxes: (np.full(len(crops), value), stage3(crops, boxes)[1])
    elif slot == "landmarks":
        det.stage3 = lambda crops, boxes: (stage3(crops, boxes)[0],
                                           np.full((len(crops), 2, 2), value))
    elif slot == "spoof":
        scorers.spoof = lambda frame: value
    elif slot == "embed":
        embedding = E_ALICE.copy()
        embedding[slice(None) if part == 3 else part] = value
        scorers.embedder = lambda crop: embedding
    else:
        eyes = [0.0, 0.0]
        for i in ((0, 1) if part >= 2 else (part,)):
            eyes[i] = value
        scorers.eye_closed = lambda crop, eyes=iter(eyes): next(eyes)
    return scorers, gallery, config


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf / inf
@settings(max_examples=80, deadline=None)
@given(slot=st.sampled_from(["stage1", "stage2", "stage3", "landmarks", "spoof", "embed", "eyes"]),
       value=st.sampled_from(_NON_FINITE), part=st.integers(0, 3))
def test_non_finite_scorer_output_is_never_accepted(slot, value, part):
    scorers, gallery, config = _poisoned_scorers(slot, value, part)
    try:
        out = authenticate(_face_frame(), gallery, scorers, config)
    except ValueError:
        return
    assert out.kind != "accepted"


@pytest.mark.parametrize("eye_scores", [(float("nan"), 0.0), (0.0, float("-inf"))])
def test_one_non_finite_eye_score_rejects(eye_scores):
    rec, scorers, gallery, config = _setup(eye_scores=eye_scores)
    assert authenticate(_face_frame(), gallery, scorers, config).kind == "eyes_closed"


def test_minus_inf_spoof_score_is_invalid_face():
    assert not spoof_gate(float("-inf"))
    rec, scorers, gallery, config = _setup(spoof_score=float("-inf"))
    assert authenticate(_face_frame(), gallery, scorers, config).kind == "invalid_face"


def _first_box_at(value, stage_out):
    """stage_out with the first box of its first call given confidence value."""
    calls = itertools.count()

    def stage(crops, boxes):
        out = stage_out(crops, boxes)
        conf = np.array(out[0] if isinstance(out, tuple) else out, dtype=np.float64)
        if next(calls) == 0:
            conf[0] = value
        return (conf, out[1]) if isinstance(out, tuple) else conf

    return stage


@pytest.mark.parametrize("stage", ["stage2", "stage3"])
def test_a_bad_confidence_in_the_first_scored_chunk_raises(stage):
    rec, scorers, gallery, config = _setup()
    setattr(scorers.detector, stage, _first_box_at(1.5, getattr(scorers.detector, stage)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        authenticate(_face_frame(), gallery, scorers, config)
    assert "spoof" not in rec.calls


def _crop_embedding(crop):
    """A unit embedding that moves with the crop's size and levels."""
    v = np.array([crop.width, crop.height, crop.pixels.mean(), crop.pixels.std() + 1.0])
    return v / np.linalg.norm(v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.integers(24, 120),
       faces=st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                      max_size=3))
@example(seed=0, side=120, faces=[(0.75, 0.5, 0.5)])
@example(seed=1, side=60, faces=[(0.4, 0.0, 0.0), (0.4, 1.0, 1.0)])
def test_authenticate_keeps_the_largest_detected_face(seed, side, faces):
    """On faces placed at random, authenticate's outcome is the one it gives
    when the face it keeps is max(detect(...), key=area).  Below 30 px the
    smallest face, side / 5, is under 6 px and authenticate refuses the frame."""
    rng = np.random.default_rng(seed)
    pixels = rng.uniform(0.0, 90.0, (side, side))
    for share, fx, fy in faces:
        face = max(6, int(share * side))
        x, y = int(fx * (side - face)), int(fy * (side - face))
        pixels[y:y + face, x:x + face] = rng.uniform(190.0, 255.0, (face, face))
    frame = GrayImage(np.rint(pixels))
    scorers = AuthScorers(detector=_FaceScorer(_Recorder()), spoof=lambda f: 0.0,
                          embedder=_crop_embedding, eye_closed=lambda crop: 0.0)
    gallery = Gallery()
    enroll(gallery, "alice", _crop_embedding(GrayImage(np.full((40, 40), 230.0))))
    if side < 30:
        with pytest.raises(ValueError, match="min_face"):
            authenticate(frame, gallery, scorers)
        return
    got = authenticate(frame, gallery, scorers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auth_module, "largest_face", lambda img, scorer, min_face: max(
            detect(img, scorer, min_face), key=lambda b: b.area, default=None))
        assert got == authenticate(frame, gallery, scorers)
