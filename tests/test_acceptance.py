"""Top-level acceptance checks, one verdict line per criterion.

Each test prints "criterion N: PASS/FAIL (...)" and registers the line with
conftest so it is echoed in the terminal summary.  Tolerances are pinned
here and nowhere loosened; every numeric comparison against an independent
oracle is exact unless a tolerance is stated.
"""

import time
from contextlib import contextmanager

import numpy as np

import conftest
import oracles
from cotface.angular import (
    AngularBatch,
    LossConfig,
    angles_from_features,
    cot_via_identity,
    cot_via_theta,
)
from cotface.cli import main as cli_main
from cotface.losses import (
    arcface_loss,
    combined_margin_cos_loss,
    combined_margin_cot_loss,
    cosface_loss,
    dual_cot_cos_loss,
    elastic_cot_loss,
    elasticface_arc_loss,
    elasticface_cos_loss,
    generalized_lmcot_loss,
    lmcot_loss,
    norm_softmax_loss,
    sphereface_loss,
)
from cotface.metrics import (
    RankedQuery,
    RankedRetrieval,
    ScoredPairs,
    auc,
    eer,
    gap,
    map_at_100,
)
from cotface.pipeline import (
    AuthConfig,
    AuthScorers,
    DetectConfig,
    DetectionBox,
    Gallery,
    GrayImage,
    align,
    authenticate,
    enroll,
    iou,
    load_gallery,
    nms,
    save_gallery,
    spoof_gate,
)
from cotface.reference import FEATURES, WEIGHTS, batch as reference_batch, run_reference_checks
from cotface.train import GRADCHECK_LOSSES, SynthSpec, gradcheck, train_loop


class _Record:
    ok = False
    detail = ""


@contextmanager
def _criterion(n):
    rec = _Record()
    try:
        yield rec
    except Exception as exc:
        _emit(n, False, f"error: {exc!r}")
        raise
    _emit(n, rec.ok, rec.detail)
    assert rec.ok, f"criterion {n} failed: {rec.detail}"


def _emit(n, ok, detail):
    line = f"criterion {n:>2}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)


def _cfg(**kwargs) -> LossConfig:
    return LossConfig(s=2.0, log_base="ten", **kwargs)


def test_criterion_01_reference_values():
    with _criterion(1) as c:
        t0 = time.perf_counter()
        results = run_reference_checks(tolerance=1e-3)
        elapsed = time.perf_counter() - t0
        worst = max(abs(r.computed - r.expected) for r in results)
        c.ok = all(r.passed for r in results) and elapsed < 1.0
        c.detail = (f"5 frozen losses within 1e-3, worst |delta| {worst:.1e}, "
                    f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_per_sample_terms():
    printed = {
        name: fn(reference_batch(), _cfg(m=m)).per_sample / 2.0
        for name, fn, m in (
            ("arcface", arcface_loss, 0.05),
            ("sphereface", sphereface_loss, 1.1),
            ("cosface", cosface_loss, 0.05),
            ("lmcot", lmcot_loss, 0.05),
        )
    }
    expected = {
        "arcface": (0.034, 0.3982),
        "sphereface": (0.0336, 0.4302),
        "cosface": (0.0368, 0.3985),
    }
    with _criterion(2) as c:
        deltas = [abs(printed[name][i] - expected[name][i])
                  for name in expected for i in (0, 1)]
        deltas.append(abs(printed["lmcot"][1] - 2.0765))
        c.ok = max(deltas) <= 1e-3 and printed["lmcot"][0] < 1e-5
        c.detail = (f"printed terms within 1e-3 (worst {max(deltas):.1e}), "
                    f"lmcot first term {printed['lmcot'][0]:.1e} < 1e-5")


def test_criterion_03_angle_regression():
    with _criterion(3) as c:
        theta = angles_from_features(FEATURES, WEIGHTS)
        target = np.array([[0.1, 1.47], [0.2, 1.37]])
        worst = float(np.abs(theta - target).max())
        c.ok = worst <= 5e-3
        c.detail = f"angles within 5e-3 of printed values (worst {worst:.1e})"


def test_criterion_04_gradient_suite():
    with _criterion(4) as c:
        t0 = time.perf_counter()
        worst = 0.0
        all_pass = True
        for name in GRADCHECK_LOSSES:
            report = gradcheck(name, trials=100, h=1e-5, seed=0)
            worst = max(worst, report.max_rel_err)
            all_pass &= report.passed(1e-4)
        elapsed = time.perf_counter() - t0
        c.ok = all_pass and elapsed < 30.0
        c.detail = (f"{len(GRADCHECK_LOSSES)} losses x 100 trials, "
                    f"max rel err {worst:.1e} <= 1e-4, {elapsed:.1f} s")


def test_criterion_05_cot_path_equivalence():
    with _criterion(5) as c:
        grid = np.linspace(0.01, np.pi - 0.06, 10_000)
        worst = 0.0
        for m in (0.0, 0.05, 0.5):
            ct, ctm = cot_via_theta(grid, m)
            ci, cim = cot_via_identity(np.cos(grid), m)
            worst = max(worst, float(np.abs(ct - ci).max()),
                        float(np.abs(ctm - cim).max()))
        c.ok = worst <= 1e-6
        c.detail = f"both kernels agree on 1e4-point grid, worst |delta| {worst:.1e}"


def _outputs_equal(a, b) -> bool:
    return (a.value == b.value
            and np.array_equal(a.per_sample, b.per_sample)
            and np.array_equal(a.grad_theta, b.grad_theta))


def test_criterion_06_specialization_identities():
    rng = np.random.default_rng(9)
    b = AngularBatch(rng.uniform(0.15, 2.6, size=(6, 4)), rng.integers(0, 4, size=6))
    m = 0.17
    corner_cases = [
        (combined_margin_cos_loss(b, _cfg(m1=1.0, m2=0.0, m3=0.0)),
         norm_softmax_loss(b, _cfg())),
        (combined_margin_cos_loss(b, _cfg(m1=1.0, m2=m, m3=0.0)),
         arcface_loss(b, _cfg(m=m))),
        (combined_margin_cos_loss(b, _cfg(m1=1.0, m2=0.0, m3=m)),
         cosface_loss(b, _cfg(m=m))),
        (combined_margin_cos_loss(b, _cfg(m1=1.1, m2=0.0, m3=0.0)),
         sphereface_loss(b, _cfg(m=1.1))),
        (combined_margin_cot_loss(b, _cfg(m1=1.0, m2=0.05, m3=0.0)),
         lmcot_loss(b, _cfg(m=0.05))),
    ]
    zero_sigma_cases = [
        (elasticface_arc_loss(b, _cfg(m=0.23), rng=np.random.default_rng(0)),
         arcface_loss(b, _cfg(m=0.23))),
        (elasticface_cos_loss(b, _cfg(m=0.23), rng=np.random.default_rng(0)),
         cosface_loss(b, _cfg(m=0.23))),
        (elastic_cot_loss(b, _cfg(m=0.05), rng=np.random.default_rng(0)),
         lmcot_loss(b, _cfg(m=0.05))),
        (generalized_lmcot_loss(b, _cfg(m1=1.05, m2=0.07, m3=0.11),
                                rng=np.random.default_rng(0)),
         combined_margin_cot_loss(b, _cfg(m1=1.05, m2=0.07, m3=0.11))),
        (dual_cot_cos_loss(b, _cfg(m1=1.02, m2=0.04, m3=0.06, alpha=1.0, beta=0.0),
                           rng=np.random.default_rng(0)),
         generalized_lmcot_loss(b, _cfg(m1=1.02, m2=0.04, m3=0.06, alpha=1.0, beta=0.0),
                                rng=np.random.default_rng(0))),
    ]
    with _criterion(6) as c:
        corners_ok = all(_outputs_equal(a, p) for a, p in corner_cases)
        elastic_ok = all(_outputs_equal(a, p) for a, p in zero_sigma_cases)
        c.ok = corners_ok and elastic_ok
        c.detail = (f"{len(corner_cases)} margin corners and "
                    f"{len(zero_sigma_cases)} zero-sigma identities bit-for-bit")


def _random_pairs(rng, quantize):
    n_g = int(rng.integers(2, 40))
    n_i = int(rng.integers(2, 40))
    g = rng.normal(0.5, 0.4, n_g)
    i = rng.normal(-0.1, 0.4, n_i)
    if quantize:
        g, i = np.round(g, 1), np.round(i, 1)
    return ScoredPairs(genuine=g, impostor=i)


def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(70)
    with _criterion(7) as c:
        auc_ok = True
        for trial in range(200):
            pairs = _random_pairs(rng, trial % 2 == 0)
            auc_ok &= auc(pairs) == oracles.auc_pairwise(pairs.genuine, pairs.impostor)
        eer_ok = True
        for trial in range(200):
            pairs = _random_pairs(rng, trial % 2 == 0)
            value, threshold = eer(pairs)
            o_value, o_threshold = oracles.eer_exhaustive(pairs.genuine, pairs.impostor)
            eer_ok &= value == o_value and threshold == o_threshold
        map_value = map_at_100(RankedRetrieval(
            queries=[RankedQuery(rel=[1, 0, 1], num_relevant=2)]))
        map_ok = (map_value == (1.0 + 2.0 / 3.0) / 2.0
                  and abs(map_value - 5.0 / 6.0) < 1e-15)
        gap_half = gap(RankedRetrieval(confidences=[0.9, 0.8], correct=[1, 0],
                                       num_in_gallery=2))
        gap_quarter = gap(RankedRetrieval(confidences=[0.9, 0.8], correct=[0, 1],
                                          num_in_gallery=2))
        gap_ok = gap_half == 0.5 and gap_quarter == 0.25
        c.ok = auc_ok and eer_ok and map_ok and gap_ok
        c.detail = ("AUC == pairwise oracle on 200 sets, EER == exhaustive oracle "
                    "on 200 sets, mAP@100 fixture 5/6, GAP fixtures 0.5/0.25")


EMBED_SPEC = SynthSpec(task="embedding", n_classes=10, dim=16, per_class=20,
                       intra_spread=0.2, seed=0)
EMBED_CFG = LossConfig(s=8.0, m=0.05, m1=1.0, m2=0.05, m3=0.05,
                       sigma1=0.01, sigma2=0.02, sigma3=0.02, alpha=0.7, beta=0.3)
BINARY_SPEC = SynthSpec(task="binary-live-spoof", dim=16, per_class=60,
                        intra_spread=0.6, seed=0)


def test_criterion_08_training_properties():
    with _criterion(8) as c:
        eer_drops = []
        for seed in range(5):
            _, report = train_loop(EMBED_SPEC, "lmcot", EMBED_CFG,
                                   steps=500, lr=0.1, seed=seed)
            eer_drops.append(report.metrics["eer_final"] < report.metrics["eer_initial"])
        binary_cfg = LossConfig(m=1.0)
        wins = 0
        for seed in range(5):
            _, ce = train_loop(BINARY_SPEC, "margin-ce", binary_cfg,
                               steps=300, lr=0.3, seed=seed, hidden=(16,))
            _, both = train_loop(BINARY_SPEC, "margin-ce+double", binary_cfg,
                                 steps=300, lr=0.3, seed=seed, hidden=(16,))
            wins += both.metrics["auc_final"] >= ce.metrics["auc_final"]
        lm = lmcot_loss(reference_batch(), _cfg(m=0.05)).per_sample
        af = arcface_loss(reference_batch(), _cfg(m=0.05)).per_sample
        contrast_ok = lm[0] < 2e-5 and af[0] > 0.06 and lm[1] > 5.0 * af[1]
        c.ok = all(eer_drops) and wins >= 4 and contrast_ok
        c.detail = (f"lmcot EER drops on {sum(eer_drops)}/5 seeds, "
                    f"double-loss AUC wins {wins}/5 (need >= 4), "
                    f"lmcot/arcface per-sample contrast holds")


def _nms_boxes(rng, n, quantize):
    boxes = []
    for _ in range(n):
        x1, y1 = rng.uniform(0.0, 40.0, 2)
        w, h = rng.uniform(4.0, 30.0, 2)
        conf = rng.uniform(0.05, 1.0)
        if quantize:
            conf = round(conf, 1)
        boxes.append(DetectionBox(x1, y1, x1 + w, y1 + h, conf))
    return boxes


class _StageRecorder:
    def __init__(self, spoof_score):
        self.calls = []
        self.spoof_score = spoof_score
        self.spoof_saw = None

    def scorers(self):
        rec = self

        class Detector:
            def stage1(self, crops, boxes):
                rec.calls.append("detect")
                return crops.reshape(len(crops), -1).mean(axis=1) / 255.0

            stage2 = stage1

            def stage3(self, crops, boxes):
                rec.calls.append("detect")
                rel = np.broadcast_to([[0.3, 0.4], [0.7, 0.4]], (len(crops), 2, 2))
                return crops.reshape(len(crops), -1).mean(axis=1) / 255.0, rel

        def spoof(img):
            rec.calls.append("spoof")
            rec.spoof_saw = img
            return rec.spoof_score

        def embed(crop):
            rec.calls.append("embed")
            return np.array([1.0, 0.0])

        def eyes(crop):
            rec.calls.append("eyes")
            return 0.0

        return AuthScorers(detector=Detector(), spoof=spoof, embedder=embed,
                           eye_closed=eyes)

    def order(self):
        return list(dict.fromkeys(self.calls))


def test_criterion_09_pipeline_suite(tmp_path):
    rng = np.random.default_rng(90)
    with _criterion(9) as c:
        nms_ok = True
        for trial in range(500):
            boxes = _nms_boxes(rng, int(rng.integers(1, 9)), trial % 2 == 0)
            threshold = float(rng.uniform(0.2, 0.8))
            kept = nms(boxes, threshold)
            ids = {id(b): i for i, b in enumerate(boxes)}
            nms_ok &= {ids[id(b)] for b in kept} == oracles.nms_exhaustive(
                boxes, threshold, iou)

        blank = GrayImage(np.zeros((100, 100)))
        worst_dy = 0.0
        for _ in range(1000):
            while True:
                left = rng.uniform(25.0, 75.0, 2)
                right = rng.uniform(25.0, 75.0, 2)
                if right[0] > left[0] and np.linalg.norm(right - left) >= 2.0:
                    break
            lo, hi = np.minimum(left, right), np.maximum(left, right)
            box = DetectionBox(lo[0] - 15.0, lo[1] - 15.0, hi[0] + 15.0, hi[1] + 15.0,
                               1.0, landmarks=np.stack([left, right]))
            _, out = align(blank, box)
            worst_dy = max(worst_dy, abs(float(out[0, 1] - out[1, 1])))
        align_ok = worst_dy <= 0.5

        frame = GrayImage(np.zeros((60, 60)))
        frame.pixels[20:40, 20:40] = 255.0
        gallery = Gallery()
        enroll(gallery, "alice", np.array([1.0, 0.0]))
        auth_cfg = AuthConfig(detect=DetectConfig(min_face=20.0))
        live = _StageRecorder(spoof_score=0.0)
        accepted = authenticate(frame, gallery, live.scorers(), auth_cfg)
        spoofed = _StageRecorder(spoof_score=0.9)
        blocked = authenticate(frame, gallery, spoofed.scorers(), auth_cfg)
        order_ok = (live.order() == ["detect", "spoof", "embed", "eyes"]
                    and accepted.kind == "accepted"
                    and live.spoof_saw is frame
                    and blocked.kind == "invalid_face"
                    and "embed" not in spoofed.calls)

        saved = Gallery()
        for name in ("alice", "bob"):
            for _ in range(3):
                enroll(saved, name, rng.normal(size=12))
        path = tmp_path / "gallery.txt"
        save_gallery(saved, path)
        loaded = load_gallery(path)
        roundtrip_ok = (
            list(loaded.identities) == list(saved.identities)
            and all(
                np.array_equal(a, b)
                for name in saved.identities
                for a, b in zip(loaded.identities[name], saved.identities[name])
            )
        )

        capped = Gallery()
        for i in range(5):
            assert enroll(capped, "alice", rng.normal(size=8)).accepted
        sixth = enroll(capped, "alice", rng.normal(size=8))
        cap_ok = (not sixth.accepted and sixth.reason == "capacity"
                  and capped.total_embeddings() == 5)

        spoof_ok = (not spoof_gate(0.65) and spoof_gate(np.nextafter(0.65, 0.0))
                    and spoof_gate(0.0))

        c.ok = nms_ok and align_ok and order_ok and roundtrip_ok and cap_ok and spoof_ok
        c.detail = (f"NMS == oracle on 500 sets, align worst dy {worst_dy:.1e} px, "
                    f"stage order detect>spoof>embed>eyes, gallery bit-exact, "
                    f"cap 5, spoof cutoff 0.65 inclusive")


def test_criterion_10_train_determinism(tmp_path):
    args = ["train", "--task", "embedding", "--loss", "lmcot",
            "--steps", "25", "--lr", "0.1", "--seed", "7",
            "--classes", "6", "--dim", "12", "--per-class", "8",
            "--hidden", "16", "--embed-dim", "8",
            "--s", "8.0", "--m", "0.05"]
    with _criterion(10) as c:
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        same = {
            name: (a / name).read_bytes() == (b / name).read_bytes()
            for name in ("report.csv", "metrics.csv")
        }
        c.ok = all(same.values())
        c.detail = "report.csv and metrics.csv byte-identical across reruns"
