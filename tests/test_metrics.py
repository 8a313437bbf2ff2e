import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trusskit import io as tio
from trusskit import metrics as tm
from trusskit.errors import EmptyInputError, LengthMismatchError, SingleClassError
from trusskit.geom import LabeledCloud

from helpers import evaluate_dataset_reference


class TestConfusion:
    def test_identity_all_positive(self):
        cm = tm.confusion([True] * 10, [True] * 10)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (10, 0, 0, 0)

    def test_total_disagreement(self):
        truth = np.array([True, False, True, False])
        cm = tm.confusion(~truth, truth)
        assert cm.tp == 0 and cm.tn == 0
        assert cm.fp == 2 and cm.fn == 2

    def test_random_matches_tally_oracle(self):
        rng = np.random.default_rng(0)
        pred = rng.random(1000) < 0.4
        truth = rng.random(1000) < 0.6
        cm = tm.confusion(pred, truth)
        tp = fp = tn = fn = 0
        for p, t in zip(pred, truth):
            if p and t:
                tp += 1
            elif p:
                fp += 1
            elif t:
                fn += 1
            else:
                tn += 1
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
        assert cm.total == 1000

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            tm.confusion([True], [True, False])
        with pytest.raises(EmptyInputError):
            tm.confusion([], [])


class TestMetrics:
    def test_hand_counts(self):
        m = tm.metrics(tm.ConfusionMatrix(tp=90, fp=5, tn=0, fn=5))
        assert m.precision == pytest.approx(90 / 95)
        assert m.recall == pytest.approx(90 / 95)
        assert m.f1 == pytest.approx(0.9474, abs=5e-5)
        assert m.iou == pytest.approx(0.90)

    def test_all_negative_undefined(self):
        m = tm.metrics(tm.ConfusionMatrix(tp=0, fp=0, tn=25, fn=0))
        assert m.precision is None and m.recall is None
        assert m.f1 is None and m.iou is None

    def test_perfect_prediction(self):
        m = tm.metrics(tm.ConfusionMatrix(tp=40, fp=0, tn=60, fn=0))
        assert m.precision == m.recall == m.f1 == m.iou == 1.0

    def test_iou_f1_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            cm = tm.ConfusionMatrix(*(int(v) for v in rng.integers(0, 50, 4)))
            m = tm.metrics(cm)
            if m.f1 is None:
                assert m.iou is None
                continue
            assert abs(m.iou - m.f1 / (2 - m.f1)) <= 1e-12
            assert 0 <= m.iou <= m.f1 <= 1
            for v in (m.precision, m.recall):
                if v is not None:
                    assert 0 <= v <= 1


def brute_force_best(scores, truth, objective):
    """Independent candidate scan: same candidate rule, direct counting."""
    uniq = np.unique(scores)
    cands = [uniq[0] - 1.0] + [(a + b) / 2 for a, b in zip(uniq, uniq[1:])] \
        + [uniq[-1] + 1.0]
    best_val, best_thr = -1.0, None
    n_pos = truth.sum()
    n_neg = len(truth) - n_pos
    for thr in cands:
        pred = scores >= thr
        tp = int((pred & truth).sum())
        fp = int((pred & ~truth).sum())
        fn = int(n_pos - tp)
        if objective == "gmean":
            val = np.sqrt((tp / n_pos) * (1 - fp / n_neg))
        else:
            val = 2 * tp / (2 * tp + fp + fn)
        if val > best_val + 1e-15:
            best_val, best_thr = val, thr
    return best_thr, best_val


class TestThresholds:
    def test_separable_roc(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        truth = np.array([False, False, True, True])
        thr, curve = tm.select_threshold_roc(scores, truth)
        assert thr == pytest.approx(0.5)
        best = max(curve, key=lambda p: p.gmean)
        assert best.gmean == pytest.approx(1.0)

    def test_separable_pr_same_gap(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        truth = np.array([False, False, True, True])
        thr, curve = tm.select_threshold_pr(scores, truth)
        assert thr == pytest.approx(0.5)
        assert max(p.f1 for p in curve) == pytest.approx(1.0)

    @pytest.mark.parametrize("objective", ["gmean", "f1"])
    def test_matches_brute_force(self, objective):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(5, 200))
            scores = np.round(rng.normal(size=n), 2)
            truth = rng.random(n) < rng.uniform(0.2, 0.8)
            if truth.all() or not truth.any():
                continue
            if objective == "gmean":
                thr, _ = tm.select_threshold_roc(scores, truth)
            else:
                thr, _ = tm.select_threshold_pr(scores, truth)
            want_thr, want_val = brute_force_best(scores, truth, objective)
            got_pred = scores >= thr
            want_pred = scores >= want_thr
            # equal objective value; identical prediction set at the argmax
            assert np.array_equal(got_pred, want_pred) or \
                abs(want_val - brute_force_best(
                    scores, truth, objective)[1]) <= 1e-12
            assert thr == pytest.approx(want_thr)

    def test_single_class_error(self):
        with pytest.raises(SingleClassError):
            tm.select_threshold_roc([0.1, 0.9], [True, True])

    def test_constant_scores_degenerate(self):
        scores = np.full(6, 0.7)
        truth = np.array([True, False, True, False, True, False])
        thr, curve = tm.select_threshold_pr(scores, truth)
        assert len(curve) == 2
        assert thr == pytest.approx(-0.3)       # all-positive sentinel wins
        all_pos_f1 = 2 * 3 / (2 * 3 + 3 + 0)
        assert max(p.f1 for p in curve) == pytest.approx(all_pos_f1)

    @pytest.mark.parametrize("scale", [1e20, -1e20, 2.0**53, 1e307])
    def test_sentinels_stay_outside_huge_scores(self, scale):
        # ±1 rounds back onto a score of magnitude 2**53 or more
        scores = np.sort(np.array([1.0, 2.0, 3.0, 4.0]) * scale)
        truth = np.array([False, False, True, True])
        if scale < 0:
            truth = truth[::-1]
        _, curve = tm.select_threshold_roc(scores, truth)
        first, last = curve[0], curve[-1]
        assert first.threshold < scores[0] and last.threshold > scores[-1]
        assert (first.tpr, first.fpr) == (1.0, 1.0)
        assert (last.tpr, last.fpr) == (0.0, 0.0)

    @pytest.mark.parametrize("scores", [(1e308, 1.7e308),
                                        (-1.7e308, 1.7e308),
                                        (5e-324, 1e-323)])
    def test_midpoints_of_extreme_scores_separate(self, scores):
        # the sum of two scores above 2**1023 overflows; halving two
        # subnormal scores first rounds the midpoint onto the lower one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thr, curve = tm.select_threshold_roc(np.array(scores),
                                                 np.array([False, True]))
        assert scores[0] < thr <= scores[1]
        assert all(np.isfinite(p.threshold) for p in curve)
        assert max(p.gmean for p in curve) == 1.0

    def test_sentinels_of_ordinary_scores_are_one_outside(self):
        _, curve = tm.select_threshold_roc([0.25, 0.5, 2.0], [0, 1, 1])
        assert (curve[0].threshold, curve[-1].threshold) == (-0.75, 3.0)

    def test_roc_curve_monotone(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=120)
        truth = rng.random(120) < 0.5
        _, curve = tm.select_threshold_roc(scores, truth)
        thrs = [p.threshold for p in curve]
        assert thrs == sorted(thrs)
        tprs = [p.tpr for p in curve]
        fprs = [p.fpr for p in curve]
        assert all(a >= b - 1e-12 for a, b in zip(tprs, tprs[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(fprs, fprs[1:]))

    def test_gmean_formula_pointwise(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=50)
        truth = rng.random(50) < 0.5
        _, curve = tm.select_threshold_roc(scores, truth)
        for p in curve:
            assert p.gmean == pytest.approx(np.sqrt(p.tpr * (1 - p.fpr)))


def _write_pair(tmp_path, name, truth, pred):
    n = len(truth)
    rng = np.random.default_rng(hash(name) % (1 << 32))
    cloud = LabeledCloud(rng.normal(size=(n, 3)),
                         np.where(truth, 1, 0))
    (tmp_path / "truth").mkdir(exist_ok=True)
    (tmp_path / "pred").mkdir(exist_ok=True)
    tio.write_pcd(cloud, tmp_path / "truth" / name)
    tio.write_prediction_pcd(cloud, pred, tmp_path / "pred" / name)


class TestEvaluateDataset:
    def test_mean_of_two_clouds(self, tmp_path):
        truth = np.array([True] * 10 + [False] * 5)
        pred_a = truth.copy()
        pred_a[:2] = False                       # TP=8, FN=2 -> iou 0.8
        pred_b = truth.copy()
        pred_b[0] = False                        # TP=9, FN=1 -> iou 0.9
        _write_pair(tmp_path, "a.pcd", truth, pred_a)
        _write_pair(tmp_path, "b.pcd", truth, pred_b)
        files = sorted((tmp_path / "truth").glob("*.pcd"))
        report = tm.evaluate_dataset(files, pred_dir=tmp_path / "pred")
        assert report.mean_iou == pytest.approx(0.85)
        assert report.undefined_excluded == 0

    def test_identical_predictions_mean_one(self, tmp_path):
        truth = np.array([True, False] * 8)
        for name in ("x.pcd", "y.pcd", "z.pcd"):
            _write_pair(tmp_path, name, truth, truth)
        files = sorted((tmp_path / "truth").glob("*.pcd"))
        report = tm.evaluate_dataset(files, pred_dir=tmp_path / "pred")
        assert report.mean_f1 == pytest.approx(1.0)
        assert report.mean_iou == pytest.approx(1.0)

    def test_permutation_invariant(self, tmp_path):
        rng = np.random.default_rng(9)
        for i in range(4):
            truth = rng.random(30) < 0.5
            if not truth.any():
                truth[0] = True
            pred = truth ^ (rng.random(30) < 0.2)
            _write_pair(tmp_path, f"c{i}.pcd", truth, pred)
        files = sorted((tmp_path / "truth").glob("*.pcd"))
        r1 = tm.evaluate_dataset(files, pred_dir=tmp_path / "pred")
        r2 = tm.evaluate_dataset(list(reversed(files)),
                                 pred_dir=tmp_path / "pred")
        assert r1.mean_iou == r2.mean_iou
        assert [r.file for r in r1.rows] == [r.file for r in r2.rows]

    def test_missing_prediction_collected(self, tmp_path):
        truth = np.array([True, False, True])
        _write_pair(tmp_path, "ok.pcd", truth, truth)
        cloud = LabeledCloud(np.eye(3), [1, 0, 1])
        tio.write_pcd(cloud, tmp_path / "truth" / "orphan.pcd")
        files = sorted((tmp_path / "truth").glob("*.pcd"))
        report = tm.evaluate_dataset(files, pred_dir=tmp_path / "pred")
        assert len(report.errors) == 1
        assert "orphan.pcd" in report.errors[0]
        assert report.mean_f1 == pytest.approx(1.0)

    def test_failed_row_carries_no_latency(self, tmp_path):
        # b's prediction is one point short, so only a is scored, and only
        # a's latency enters the mean
        truth = np.array([True, False] * 4)
        _write_pair(tmp_path, "a.pcd", truth, truth)
        _write_pair(tmp_path, "b.pcd", truth, truth)
        short = LabeledCloud(np.zeros((len(truth) - 1, 3)), truth[:-1])
        tio.write_prediction_pcd(short, truth[:-1], tmp_path / "pred" / "b.pcd")
        for name, total_ms in (("a.pcd", 10.0), ("b.pcd", 1000.0)):
            tio.write_latency(tmp_path / "pred" / name, {}, total_ms, [])
        files = sorted((tmp_path / "truth").glob("*.pcd"))
        report = tm.evaluate_dataset(files, pred_dir=tmp_path / "pred")
        assert report.errors[0].startswith("b.pcd: LengthMismatchError")
        assert report.latency_mean_ms == 10.0
        report.write_json(tmp_path / "report.json")
        clouds = json.loads((tmp_path / "report.json").read_text())["clouds"]
        assert [c["latency_ms"] for c in clouds] == [10.0, None]
        report.write_csv(tmp_path / "report.csv")
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert [row.split(",")[-1] for row in rows[1:]] == \
            ["10.000000", "10.000000"]


class TestReportFields:
    def test_two_class_iou_and_latency_percentiles(self, tmp_path):
        # a: iou 3/6, background 4/7; b: no background point, so its
        # background IoU (and two-class IoU) is undefined; c: iou 1/2,
        # background 6/7
        counts = {"a.pcd": (3, 1, 4, 2), "b.pcd": (5, 0, 0, 0),
                  "c.pcd": (1, 1, 6, 0)}
        latency = {"a.pcd": 10.0, "b.pcd": 60.0, "c.pcd": 20.0}
        records = []
        for name, cm in counts.items():
            cm = tm.ConfusionMatrix(*cm)
            records.append(tm.CloudRecord(name, cm, tm.metrics(cm),
                                          latency[name]))
        report = tm.evaluate_pairs(records, "fp")
        two = {r.file: r.metrics.two_class_iou for r in report.rows}
        assert two["a.pcd"] == pytest.approx((1 / 2 + 4 / 7) / 2)
        assert two["b.pcd"] is None
        assert two["c.pcd"] == pytest.approx((1 / 2 + 6 / 7) / 2)
        assert report.mean_two_class_iou == pytest.approx(17 / 28)
        assert report.mean_iou == pytest.approx((1 / 2 + 1 + 1 / 2) / 3)
        assert report.undefined_excluded == 0
        assert report.latency_mean_ms == pytest.approx(30.0)
        assert report.latency_median_ms == pytest.approx(20.0)
        # linear interpolation at rank 0.95 * 2 = 1.9 of (10, 20, 60)
        assert report.latency_p95_ms == pytest.approx(56.0)

        report.write_json(tmp_path / "report.json")
        written = json.loads((tmp_path / "report.json").read_text())
        for key in ("mean_two_class_iou", "latency_median_ms",
                    "latency_p95_ms"):
            assert written[key] == pytest.approx(getattr(report, key))
        assert [row["two_class_iou"] for row in written["clouds"]] == \
            [two["a.pcd"], None, two["c.pcd"]]


def pcd_bytes(columns, data, truncate=0, vp=None):
    """A PCD file of ``columns`` [(name, type, size, (n, count) values)],
    with a ``data`` body missing its last ``truncate`` bytes or values."""
    n = len(columns[0][3])
    lines = ["VERSION .7", "FIELDS " + " ".join(c[0] for c in columns),
             "SIZE " + " ".join(str(c[2]) for c in columns),
             "TYPE " + " ".join(c[1] for c in columns),
             "COUNT " + " ".join(str(c[3].shape[1]) for c in columns),
             f"WIDTH {n}", "HEIGHT 1"]
    if vp is not None:
        lines.append("VIEWPOINT " + " ".join(repr(v) for v in vp))
    head = "\n".join([*lines, f"POINTS {n}", f"DATA {data}"]) + "\n"
    if data == "binary":
        dtype = np.dtype([(name, tio._DTYPES[(t, size)], (v.shape[1],))
                          for name, t, size, v in columns])
        rec = np.zeros(n, dtype)
        for name, _, _, values in columns:
            rec[name] = values
        body = rec.tobytes()
        return head.encode() + body[:len(body) - truncate]
    tokens = [repr(float(v)) if t == "F" else str(int(v))
              for row in range(n) for _, t, _, values in columns
              for v in values[row]]
    return (head + " ".join(tokens[:len(tokens) - truncate])).encode()


# a label column: (type, size) and the values drawn for it
_LABEL_KINDS = {"U4": ("U", 4), "U8": ("U", 8), "I4": ("I", 4),
                "I8": ("I", 8), "F4": ("F", 4), "F8": ("F", 8)}
_TRUTH_FAULTS = ("missing_y", "nan_coord", "huge_coord", "nan_label",
                 "label_2_63", "truncated")
_PRED_FAULTS = ("missing_pred", "short_pred", "truncated", "no_file",
                "latency")


def _draw_scan(data, rng):
    """Columns, body mode and truncation of a truth file and of its
    prediction, and the prediction's sidecar latency (or None)."""
    n = data.draw(st.integers(1, 7), label="n")
    # a file is sound or has one or two faults, about half the time each
    faults, pred_faults = (
        data.draw(st.booleans().flatmap(lambda faulty: st.sets(
            st.sampled_from(choices), min_size=faulty,
            max_size=2 * faulty)), label=label)
        for choices, label in ((_TRUTH_FAULTS, "truth faults"),
                               (_PRED_FAULTS, "pred faults")))
    coord = data.draw(st.sampled_from(["F4", "F8"]), label="coordinates")
    xyz = rng.normal(size=(n, 3)) * 5
    if "nan_coord" in faults:
        xyz[rng.integers(n), rng.integers(3)] = np.nan
    if "huge_coord" in faults:
        xyz[rng.integers(n), rng.integers(3)] = rng.choice([1e31, -1e31])
    columns = [(axis, "F", int(coord[1]), xyz[:, [i]])
               for i, axis in enumerate("xyz")
               if not (axis == "y" and "missing_y" in faults)]
    kind = data.draw(st.sampled_from(
        [*_LABEL_KINDS, "intensity", "none", "wide_label"]), label="label")
    if kind in _LABEL_KINDS:
        t, size = _LABEL_KINDS[kind]
        values = (rng.integers(0 if t == "U" else -3, 4, n) if t != "F"
                  else rng.integers(-6, 9, n) / 2 + rng.choice(
                      [0.0, 0.2, -0.3], n)).astype(float)
        if "nan_label" in faults:
            t, size = "F", 8
            values[rng.integers(n)] = np.nan
        if "label_2_63" in faults:
            t, size = ("U", 8) if t != "F" else (t, 8)
            values = values.astype(object) if t == "U" else values
            values = np.maximum(values, 0)
            values[rng.integers(n)] = 2**63 if t == "U" else 2.0**63
        columns.append(("label", t, size, values.reshape(n, 1)))
    elif kind == "intensity":
        columns.append(("intensity", "F", 4,
                        rng.uniform(-2, 4, (n, 1)).astype(np.float32)))
    elif kind == "wide_label":
        # a label of COUNT 2 is not scalar: the labels come from intensity
        columns.append(("label", "U", 2, rng.integers(0, 3, (n, 2))))
        columns.append(("intensity", "F", 8, rng.uniform(0, 3, (n, 1))))
    if data.draw(st.booleans(), label="extra"):
        columns.append(("normal", "F", 4, rng.normal(size=(n, 3))))
    order = data.draw(st.permutations(range(len(columns))), label="order")
    columns = [columns[i] for i in order]
    mode = data.draw(st.sampled_from(["binary", "ascii"]), label="truth body")
    truth = pcd_bytes(columns, mode, truncate=2 * ("truncated" in faults),
                      vp=(1.0, -2.0, 0.5, 0.0, 0.0, 0.6, 0.8))

    m = n - ("short_pred" in pred_faults)
    pred_kind = data.draw(st.sampled_from(["U1", "F4"]), label="pred")
    pred = (rng.integers(0, 2, m) if pred_kind == "U1"
            else rng.uniform(0, 1, m)).reshape(m, 1)
    pred_columns = [(axis, "F", 4, rng.normal(size=(m, 1))) for axis in "xyz"]
    pred_columns.append(("label", "U", 4, rng.integers(0, 3, (m, 1))))
    if "missing_pred" not in pred_faults:
        pred_columns.append(("pred", pred_kind[0], int(pred_kind[1]), pred))
    pred_mode = data.draw(st.sampled_from(["binary", "ascii"]),
                          label="pred body")
    pred_file = None if "no_file" in pred_faults else pcd_bytes(
        pred_columns, pred_mode, truncate=2 * ("truncated" in pred_faults))
    latency = float(rng.uniform(1, 100)) if "latency" in pred_faults else None
    return truth, pred_file, latency


class TestEvaluateOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1),
           scans=st.integers(1, 3))
    def test_report_equals_whole_file_reference(self, data, seed, scans):
        # the report, error texts included, equals the earlier path's,
        # which read whole truth clouds and every prediction field
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as root:
            truth_dir, pred_dir = Path(root, "truth"), Path(root, "pred")
            truth_dir.mkdir(), pred_dir.mkdir()
            for i in range(scans):
                truth, pred, latency = _draw_scan(data, rng)
                (truth_dir / f"s{i}.pcd").write_bytes(truth)
                if pred is not None:
                    (pred_dir / f"s{i}.pcd").write_bytes(pred)
                if latency is not None:
                    tio.write_latency(pred_dir / f"s{i}.pcd", {}, latency, [])
            files = sorted(truth_dir.glob("*.pcd"))
            got = tm.evaluate_dataset(files, pred_dir).to_json_dict()
            want = evaluate_dataset_reference(files, pred_dir).to_json_dict()
        assert got == want
