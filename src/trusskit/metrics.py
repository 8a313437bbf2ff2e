"""Confusion-matrix metrics, dataset aggregation and threshold selection.

A dataset report (``evaluate_pairs``) aggregates one ``score_cloud`` record
per scan. ``trusskit sweep`` scores each variant's prediction in memory;
``evaluate_dataset`` scores prediction PCDs read back (``trusskit evaluate``).

The positive class is always "structure". Metrics with a zero denominator
are flagged undefined (None) and excluded from dataset means; the excluded
count is reported.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as tio
from .errors import (
    EmptyInputError,
    InvalidSpecError,
    LengthMismatchError,
    SingleClassError,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise InvalidSpecError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class CloudMetrics:
    """Precision/recall/F1/IoU of the structure class; None marks an
    undefined (0/0) value. ``iou`` is the single positive-class overlap,
    reported elsewhere under the name mIoU; ``two_class_iou`` averages the
    structure and background overlaps for comparison."""

    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    iou: Optional[float]
    two_class_iou: Optional[float] = None


def confusion(pred, truth) -> ConfusionMatrix:
    """Tally a boolean prediction against boolean truth (positive=structure)."""
    p = np.asarray(pred, dtype=bool).reshape(-1)
    t = np.asarray(truth, dtype=bool).reshape(-1)
    if len(p) != len(t):
        raise LengthMismatchError(f"pred has {len(p)} points, truth {len(t)}")
    if len(p) == 0:
        raise EmptyInputError("cannot evaluate zero points")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    tn = len(p) - tp - fp - fn
    return ConfusionMatrix(tp, fp, tn, fn)


def metrics(cm: ConfusionMatrix) -> CloudMetrics:
    """Precision, recall, F1 and IoU from a confusion matrix.

    F1 uses the equivalent 2TP / (2TP + FP + FN) form so that it is defined
    exactly when IoU is, preserving the identity iou = f1 / (2 - f1).
    """
    tp, fp, tn, fn = cm.tp, cm.fp, cm.tn, cm.fn
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else None
    iou = tp / (tp + fp + fn) if tp + fp + fn else None
    iou_bg = tn / (tn + fp + fn) if tn + fp + fn else None
    two = (iou + iou_bg) / 2 if iou is not None and iou_bg is not None else None
    return CloudMetrics(precision, recall, f1, iou, two)


@dataclass(frozen=True)
class ThresholdSearchPoint:
    threshold: float
    tpr: float
    fpr: float
    precision: float      # NaN when no point is predicted positive
    recall: float
    f1: float
    gmean: float


def _threshold_curve(scores, truth):
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    t = np.asarray(truth, dtype=bool).reshape(-1)
    if len(s) != len(t):
        raise LengthMismatchError(f"{len(s)} scores vs {len(t)} labels")
    if len(s) == 0:
        raise EmptyInputError("no scores given")
    n_pos = int(t.sum())
    n_neg = len(t) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("threshold search needs both classes in truth")

    uniq = np.unique(s)
    # sentinels one below and one above the scores; from magnitude 2**53
    # on, ±1 rounds back onto the score, and the next float lies outside
    lo = min(uniq[0] - 1.0, np.nextafter(uniq[0], -np.inf))
    hi = max(uniq[-1] + 1.0, np.nextafter(uniq[-1], np.inf))
    # halve first only where the sum overflows: halving subnormal scores
    # first can round a midpoint onto a score
    with np.errstate(over="ignore"):
        mid = (uniq[:-1] + uniq[1:]) / 2.0
    mid = np.where(np.isfinite(mid), mid, uniq[:-1] / 2.0 + uniq[1:] / 2.0)
    cands = np.concatenate([[lo], mid, [hi]])
    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    pos_prefix = np.concatenate([[0], np.cumsum(t[order])])
    # prediction rule: positive iff score >= threshold
    below = np.searchsorted(sorted_scores, cands, side="left")
    tp = n_pos - pos_prefix[below]
    pred_pos = len(s) - below
    fp = pred_pos - tp
    fn = n_pos - tp

    tpr = tp / n_pos
    fpr = fp / n_neg
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_pos > 0, tp / np.maximum(pred_pos, 1), np.nan)
    f1 = 2 * tp / (2 * tp + fp + fn)
    gmean = np.sqrt(tpr * (1.0 - fpr))
    curve = [ThresholdSearchPoint(float(c), float(a), float(b), float(p),
                                  float(a), float(f), float(g))
             for c, a, b, p, f, g in zip(cands, tpr, fpr, precision, f1, gmean)]
    return cands, gmean, f1, curve


def select_threshold_roc(scores, truth):
    """Threshold maximising gmean = sqrt(TPR * (1 - FPR)) over candidate
    thresholds (midpoints of consecutive unique scores plus sentinels).
    Ties resolve to the smallest threshold."""
    cands, gmean, _, curve = _threshold_curve(scores, truth)
    return float(cands[int(np.argmax(gmean))]), curve


def select_threshold_pr(scores, truth):
    """Threshold maximising the F1-score; candidates and ties as in
    select_threshold_roc."""
    cands, _, f1, curve = _threshold_curve(scores, truth)
    return float(cands[int(np.argmax(f1))]), curve


@dataclass
class CloudRecord:
    file: str
    cm: Optional[ConfusionMatrix] = None
    metrics: Optional[CloudMetrics] = None
    latency_ms: Optional[float] = None
    error: Optional[str] = None


def score_cloud(file: str, pred, truth, latency_ms=None) -> CloudRecord:
    """A scan's record: its confusion matrix, metrics and latency."""
    cm = confusion(pred, truth)
    return CloudRecord(file, cm, metrics(cm), latency_ms)


@dataclass
class DatasetReport:
    """Per-cloud metrics plus unweighted means over defined clouds."""

    rows: list
    mean_f1: Optional[float]
    mean_iou: Optional[float]
    mean_two_class_iou: Optional[float]
    undefined_excluded: int
    latency_mean_ms: Optional[float]
    latency_median_ms: Optional[float]
    latency_p95_ms: Optional[float]
    config_fingerprint: str
    errors: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "config_fingerprint": self.config_fingerprint,
            "mean_f1": self.mean_f1,
            "mean_iou": self.mean_iou,
            "mean_two_class_iou": self.mean_two_class_iou,
            "undefined_excluded": self.undefined_excluded,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_median_ms": self.latency_median_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "errors": self.errors,
            "clouds": [
                {
                    "file": r.file,
                    "tp": r.cm.tp if r.cm else None,
                    "fp": r.cm.fp if r.cm else None,
                    "tn": r.cm.tn if r.cm else None,
                    "fn": r.cm.fn if r.cm else None,
                    "precision": r.metrics.precision if r.metrics else None,
                    "recall": r.metrics.recall if r.metrics else None,
                    "f1": r.metrics.f1 if r.metrics else None,
                    "iou": r.metrics.iou if r.metrics else None,
                    "two_class_iou": r.metrics.two_class_iou if r.metrics else None,
                    "latency_ms": r.latency_ms,
                    "error": r.error,
                }
                for r in self.rows
            ],
        }

    def write_json(self, path):
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    def write_csv(self, path):
        cols = ["file", "TP", "FP", "TN", "FN", "precision", "recall", "f1",
                "iou", "latency_ms"]
        ok = [r for r in self.rows if r.cm is not None]

        def cell(v):
            return "" if v is None else f"{v:.6f}" if isinstance(v, float) else v

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for r in ok:
                w.writerow([r.file, r.cm.tp, r.cm.fp, r.cm.tn, r.cm.fn,
                            cell(r.metrics.precision), cell(r.metrics.recall),
                            cell(r.metrics.f1), cell(r.metrics.iou),
                            cell(r.latency_ms)])
            if ok:
                mean = ["mean",
                        cell(float(np.mean([r.cm.tp for r in ok]))),
                        cell(float(np.mean([r.cm.fp for r in ok]))),
                        cell(float(np.mean([r.cm.tn for r in ok]))),
                        cell(float(np.mean([r.cm.fn for r in ok]))),
                        "", "",
                        cell(self.mean_f1), cell(self.mean_iou),
                        cell(self.latency_mean_ms)]
                w.writerow(mean)


def _mean_defined(values):
    vals = [v for v in values if v is not None]
    return (float(np.mean(vals)) if vals else None), len(values) - len(vals)


def evaluate_pairs(records: list[CloudRecord], fingerprint: str) -> DatasetReport:
    """Aggregate per-cloud records into a DatasetReport (sorted by file so
    means are permutation invariant)."""
    rows = sorted(records, key=lambda r: r.file)
    mets = [r.metrics for r in rows if r.metrics is not None]
    mean_f1, und_f1 = _mean_defined([m.f1 for m in mets])
    mean_iou, und_iou = _mean_defined([m.iou for m in mets])
    mean_two, _ = _mean_defined([m.two_class_iou for m in mets])
    lats = [r.latency_ms for r in rows if r.latency_ms is not None]
    return DatasetReport(
        rows=rows,
        mean_f1=mean_f1,
        mean_iou=mean_iou,
        mean_two_class_iou=mean_two,
        undefined_excluded=max(und_f1, und_iou),
        latency_mean_ms=float(np.mean(lats)) if lats else None,
        latency_median_ms=float(np.median(lats)) if lats else None,
        latency_p95_ms=float(np.percentile(lats, 95)) if lats else None,
        config_fingerprint=fingerprint,
        errors=[f"{r.file}: {r.error}" for r in rows if r.error],
    )


def evaluate_dataset(truth_files: list, pred_dir) -> DatasetReport:
    """Score the prediction PCDs in ``pred_dir`` against labeled truth
    clouds (``trusskit evaluate``).

    Each truth file is matched by name to a prediction PCD carrying a
    ``pred`` field, and to its ``.latency.json`` when there is one.
    Per-file problems are collected in the report instead of aborting the
    whole run.
    """
    records = []
    for path in sorted(Path(p) for p in truth_files):
        try:
            truth = tio.read_pcd(path).truss_mask
            ppath = Path(pred_dir) / path.name
            if not ppath.exists():
                raise FileNotFoundError(f"no prediction for {path.name}")
            _, fields = tio.read_pcd_arrays(ppath)
            if "pred" not in fields:
                raise LengthMismatchError(f"{ppath.name} lacks field 'pred'")
            pred = np.asarray(fields["pred"]).reshape(-1) > 0.5
            latency = (tio.read_latency(ppath) or {}).get("total_ms")
            records.append(score_cloud(path.name, pred, truth, latency))
        except Exception as exc:           # collected per file, not fatal
            records.append(CloudRecord(
                path.name, error=f"{type(exc).__name__}: {exc}"))
    return evaluate_pairs(records, "external-predictions")
