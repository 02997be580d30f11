"""Evaluation metrics: IoU-matched F1 over rasterized 30-px-wide lanes
(CULane style) and point-level accuracy (TuSimple style)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import polyline_runs, rasterize_polyline, runs_iou
from .errors import DegenerateLineError
from .lane_model import LaneLine

DEFAULT_LANE_WIDTH = 30
DEFAULT_CANVAS = (1640, 590)  # CULane resolution
DEFAULT_IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class SceneCounts:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self):
        return 1.0 if self.tp + self.fp == 0 else self.tp / (self.tp + self.fp)

    @property
    def recall(self):
        return 1.0 if self.tp + self.fn == 0 else self.tp / (self.tp + self.fn)

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    per_scene: tuple[SceneCounts, ...]


def _as_xy(line):
    """Accept a LaneLine or a raw iterable of (x, y) points."""
    if isinstance(line, LaneLine):
        pts = [(p.x, p.y) for p in line.points]
    else:
        pts = [(float(x), float(y)) for x, y in line]
    if len(pts) < 2:
        raise DegenerateLineError(f"{len(pts)} point(s)")
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


def _radius(width):
    if width <= 0:
        raise ValueError("width must be positive")
    return width / 2.0


def rasterize_lane(line, width=DEFAULT_LANE_WIDTH, canvas=DEFAULT_CANVAS):
    """Pixels within width/2 of the polyline, clipped to the canvas."""
    radius = _radius(width)
    xs, ys = _as_xy(line)
    return rasterize_polyline(xs, ys, radius, canvas)


def _lane_runs(line, width, canvas):
    """The pixels of `rasterize_lane` as runs (see `_kernels`)."""
    radius = _radius(width)
    xs, ys = _as_xy(line)
    return polyline_runs(xs, ys, radius, canvas)


def lane_iou(a, b, width=DEFAULT_LANE_WIDTH, canvas=DEFAULT_CANVAS):
    return runs_iou(_lane_runs(a, width, canvas), _lane_runs(b, width, canvas))


def score_scene(
    pred,
    gt,
    iou_threshold=DEFAULT_IOU_THRESHOLD,
    width=DEFAULT_LANE_WIDTH,
    canvas=DEFAULT_CANVAS,
) -> SceneCounts:
    """Greedy one-to-one matching in descending IoU order; IoU strictly
    above the threshold counts as a true positive."""
    pairs = []
    pred_runs = [_lane_runs(p, width, canvas) for p in pred]
    gt_runs = [_lane_runs(g, width, canvas) for g in gt]
    for i, pr in enumerate(pred_runs):
        for j, gr in enumerate(gt_runs):
            iou = runs_iou(pr, gr)
            if iou > iou_threshold:
                pairs.append((iou, i, j))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_p, used_g = set(), set()
    tp = 0
    for _, i, j in pairs:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        tp += 1
    return SceneCounts(tp=tp, fp=len(pred) - tp, fn=len(gt) - tp)


def match_and_score(
    pred_scenes,
    gt_scenes,
    iou_threshold=DEFAULT_IOU_THRESHOLD,
    width=DEFAULT_LANE_WIDTH,
    canvas=DEFAULT_CANVAS,
) -> MetricsReport:
    """Aggregate F1 over scenes: raw counts are summed first, then the
    precision/recall/F1 formulas are applied once (never averaged
    per-scene)."""
    if len(pred_scenes) != len(gt_scenes):
        raise ValueError("pred and gt scene lists differ in length")
    per_scene = tuple(
        score_scene(p, g, iou_threshold, width, canvas)
        for p, g in zip(pred_scenes, gt_scenes)
    )
    tp = sum(s.tp for s in per_scene)
    fp = sum(s.fp for s in per_scene)
    fn = sum(s.fn for s in per_scene)
    total = SceneCounts(tp, fp, fn)
    return MetricsReport(
        tp=tp,
        fp=fp,
        fn=fn,
        precision=total.precision,
        recall=total.recall,
        f1=total.f1,
        per_scene=per_scene,
    )


def _row_map(line):
    xs, ys = _as_xy(line)
    return dict(zip(ys.tolist(), xs.tolist()))


def tusimple_counts(pred, gt, x_tolerance=20.0):
    """(correct points, gt points) for one scene.

    Lanes are paired greedily by mean horizontal distance; a gt point on
    a matched lane counts when the prediction has a point on the same
    anchor row within the tolerance.
    """
    gt_maps = [_row_map(g) for g in gt]
    pred_maps = [_row_map(p) for p in pred]
    n_gt = sum(len(m) for m in gt_maps)

    dists = []
    for i, pm in enumerate(pred_maps):
        for j, gm in enumerate(gt_maps):
            shared = [y for y in gm if y in pm]
            if not shared:
                continue
            d = sum(abs(pm[y] - gm[y]) for y in shared) / len(shared)
            dists.append((d, i, j))
    dists.sort(key=lambda t: (t[0], t[1], t[2]))
    used_p, used_g = set(), set()
    correct = 0
    for _, i, j in dists:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        pm, gm = pred_maps[i], gt_maps[j]
        correct += sum(
            1 for y, gx in gm.items() if y in pm and abs(pm[y] - gx) < x_tolerance
        )
    return correct, n_gt


def tusimple_accuracy(pred, gt, x_tolerance=20.0):
    correct, n_gt = tusimple_counts(pred, gt, x_tolerance)
    return 1.0 if n_gt == 0 else correct / n_gt
