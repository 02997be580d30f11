"""Evaluation metrics: IoU-matched F1 over rasterized 30-px-wide lanes
(CULane style) and point-level accuracy (TuSimple style)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import polyline_runs, rasterize_polyline, runs_iou
from .errors import DegenerateLineError

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
    """The x and y float64 arrays of a lane: an iterable of (x, y) points,
    such as a ground-truth polyline, or an (n, 2) array of them, such as
    the points of a `postprocess` lane (its columns, not copied)."""
    if isinstance(line, np.ndarray):
        if line.ndim != 2 or line.shape[1] != 2:
            raise ValueError(f"a lane array has shape (n, 2), not {line.shape}")
        pts = line.astype(np.float64, copy=False)
        if len(pts) < 2:
            raise DegenerateLineError(f"{len(pts)} point(s)")
        return pts[:, 0], pts[:, 1]
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


class SceneScorer:
    """CULane scoring of predictions against fixed ground-truth scenes.

    Each ground-truth lane is drawn once, here. Per scene, a predicted
    lane's IoUs against that scene's ground-truth lanes are kept under
    the lane's exact coordinates (the float64 bytes of `_as_xy`, the
    same for a list of (x, y) points and for an (n, 2) array of them),
    so a lane met again is never redrawn. A lane's runs depend only on
    its coordinates, the width and the canvas, so every kept IoU equals
    the recomputed one and scores are exact.
    """

    def __init__(
        self,
        gt_scenes,
        iou_threshold=DEFAULT_IOU_THRESHOLD,
        width=DEFAULT_LANE_WIDTH,
        canvas=DEFAULT_CANVAS,
    ):
        self.iou_threshold = iou_threshold
        self._radius = _radius(width)
        self._canvas = canvas
        self._gt_runs = [
            [_lane_runs(g, width, canvas) for g in gt] for gt in gt_scenes
        ]
        self._ious = [{} for _ in self._gt_runs]

    def _iou_row(self, scene, line):
        xs, ys = _as_xy(line)
        key = xs.tobytes() + ys.tobytes()
        known = self._ious[scene]
        row = known.get(key)
        if row is None:
            runs = polyline_runs(xs, ys, self._radius, self._canvas)
            row = known[key] = tuple(runs_iou(runs, g) for g in self._gt_runs[scene])
        return row

    def scene_counts(self, scene, pred) -> SceneCounts:
        """Counts of the predicted lanes `pred` on ground-truth scene
        number `scene`."""
        rows = [self._iou_row(scene, p) for p in pred]
        return _match(rows, len(self._gt_runs[scene]), self.iou_threshold)

    def report(self, pred_scenes) -> MetricsReport:
        """`match_and_score` of `pred_scenes` against the ground truth."""
        if len(pred_scenes) != len(self._gt_runs):
            raise ValueError("pred and gt scene lists differ in length")
        return _report(
            tuple(self.scene_counts(i, p) for i, p in enumerate(pred_scenes))
        )


def _match(iou_rows, n_gt, iou_threshold) -> SceneCounts:
    """Greedy one-to-one matching in descending IoU order; IoU strictly
    above the threshold counts as a true positive. `iou_rows[i][j]` is
    the IoU of predicted lane i and ground-truth lane j."""
    pairs = [
        (iou, i, j)
        for i, row in enumerate(iou_rows)
        for j, iou in enumerate(row)
        if iou > iou_threshold
    ]
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_p, used_g = set(), set()
    tp = 0
    for _, i, j in pairs:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        tp += 1
    return SceneCounts(tp=tp, fp=len(iou_rows) - tp, fn=n_gt - tp)


def _report(per_scene) -> MetricsReport:
    """Aggregate F1 over scenes: raw counts are summed first, then the
    precision/recall/F1 formulas are applied once (never averaged
    per-scene)."""
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


def score_scene(
    pred,
    gt,
    iou_threshold=DEFAULT_IOU_THRESHOLD,
    width=DEFAULT_LANE_WIDTH,
    canvas=DEFAULT_CANVAS,
) -> SceneCounts:
    """Counts of one scene: greedy one-to-one matching in descending IoU
    order, IoU strictly above the threshold a true positive (`_match`)."""
    return SceneScorer([gt], iou_threshold, width, canvas).scene_counts(0, pred)


def match_and_score(
    pred_scenes,
    gt_scenes,
    iou_threshold=DEFAULT_IOU_THRESHOLD,
    width=DEFAULT_LANE_WIDTH,
    canvas=DEFAULT_CANVAS,
) -> MetricsReport:
    """Aggregate F1 over scenes, each scored once. Scenes are scored one
    at a time, so only one scene's ground-truth runs are held at once."""
    if len(pred_scenes) != len(gt_scenes):
        raise ValueError("pred and gt scene lists differ in length")
    return _report(
        tuple(
            score_scene(p, g, iou_threshold, width, canvas)
            for p, g in zip(pred_scenes, gt_scenes)
        )
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
