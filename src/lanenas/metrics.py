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
class MetricsReport(SceneCounts):
    """The counts summed over scenes, and each scene's own."""
    per_scene: tuple[SceneCounts, ...]


def _as_xy(line):
    """The x and y float64 arrays of a lane given as its (n, 2) `(x, y)`
    points: an array, such as a ground-truth lane or the points of a
    `postprocess` lane (its columns, not copied), or a list of pairs."""
    pts = np.asarray(line, dtype=np.float64)
    if pts.shape == (0,):  # `[]`: no point at all
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"a lane has shape (n, 2), not {pts.shape}")
    if len(pts) < 2:
        raise DegenerateLineError(f"{len(pts)} point(s)")
    return pts[:, 0], pts[:, 1]


def _radius(width):
    if width <= 0:
        raise ValueError("width must be positive")
    return width / 2.0


def _canvas_size(canvas):
    w, h = canvas
    if not (w >= 1 and h >= 1):
        raise ValueError(f"canvas sides must be at least 1, not {w}x{h}")
    return canvas


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
        self._canvas = _canvas_size(canvas)
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


def _greedy_pairs(candidates):
    """Greedy one-to-one matching of predicted lanes `i` to ground-truth
    lanes `j`: `(cost, i, j)` triples are taken in ascending order (ties
    by `i`, then `j`), each kept unless its `i` or its `j` is already
    matched. Returns the kept `(i, j)` pairs in that order."""
    used_p, used_g = set(), set()
    pairs = []
    for _, i, j in sorted(candidates):
        if i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
            pairs.append((i, j))
    return pairs


def _match(iou_rows, n_gt, iou_threshold) -> SceneCounts:
    """Greedy one-to-one matching in descending IoU order; IoU strictly
    above the threshold counts as a true positive. `iou_rows[i][j]` is
    the IoU of predicted lane i and ground-truth lane j."""
    tp = len(_greedy_pairs(
        (-iou, i, j)
        for i, row in enumerate(iou_rows)
        for j, iou in enumerate(row)
        if iou > iou_threshold
    ))
    return SceneCounts(tp=tp, fp=len(iou_rows) - tp, fn=n_gt - tp)


def _report(per_scene) -> MetricsReport:
    """Aggregate F1 over scenes: raw counts are summed first, then the
    precision/recall/F1 formulas are applied once (never averaged
    per-scene)."""
    return MetricsReport(
        sum(s.tp for s in per_scene), sum(s.fp for s in per_scene), sum(s.fn for s in per_scene),
        per_scene,
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
    """Aggregate F1 over scenes, each scored once. The two iterables are
    read in step and scored one scene at a time, so only one scene's
    lanes and ground-truth runs are held at once; a `ValueError` is
    raised when one runs out before the other."""
    return _report(
        tuple(
            score_scene(p, g, iou_threshold, width, canvas)
            for p, g in zip(pred_scenes, gt_scenes, strict=True)
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
    correct = 0
    for i, j in _greedy_pairs(dists):
        pm, gm = pred_maps[i], gt_maps[j]
        correct += sum(
            1 for y, gx in gm.items() if y in pm and abs(pm[y] - gx) < x_tolerance
        )
    return correct, n_gt
