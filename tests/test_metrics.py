import math

import numpy as np
import pytest

from lanenas._kernels import runs_iou
from lanenas.errors import DegenerateLineError
from lanenas.metrics import (
    DEFAULT_CANVAS,
    DEFAULT_LANE_WIDTH,
    MetricsReport,
    SceneCounts,
    SceneScorer,
    _lane_runs,
    match_and_score,
    rasterize_lane,
    score_scene,
    tusimple_counts,
)


def lane_iou(a, b, width=DEFAULT_LANE_WIDTH, canvas=DEFAULT_CANVAS):
    """IoU of two lanes' pixels, drawn as runs the way `SceneScorer`
    draws them."""
    return runs_iou(_lane_runs(a, width, canvas), _lane_runs(b, width, canvas))


def oracle_mask(points, width, canvas):
    """Brute-force per-pixel check over the whole canvas."""
    w, h = canvas
    r = width / 2.0
    mask = np.zeros((h, w), dtype=bool)
    segs = list(zip(points, points[1:]))
    for py in range(h):
        for px in range(w):
            for (x1, y1), (x2, y2) in segs:
                dx, dy = x2 - x1, y2 - y1
                l2 = dx * dx + dy * dy
                if l2 > 0.0:
                    t = ((px - x1) * dx + (py - y1) * dy) / l2
                    t = min(max(t, 0.0), 1.0)
                else:
                    t = 0.0
                ex = x1 + t * dx - px
                ey = y1 + t * dy - py
                if ex * ex + ey * ey <= r * r:
                    mask[py, px] = True
                    break
    return mask


def random_polyline(rng, canvas, n_pts=4):
    w, h = canvas
    ys = np.sort(rng.uniform(0, h - 1, size=n_pts))
    xs = rng.uniform(0, w - 1, size=n_pts)
    while len(set(ys.tolist())) < n_pts:
        ys = np.sort(rng.uniform(0, h - 1, size=n_pts))
    return list(zip(xs.tolist(), ys.tolist()))


class TestRasterize:
    def test_vertical_capsule_area(self):
        # sub-pixel placement avoids the integer-grid bias of counting
        # both boundary columns
        canvas = (200, 220)
        line = [(100.37, 50.21), (100.37, 150.21)]
        mask = rasterize_lane(line, width=30, canvas=canvas)
        expected = 100 * 30 + math.pi * 15**2
        assert abs(mask.sum() - expected) / expected < 0.02

    def test_outside_canvas_empty(self):
        mask = rasterize_lane([(-500.0, 10.0), (-500.0, 90.0)], width=30, canvas=(100, 100))
        assert mask.sum() == 0

    def test_width_one_thin_trace(self):
        mask = rasterize_lane([(50.0, 10.0), (50.0, 90.0)], width=1, canvas=(100, 100))
        cols = np.unique(np.nonzero(mask)[1])
        assert cols.tolist() == [50]

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateLineError):
            rasterize_lane([(10.0, 10.0)], width=30, canvas=(100, 100))

    def test_matches_pixel_oracle(self):
        rng = np.random.default_rng(21)
        canvas = (64, 64)
        for _ in range(25):
            pts = random_polyline(rng, canvas)
            got = rasterize_lane(pts, width=10, canvas=canvas)
            assert np.array_equal(got, oracle_mask(pts, 10, canvas))


class TestLaneIoU:
    def test_identical(self):
        line = [(30.0, 5.0), (32.0, 60.0)]
        assert lane_iou(line, line, canvas=(64, 64)) == 1.0

    def test_disjoint(self):
        a = [(50.0, 10.0), (50.0, 500.0)]
        b = [(500.0, 10.0), (500.0, 500.0)]
        assert lane_iou(a, b, canvas=(600, 520)) == 0.0

    def test_parallel_15px_apart(self):
        a = [(200.0, 50.0), (200.0, 500.0)]
        b = [(215.0, 50.0), (215.0, 500.0)]
        # rectangle model: overlap 15 of 45 px width
        assert lane_iou(a, b, width=30, canvas=(500, 550)) == pytest.approx(
            1 / 3, abs=0.02
        )

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(8)
        canvas = (64, 64)
        for _ in range(20):
            a = random_polyline(rng, canvas)
            b = random_polyline(rng, canvas)
            iou = lane_iou(a, b, width=10, canvas=canvas)
            assert 0.0 <= iou <= 1.0
            assert iou == lane_iou(b, a, width=10, canvas=canvas)


class TestMatchAndScore:
    CANVAS = (512, 288)

    def lane(self, x):
        return [(x, 10.0), (x, 280.0)]

    def test_perfect_prediction(self):
        gt = [[self.lane(100), self.lane(300)]]
        report = match_and_score(gt, gt, canvas=self.CANVAS)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_pred(self):
        report = match_and_score([[]], [[self.lane(100), self.lane(300)]], canvas=self.CANVAS)
        assert report.f1 == 0.0
        assert report.fn == 2

    def test_duplicate_prediction_formula(self):
        gt = [[self.lane(100)]]
        pred = [[self.lane(100), self.lane(102)]]
        report = match_and_score(pred, gt, canvas=self.CANVAS)
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)
        assert report.f1 == pytest.approx(2 * (0.5 * 1.0) / 1.5, abs=1e-9)

    def test_aggregation_sums_counts(self):
        scene_a = ([self.lane(100)], [self.lane(100)])
        scene_b = ([], [self.lane(300)])
        report = match_and_score(
            [scene_a[0], scene_b[0]], [scene_a[1], scene_b[1]], canvas=self.CANVAS
        )
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)
        # never the mean of per-scene F1 (which would be 0.5)
        assert report.f1 == pytest.approx(2 / 3, abs=1e-9)

    def test_scene_order_invariant(self):
        scenes = [
            ([self.lane(100)], [self.lane(100)]),
            ([self.lane(50)], [self.lane(300)]),
            ([], [self.lane(200)]),
        ]
        fwd = match_and_score([s[0] for s in scenes], [s[1] for s in scenes], canvas=self.CANVAS)
        rev = match_and_score(
            [s[0] for s in reversed(scenes)], [s[1] for s in reversed(scenes)], canvas=self.CANVAS
        )
        assert fwd.f1 == rev.f1

    def test_spurious_prediction_never_helps(self):
        gt = [[self.lane(100), self.lane(300)]]
        pred = [self.lane(100)]
        base = match_and_score([pred], gt, canvas=self.CANVAS).f1
        worse = match_and_score([pred + [self.lane(480)]], gt, canvas=self.CANVAS).f1
        assert worse <= base

    def test_strict_threshold_at_half(self):
        # identical lanes have IoU exactly 1.0 > 0.5; a lane exactly at
        # IoU 0.5 must NOT count (strict inequality)
        gt = [[self.lane(100)]]
        counts = score_scene([self.lane(100)], gt[0], iou_threshold=1.0, canvas=self.CANVAS)
        assert counts.tp == 0  # IoU 1.0 is not > 1.0

    def test_score_scene_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            score_scene([self.lane(100)], [self.lane(100)], width=0, canvas=self.CANVAS)

    def test_score_scene_rejects_degenerate_lane(self):
        with pytest.raises(DegenerateLineError):
            score_scene([[(100.0, 10.0)]], [self.lane(100)], canvas=self.CANVAS)

    def test_zero_over_zero_convention(self):
        report = match_and_score([[]], [[]], canvas=self.CANVAS)
        assert (report.precision, report.recall) == (1.0, 1.0)
        assert report.f1 == 1.0

    def test_takes_iterators(self):
        gts = [[self.lane(100)], [self.lane(300)], []]
        preds = [[self.lane(102)], [], [self.lane(50)]]
        assert match_and_score(iter(preds), iter(gts), canvas=self.CANVAS) == \
            match_and_score(preds, gts, canvas=self.CANVAS)

    @pytest.mark.parametrize("n_pred, n_gt", [(1, 2), (2, 1), (0, 1)])
    def test_unequal_scene_counts_raise(self, n_pred, n_gt):
        for make in (list, lambda scenes: (scene for scene in scenes)):
            pred = make([[self.lane(100)]] * n_pred)
            gt = make([[self.lane(100)]] * n_gt)
            with pytest.raises(ValueError):
                match_and_score(pred, gt, canvas=self.CANVAS)



class TestSceneScorer:
    CANVAS = (512, 288)

    def lane(self, x):
        return [(x, 10.0), (x, 280.0)]

    def test_same_lane_scored_against_each_scenes_own_truth(self):
        gts = [[self.lane(100)], [self.lane(300)], [self.lane(100), self.lane(104)]]
        scorer = SceneScorer(gts, canvas=self.CANVAS)
        pred = [self.lane(102)]
        for _ in range(2):  # the second pass is served from the kept IoUs
            report = scorer.report([pred, pred, pred])
            assert report.per_scene == tuple(
                score_scene(pred, g, canvas=self.CANVAS) for g in gts
            )
            assert report == match_and_score([pred] * 3, gts, canvas=self.CANVAS)

    def test_rejects_scene_count_mismatch(self):
        scorer = SceneScorer([[self.lane(100)]], canvas=self.CANVAS)
        with pytest.raises(ValueError):
            scorer.report([[], []])

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            SceneScorer([[]], width=0, canvas=self.CANVAS)

    @pytest.mark.parametrize("canvas", [(0, 590), (1640, 0), (-3, 590), (math.nan, 590)])
    def test_rejects_canvas_side_below_one(self, canvas):
        lane = self.lane(100)
        for score in (lambda: SceneScorer([[lane]], canvas=canvas),
                      lambda: score_scene([lane], [lane], canvas=canvas),
                      lambda: match_and_score([[lane]], [[lane]], canvas=canvas)):
            with pytest.raises(ValueError, match="canvas"):
                score()

    def test_list_and_array_lanes_are_one_lane(self):
        gt = [np.array(self.lane(100)), self.lane(300)]
        pred = [(101, 10.0), (99.5, 280)]  # ints too: every coordinate is a float64
        as_array = np.array(pred, dtype=np.float64)
        scorer = SceneScorer([gt], canvas=self.CANVAS)
        counts = scorer.scene_counts(0, [pred])
        assert scorer.scene_counts(0, [as_array]) == counts == SceneCounts(1, 0, 1)
        assert len(scorer._ious[0]) == 1
        assert score_scene([pred], gt, canvas=self.CANVAS) == counts
        assert score_scene([as_array], [np.array(g) for g in gt], canvas=self.CANVAS) == counts

    @pytest.mark.parametrize("lane", [[], [(1.0, 2.0)], np.empty((0, 2)), np.ones((1, 2))])
    def test_fewer_than_two_points_is_degenerate(self, lane):
        with pytest.raises(DegenerateLineError):
            score_scene([lane], [], canvas=self.CANVAS)

    @pytest.mark.parametrize("lane", [np.ones((3, 3)), np.ones(4), [(1.0, 2.0, 3.0)] * 2, 5.0])
    def test_wrong_shape_is_rejected(self, lane):
        with pytest.raises(ValueError):
            score_scene([lane], [], canvas=self.CANVAS)


class TestTuSimple:
    def lane(self, xs, rows=(0.0, 4.0, 8.0, 12.0)):
        return list(zip(xs, rows))

    def test_exact(self):
        gt = [self.lane([10, 11, 12, 13])]
        assert tusimple_counts(gt, gt) == (4, 4)

    def test_all_off(self):
        gt = [self.lane([10, 11, 12, 13])]
        pred = [self.lane([100, 111, 212, 313])]
        assert tusimple_counts(pred, gt) == (0, 4)

    def test_three_of_four(self):
        gt = [self.lane([10.0, 11.0, 12.0, 13.0])]
        pred = [self.lane([10.0, 11.0, 12.0, 93.0])]
        assert tusimple_counts(pred, gt) == (3, 4)

    def test_unmatched_gt_counts_in_denominator(self):
        gt = [self.lane([10, 11, 12, 13]), self.lane([300, 301, 302, 303])]
        pred = [self.lane([10, 11, 12, 13])]
        correct, total = tusimple_counts(pred, gt)
        assert (correct, total) == (4, 8)

    def test_lanes_on_no_shared_row_are_not_paired(self):
        gt = [self.lane([10, 11, 12, 13])]
        between = self.lane([10, 11, 12, 13], rows=(2.0, 6.0, 10.0, 14.0))
        assert tusimple_counts([between], gt) == (0, 4)
        assert tusimple_counts([between, gt[0]], gt) == (4, 4)
