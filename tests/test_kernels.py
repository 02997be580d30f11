import numpy as np
import pytest

from lanenas import _kernels
from lanenas.metrics import score_scene
from lanenas.synth import SynthSceneConfig, generate_synthetic_scenes

from test_metrics import lane_iou


def reference_rasterize(xs, ys, radius, canvas):
    """Per-segment reference: paint each segment's clamped window with the
    distance predicate and OR the windows together. The run kernel must
    reproduce it bit for bit."""
    w, h = canvas
    mask = np.zeros((h, w), dtype=np.bool_)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    r2 = radius * radius
    for i in range(len(xs) - 1):
        x1, y1, x2, y2 = xs[i], ys[i], xs[i + 1], ys[i + 1]
        dx, dy = x2 - x1, y2 - y1
        l2 = dx * dx + dy * dy
        x_lo = max(int(np.floor(min(x1, x2) - radius)), 0)
        x_hi = min(int(np.ceil(max(x1, x2) + radius)), w - 1)
        y_lo = max(int(np.floor(min(y1, y2) - radius)), 0)
        y_hi = min(int(np.ceil(max(y1, y2) + radius)), h - 1)
        if x_hi < x_lo or y_hi < y_lo:
            continue
        px = np.arange(x_lo, x_hi + 1, dtype=np.float64)
        py = np.arange(y_lo, y_hi + 1, dtype=np.float64)[:, None]
        if l2 > 0.0:
            t = ((px - x1) * dx + (py - y1) * dy) / l2
            t = np.clip(t, 0.0, 1.0)
        else:
            t = np.zeros((y_hi - y_lo + 1, x_hi - x_lo + 1))
        ex = x1 + t * dx - px
        ey = y1 + t * dy - py
        hit = ex * ex + ey * ey <= r2
        mask[y_lo : y_hi + 1, x_lo : x_hi + 1] |= hit
    return mask


def adversarial_polylines(seed, n):
    """Random polylines over and around a small canvas, with the segment
    kinds where rounding decides boundary pixels: integer and half-integer
    coordinates, horizontal, vertical and zero-length segments."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        m = int(rng.integers(2, 7))
        xs = rng.uniform(-25, 85, size=m)
        ys = rng.uniform(-25, 70, size=m)
        kind = k % 6
        if kind == 1:
            xs, ys = np.round(xs), np.round(ys)
        elif kind == 2:
            ys[:] = np.round(ys[0])
        elif kind == 3:
            xs[:] = np.round(xs[0])
        elif kind == 4:
            xs[1], ys[1] = xs[0], ys[0]
        elif kind == 5:
            xs, ys = np.round(xs * 2) / 2, np.round(ys * 2) / 2
        radius = float(rng.choice([0.5, 1.0, 1.5, 2.0, 5.0, 7.5, 15.0, 20.0]))
        if k % 4 == 0:
            radius = float(rng.uniform(0.5, 20.0))
        out.append((xs, ys, radius))
    return out


def corpus_lanes(num_scenes, seed, canvas=(1640, 590)):
    """Ground-truth lanes of the synthetic corpus, scaled from the
    generator's 512x288 to `canvas`."""
    sx, sy = canvas[0] / 512, canvas[1] / 288
    scenes = generate_synthetic_scenes(
        SynthSceneConfig(num_scenes=num_scenes, remote_noise_sigma=40, seed=seed)
    )
    return [
        [(x * sx, y * sy) for x, y in lane]
        for _, record in scenes
        for lane in record.gt_lanes
    ]


def test_runs_match_reference_on_random_polylines():
    canvas = (61, 47)
    for xs, ys, radius in adversarial_polylines(0, 600):
        got = _kernels.rasterize_polyline(xs, ys, radius, canvas)
        assert np.array_equal(got, reference_rasterize(xs, ys, radius, canvas))


def test_runs_match_reference_on_corpus_lanes_at_culane_size():
    canvas = (1640, 590)
    for lane in corpus_lanes(10, seed=4):
        xs, ys = np.array(lane).T
        got = _kernels.rasterize_polyline(xs, ys, 15.0, canvas)
        assert np.array_equal(got, reference_rasterize(xs, ys, 15.0, canvas))


def test_runs_are_sorted_disjoint_and_count_the_mask():
    for xs, ys, radius in adversarial_polylines(1, 60):
        starts, stops = _kernels.polyline_runs(xs, ys, radius, (61, 47))
        assert np.all(stops > starts)
        assert np.all(starts[1:] > stops[:-1])
        mask = reference_rasterize(xs, ys, radius, (61, 47))
        assert _kernels.run_area((starts, stops)) == np.count_nonzero(mask)


def test_iou_and_scene_counts_equal_reference_masks():
    canvas, width = (512, 288), 30
    gt = corpus_lanes(6, seed=5, canvas=canvas)
    # predictions shifted so some pairs fall on each side of IoU 0.5
    pred = [[(x + shift, y) for x, y in lane]
            for lane, shift in zip(gt, [0.0, 4.5, 9.0, 13.0, 17.5, 40.0] * 2)]
    masks = {}

    def ref_mask(lane):
        key = id(lane)
        if key not in masks:
            xs, ys = np.array(lane).T
            masks[key] = reference_rasterize(xs, ys, width / 2.0, canvas)
        return masks[key]

    def ref_iou(a, b):
        ma, mb = ref_mask(a), ref_mask(b)
        union = np.count_nonzero(ma | mb)
        return np.count_nonzero(ma & mb) / union if union else 0.0

    for a in pred:
        for b in gt:
            assert lane_iou(a, b, width, canvas) == ref_iou(a, b)

    for k in range(0, len(gt), 2):
        p_scene, g_scene = pred[k : k + 3], gt[k : k + 2]
        pairs = sorted(
            (-ref_iou(p, g), i, j)
            for i, p in enumerate(p_scene)
            for j, g in enumerate(g_scene)
            if ref_iou(p, g) > 0.5
        )
        used_p, used_g = set(), set()
        for _, i, j in pairs:
            if i not in used_p and j not in used_g:
                used_p.add(i)
                used_g.add(j)
        tp = len(used_p)
        counts = score_scene(p_scene, g_scene, width=width, canvas=canvas)
        assert (counts.tp, counts.fp, counts.fn) == (
            tp, len(p_scene) - tp, len(g_scene) - tp
        )


def long_polylines(seed, n, canvas):
    """Polylines of 2-90 points over and around `canvas`, each kind
    aimed at one thing the kernel relies on: pieces that only rise or
    only fall in y (cut apart where y turns back), flat runs and
    repeated points, integer and half-integer coordinates, steep and
    near-horizontal segments, and paths across every canvas edge. Many
    short segments put rows beyond a segment's `reach`."""
    w, h = canvas
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        m = int(rng.integers(2, 91))
        kind = k % 8
        ys = np.sort(rng.uniform(-0.3 * h, 1.3 * h, size=m))
        xs = w / 2 + np.cumsum(rng.normal(0.0, 1.5, size=m))
        if kind == 1:  # falling
            ys = ys[::-1].copy()
        elif kind == 2:  # flat runs and repeated points, integer
            held = np.where(rng.random(m) < 0.3, 0, np.arange(m))  # 0: the y before
            ys = np.round(ys[np.maximum.accumulate(held)])
            xs = np.round(xs)
            dup = rng.random(m) < 0.2
            xs[1:][dup[1:]] = xs[:-1][dup[1:]]
        elif kind == 3:  # several y turns, half-integer
            turns = np.sort(rng.choice(np.arange(1, m), size=min(m - 1, 4), replace=False))
            for t in turns:
                ys[t:] = 2 * ys[t - 1] - ys[t:]
            xs, ys = np.round(xs * 2) / 2, np.round(ys * 2) / 2
        elif kind == 4:  # steep and near-horizontal segments mixed
            flat = rng.random(m - 1) < 0.3
            steps = np.where(flat, rng.uniform(-0.05, 0.05, m - 1), rng.uniform(0.5, 3, m - 1))
            ys = -5 + np.concatenate([[0.0], np.cumsum(steps)])
            xs = np.concatenate([[0.0], np.cumsum(np.where(flat, rng.uniform(3, 9, m - 1),
                                                             rng.uniform(-0.2, 0.2, m - 1)))])
        elif kind == 5:  # across every edge: left, top, right, bottom and back
            corners = np.array([[-9, h / 2], [w / 2, -9], [w + 9, h / 2], [w / 2, h + 9],
                                [-9, h / 2]])
            t = np.linspace(0, 4, max(m, 5))
            xs = np.interp(t, np.arange(5), corners[:, 0]) + rng.normal(0, 1, len(t))
            ys = np.interp(t, np.arange(5), corners[:, 1]) + rng.normal(0, 1, len(t))
        elif kind == 6:  # a random walk with turns everywhere
            xs = w / 2 + np.cumsum(rng.normal(0, 4, m))
            ys = h / 2 + np.cumsum(rng.normal(0, 4, m))
        elif kind == 7:  # integer lane, wide steps across the canvas
            xs = np.round(rng.uniform(-5, w + 5) + np.cumsum(rng.normal(0, 3, m)))
            ys = np.round(np.sort(rng.uniform(-5, h + 5, m)))
        radius = float(rng.choice([1e-9, 0.5, 1.0, 2.5, 4.0, 7.0, 11.5, 15.0]))
        if k % 5 == 0:
            radius = float(rng.uniform(0.2, 16.0))
        out.append((xs, ys, radius))
    return out


@pytest.mark.parametrize("canvas", [(61, 47), (23, 90)])
def test_runs_match_reference_on_long_polylines(canvas):
    for xs, ys, radius in long_polylines(sum(canvas), 400, canvas):
        starts, stops = _kernels.polyline_runs(xs, ys, radius, canvas)
        assert np.all(stops > starts)
        assert np.all(starts[1:] > stops[:-1])
        got = _kernels.rasterize_polyline(xs, ys, radius, canvas)
        assert np.array_equal(got, reference_rasterize(xs, ys, radius, canvas))


def test_radius_within_the_band_keeps_only_pixels_on_the_line():
    canvas = (31, 29)
    xs = np.array([2.0, 2.0, 14.0, 14.0, 29.0, 3.5])
    ys = np.array([-3.0, 10.0, 10.0, 27.0, 12.0, 12.0])
    for radius in (0.0, 1e-12, 1e-9):
        got = _kernels.rasterize_polyline(xs, ys, radius, canvas)
        assert got.any()
        assert np.array_equal(got, reference_rasterize(xs, ys, radius, canvas))


@pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf])
def test_negative_or_non_finite_radius_rejected(radius):
    with pytest.raises(ValueError):
        _kernels.polyline_runs([1.0, 5.0], [1.0, 5.0], radius, (10, 10))


def mask_runs(mask):
    """The runs of a boolean mask's row-major flat pixels."""
    edges = np.diff(np.concatenate([[0], mask.ravel().astype(np.int8), [0]]))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def mask_iou(a, b):
    union = np.count_nonzero(a | b)
    return np.count_nonzero(a & b) / union if union else 0.0


def test_runs_iou_equals_mask_iou_on_random_run_sets():
    rng = np.random.default_rng(8)
    w, h = 13, 7
    masks = [np.zeros((h, w), dtype=bool)]
    for k in range(120):
        mask = rng.random((h, w)) < rng.choice([0.05, 0.3, 0.6, 0.95])
        if k % 3 == 0:  # whole runs across row ends
            mask = np.repeat(mask[:, ::4], 4, axis=1)[:, :w]
        masks.append(mask)
    for a in masks:
        for b in masks[:40]:
            assert _kernels.runs_iou(mask_runs(a), mask_runs(b)) == mask_iou(a, b)


def test_runs_iou_across_a_row_end():
    w, h = 10, 4
    end_of_row = np.zeros((h, w), dtype=bool)
    end_of_row[1, 6:] = True  # a run ending at row 1's last pixel
    next_row = np.zeros((h, w), dtype=bool)
    next_row[2, :3] = True  # the run right after it, at row 2's first pixel
    both = end_of_row | next_row
    assert len(mask_runs(both)[0]) == 1
    empty = np.zeros((h, w), dtype=bool)
    for a, b in [(end_of_row, next_row), (next_row, end_of_row), (both, next_row),
                 (end_of_row, both), (both, both), (empty, both), (both, empty),
                 (empty, empty)]:
        assert _kernels.runs_iou(mask_runs(a), mask_runs(b)) == mask_iou(a, b)


def test_degenerate_zero_length_segment():
    xs = np.array([10.0, 10.0])
    ys = np.array([20.0, 20.0])
    mask = _kernels.rasterize_polyline(xs, ys, 3.0, (40, 40))
    # a point dilates to a disc
    assert mask[20, 10]
    assert not mask[20, 16]


def test_single_point_empty():
    mask = _kernels.rasterize_polyline([5.0], [5.0], 3.0, (10, 10))
    assert mask.sum() == 0


def test_non_finite_coordinates_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            _kernels.polyline_runs([1.0, bad], [1.0, 5.0], 3.0, (10, 10))
