"""Lane rasterization as pixel runs.

A pixel belongs to a lane drawn with radius `radius` when its center
lies within `radius` of some polyline segment (clamped-projection
distance, so caps and joins are round). The kernel returns that pixel
set as *runs*: two int64 arrays `(starts, stops)` of half-open ranges
`[start, stop)` of row-major flat pixel indices `y * w + x`, sorted,
disjoint and never touching. Counting, unions and IoU work on runs
directly, so no canvas-sized array is allocated to score a lane.

On one pixel row the points within `radius` of a segment form a single
interval, since the capsule around a segment is convex. The kernel takes
every (segment, row) pair at once and finds that interval in closed
form twice, for `radius - eta` and `radius + eta`, where `eta` is far
above the floating-point error of both the closed form and the pixel
test. Pixels inside the inner interval are hits and pixels outside the
outer one are misses under any rounding. The pixels between the two
(usually none, and then the kernel stops at the inner intervals; a whole
row only where the row runs along the boundary, as beside a horizontal
segment) are decided by the per-pixel predicate

    t = clip(((px - x1) * dx + (py - y1) * dy) / l2, 0, 1)    (0 if l2 == 0)
    (x1 + t * dx - px) ** 2 + (y1 + t * dy - py) ** 2 <= radius ** 2

written as the same float64 expression in the same order as the
per-segment reference in `tests/test_kernels.py`, inside the same clamped
per-segment window. The result is therefore bit-identical to painting
each segment's window with that predicate and OR-ing the masks.
"""

import numpy as np

# Relative width of the band around the exact boundary whose pixels are
# tested one by one. The pixel test and the closed form both err by a few
# ulps of the largest coordinate, about 1e-15 of it.
_BAND = 1e-9


def _expand(starts, stops):
    """Every integer of the half-open ranges [starts, stops) in order,
    with the index of the range each came from."""
    lengths = np.maximum(stops - starts, 0)
    owner = np.repeat(np.arange(len(starts)), lengths)
    first = np.cumsum(lengths) - lengths
    return starts[owner] + np.arange(len(owner)) - first[owner], owner


def _row_spans(seg, y, rho):
    """Real x-interval [lo, hi] of the points of row `y` within `rho` of
    each segment, one output row per entry of the column `rho`; (inf, -inf)
    where there are none. `seg` holds per-pair arrays x1, y1, x2, y2, dx,
    dy, l2 and the segment length."""
    x1, y1, x2, y2, dx, dy, l2, length = seg
    ry = y - y1
    with np.errstate(divide="ignore", invalid="ignore"):
        # the end discs, NaN off the disc
        h1 = np.sqrt(rho * rho - ry * ry)
        h2 = np.sqrt(rho * rho - (y - y2) ** 2)
        # the part between them: 0 <= t <= 1 and |signed distance| <= rho,
        # each linear in u = x - x1. A zero coefficient makes a bound
        # +-inf, or NaN when the bound is 0 too; NaN drops the part, which
        # only happens on a row through an end, which its disc covers, or
        # on a row at exactly distance rho.
        t_a, t_b = -ry * dy / dx, (l2 - ry * dy) / dx
        s_a = (ry * dx - rho * length) / dy
        s_b = (ry * dx + rho * length) / dy
    u_lo = np.maximum(np.minimum(t_a, t_b), np.minimum(s_a, s_b))
    u_hi = np.minimum(np.maximum(t_a, t_b), np.maximum(s_a, s_b))
    between = u_lo <= u_hi
    lo = np.fmin(np.fmin(x1 - h1, x2 - h2), np.where(between, x1 + u_lo, np.nan))
    hi = np.fmax(np.fmax(x1 + h1, x2 + h2), np.where(between, x1 + u_hi, np.nan))
    empty = np.isnan(lo)
    return np.where(empty, np.inf, lo), np.where(empty, -np.inf, hi)


def _merge_runs(starts, stops):
    """Sort half-open ranges and merge those that overlap or touch."""
    if len(starts) == 0:
        return starts, stops
    order = np.argsort(starts, kind="stable")
    starts, stops = starts[order], stops[order]
    reach = np.maximum.accumulate(stops)
    new = np.empty(len(starts), dtype=np.bool_)
    new[0] = True
    np.greater(starts[1:], reach[:-1], out=new[1:])
    last = np.append(new[1:], True)
    return starts[new], reach[last]


def run_area(runs):
    """Number of pixels in a run set."""
    starts, stops = runs
    return int((stops - starts).sum())


def runs_iou(a, b):
    """IoU of two run sets from integer pixel counts, with the
    intersection as |A| + |B| - |A u B|; 0.0 when both are empty."""
    union = run_area(
        _merge_runs(np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]))
    )
    if union == 0:
        return 0.0
    return (run_area(a) + run_area(b) - union) / union


def polyline_runs(xs, ys, radius, canvas):
    """Runs of all canvas pixels within `radius` of the polyline."""
    w, h = canvas
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    if len(xs) < 2:
        return empty
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("lane coordinates must be finite")
    radius = float(radius)
    x1, y1, x2, y2 = xs[:-1], ys[:-1], xs[1:], ys[1:]
    dx, dy = x2 - x1, y2 - y1
    l2 = dx * dx + dy * dy
    # the clamped window each segment may paint
    x_lo = np.maximum(np.floor(np.minimum(x1, x2) - radius), 0.0)
    x_hi = np.minimum(np.ceil(np.maximum(x1, x2) + radius), w - 1.0)
    y_lo = np.maximum(np.floor(np.minimum(y1, y2) - radius), 0.0)
    y_hi = np.minimum(np.ceil(np.maximum(y1, y2) + radius), h - 1.0)
    keep = np.flatnonzero((x_hi >= x_lo) & (y_hi >= y_lo))
    if len(keep) == 0:
        return empty
    # one entry per (segment, row) pair
    row, pair_seg = _expand(
        y_lo[keep].astype(np.int64), y_hi[keep].astype(np.int64) + 1
    )
    s = keep[pair_seg]
    seg = (x1[s], y1[s], x2[s], y2[s], dx[s], dy[s], l2[s], np.sqrt(l2[s]))
    y = row.astype(np.float64)

    # outer (row 0) and inner (row 1) intervals; no inner one when the
    # radius is within the band
    eta = _BAND * (1.0 + radius + max(w, h, np.abs(xs).max(), np.abs(ys).max()))
    rho = np.array([[radius + eta], [radius - eta if radius > eta else np.nan]])
    span_lo, span_hi = _row_spans(seg, y, rho)
    first, end = x_lo[s], x_hi[s] + 1.0
    lo = np.clip(np.ceil(span_lo[0]), first, end)
    stop = np.clip(np.floor(span_hi[0]) + 1.0, lo, end)
    sure_lo = np.clip(np.ceil(span_lo[1]), lo, stop)
    sure_stop = np.clip(np.floor(span_hi[1]) + 1.0, sure_lo, stop)
    lo, stop, sure_lo, sure_stop = (
        a.astype(np.int64) for a in (lo, stop, sure_lo, sure_stop)
    )

    has_sure = sure_stop > sure_lo
    base = row[has_sure] * w
    sure_starts, sure_stops = base + sure_lo[has_sure], base + sure_stop[has_sure]
    if (sure_lo == lo).all() and (sure_stop == stop).all():
        return _merge_runs(sure_starts, sure_stops)  # no pixel between them

    # decide the pixels between the inner and outer intervals one by one
    px, pair = _expand(
        np.concatenate([lo, sure_stop]), np.concatenate([sure_lo, stop])
    )
    pair %= len(row)
    sx, sy, sdx, sdy, sl2 = (seg[k][pair] for k in (0, 1, 4, 5, 6))
    fx, fy = px.astype(np.float64), y[pair]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((fx - sx) * sdx + (fy - sy) * sdy) / sl2
    t = np.where(sl2 > 0.0, np.clip(t, 0.0, 1.0), 0.0)
    ex = sx + t * sdx - fx
    ey = sy + t * sdy - fy
    hit = ex * ex + ey * ey <= radius * radius
    hit_px = row[pair[hit]] * w + px[hit]
    return _merge_runs(
        np.concatenate([sure_starts, hit_px]), np.concatenate([sure_stops, hit_px + 1])
    )


def rasterize_polyline(xs, ys, radius, canvas):
    """Boolean mask of all pixels within `radius` of the polyline."""
    w, h = canvas
    mask = np.zeros((h, w), dtype=np.bool_)
    pixels, _ = _expand(*polyline_runs(xs, ys, radius, canvas))
    mask.reshape(-1)[pixels] = True
    return mask
