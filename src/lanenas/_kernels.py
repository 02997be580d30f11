"""Lane rasterization as pixel runs.

A pixel belongs to a lane drawn with radius `radius` when its center
lies within `radius` of some polyline segment (clamped-projection
distance, so caps and joins are round). The kernel returns that pixel
set as *runs*: two int64 arrays `(starts, stops)` of half-open ranges
`[start, stop)` of row-major flat pixel indices `y * w + x`, sorted,
disjoint and never touching. Counting, unions and IoU work on runs
directly, so no canvas-sized array is allocated to score a lane.

The kernel prices a lane row by row. A lane's points come top to
bottom: y never decreases, as on CULane and CurveLanes, where a lane
holds one x per image row, and `polyline_runs` refuses any other order.
So a lane meets each pixel row in one interval: its points within `rho`
rows of the row are one connected stretch of it, each contributes a
chord of its disc, and the chords move continuously along the stretch,
so their union is connected. The kernel finds the row's chord of each
segment's capsule in closed form and keeps, per row, the least start
and the greatest end.

Only segments that can reach a row are priced on it. The point of the
lane nearest a pixel is inside a segment, where the offset to the pixel
is normal to the segment, or at a vertex, where it lies between the two
segments' normals; either way it is at most `rho * |dx| / length` rows
from the pixel, for the segment (of the two at a vertex, the one with
the larger `|dx| / length`) that holds it. So a segment is priced on the
rows within `reach = rho * |dx| / length + 1` of its y-range, the 1
absorbing rounding. The first and last vertex are the lane's ends,
where the offset may point anywhere in the cap, so the first and last
segment are priced on their whole window.

Each row is priced twice, for `radius - eta` and `radius + eta`, where
`eta` is far above the floating-point error of both the closed form and
the pixel test. Pixels inside the inner interval are hits and pixels
outside the outer one are misses under any rounding. The pixels between
the two (usually none, and then the kernel stops at the inner intervals;
a whole row only where the row runs along the boundary, as beside a
horizontal segment) are decided by the per-pixel predicate

    t = clip(((px - x1) * dx + (py - y1) * dy) / l2, 0, 1)    (0 if l2 == 0)
    (x1 + t * dx - px) ** 2 + (y1 + t * dy - py) ** 2 <= radius ** 2

against every segment whose clamped window holds the pixel, reach or
not, written as the same float64 expression in the same order as the
per-segment reference in `tests/test_kernels.py`. The result is
therefore bit-identical to painting each segment's window with that
predicate and OR-ing the masks.
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the end discs, NaN off the disc
        h1 = np.sqrt(rho * rho - ry * ry)
        h2 = np.sqrt(rho * rho - (y - y2) ** 2)
        # the part between them: 0 <= t <= 1 and |signed distance| <= rho,
        # each linear in u = x - x1. A zero coefficient makes a bound
        # +-inf, or NaN when the bound is 0 too; NaN drops the part, which
        # only happens on a row through an end, which its disc covers, or
        # on a row at exactly distance rho. A subnormal coefficient or a
        # huge rho overflows a bound to the same +-inf, the limit the
        # zero case takes; the band test of `polyline_runs` still decides
        # the pixels near the boundary one by one.
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
    """IoU of two run sets from integer pixel counts; 0.0 when either is
    empty. Both are sorted, so `searchsorted` on the stops of `a` finds,
    for each start and stop `x` of `b`, the runs of `a` ending at or
    before `x`; with the part of the next run before `x` they count the
    pixels of `a` before `x`, and these counts at the ends of each run
    of `b` differ by the pixels the two runs share."""
    (a_starts, a_stops), (b_starts, b_stops) = a, b
    if len(a_starts) == 0 or len(b_starts) == 0:
        return 0.0
    size = a_stops - a_starts
    done = np.cumsum(size)
    edges = np.array(b)
    k = np.minimum(np.searchsorted(a_stops, edges, "right"), len(size) - 1)
    before = done[k] - size[k] + np.minimum(np.maximum(edges - a_starts[k], 0), size[k])
    inter = int((before[1] - before[0]).sum())
    return inter / (int(done[-1]) + run_area(b) - inter)


def _envelope(lo, hi):
    """`lo` widened to its suffix minimum and `hi` to its prefix maximum.
    Where the ranges [lo[j], hi[j]] move up with `j`, the positions
    whose widened range holds `k` run from searchsorted(hi, k) to
    searchsorted(lo, k, "right")."""
    return np.minimum.accumulate(lo[::-1])[::-1], np.maximum.accumulate(hi)


def polyline_runs(xs, ys, radius, canvas):
    """Runs of all canvas pixels within `radius` of the polyline, whose
    points come top to bottom (a ValueError otherwise)."""
    w, h = canvas
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    if len(xs) < 2:
        return tuple(np.zeros((2, 0), dtype=np.int64))
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("lane coordinates must be finite")
    radius = float(radius)
    if not 0.0 <= radius < np.inf:
        raise ValueError("radius must be finite and not negative")
    x1, y1, x2, y2 = xs[:-1], ys[:-1], xs[1:], ys[1:]
    dx, dy = x2 - x1, y2 - y1
    if (dy < 0.0).any():
        raise ValueError("lane points must come top to bottom")
    l2 = dx * dx + dy * dy
    length = np.sqrt(l2)
    n = len(dx)
    # the rows of the clamped window each segment may paint
    y_lo = np.maximum(np.floor(y1 - radius), 0.0)
    y_hi = np.minimum(np.ceil(y2 + radius), h - 1.0)
    eta = _BAND * (1.0 + radius + max(w, h, np.abs(xs).max(), np.abs(ys).max()))

    # the rows each segment is priced on: those within `reach` of its
    # y-range, its whole window for the first and last segment
    reach = (radius + eta) * np.divide(
        np.abs(dx), length, out=np.zeros(n), where=length > 0.0
    ) + 1.0
    reach[0] = reach[-1] = np.inf
    a = np.minimum(np.maximum(y_lo, np.ceil(y1 - reach)), h)
    b = np.maximum(np.minimum(y_hi, np.floor(y2 + reach)), -1.0)
    a, b = _envelope(a.astype(np.int64), b.astype(np.int64))
    # (segment, row) pairs in row-major order
    row = np.arange(a[0], b[-1] + 1)
    lo_pos, hi_pos = np.searchsorted(b, row), np.searchsorted(a, row, "right")
    count = hi_pos - lo_pos
    priced = count > 0
    if not priced.all():
        row, lo_pos, count = row[priced], lo_pos[priced], count[priced]
    if len(row) == 0:
        return tuple(np.zeros((2, 0), dtype=np.int64))
    first = np.cumsum(count) - count
    s = np.arange(first[-1] + count[-1]) + np.repeat(lo_pos - first, count)
    seg = (x1[s], y1[s], x2[s], y2[s], dx[s], dy[s], l2[s], length[s])

    # one outer (row 0) and one inner (row 1) interval per pixel row; no
    # inner one when the radius is within the band
    rho = np.array([[radius + eta], [radius - eta if radius > eta else np.nan]])
    span_lo, span_hi = _row_spans(seg, np.repeat(row.astype(np.float64), count), rho)
    first = np.concatenate((first, first + len(s)))
    span_lo = np.ceil(np.minimum.reduceat(span_lo.ravel(), first)).reshape(2, -1)
    span_hi = np.floor(np.maximum.reduceat(span_hi.ravel(), first)).reshape(2, -1) + 1.0
    lo = np.minimum(np.maximum(span_lo[0], 0.0), w)
    stop = np.minimum(np.maximum(span_hi[0], lo), w)
    sure_lo = np.minimum(np.maximum(span_lo[1], lo), stop)
    sure_stop = np.minimum(np.maximum(span_hi[1], sure_lo), stop)
    lo, stop, sure_lo, sure_stop = (
        v.astype(np.int64) for v in (lo, stop, sure_lo, sure_stop)
    )

    has_sure = sure_stop > sure_lo
    base = row * w
    sure_starts, sure_stops = (base + sure_lo)[has_sure], (base + sure_stop)[has_sure]
    if (sure_lo == lo).all() and (sure_stop == stop).all():
        return _merge_runs(sure_starts, sure_stops)  # no pixel between them

    # decide the pixels between the inner and outer intervals one by one,
    # against every segment whose window holds the pixel
    px, band_row = _expand(
        np.concatenate([lo, sure_stop]), np.concatenate([sure_lo, stop])
    )
    py = row[band_row % len(row)]
    s, pixel = _expand(
        np.searchsorted(np.maximum(y_hi, -1.0).astype(np.int64), py),
        np.searchsorted(np.minimum(y_lo, h).astype(np.int64), py, "right"),
    )
    px, py = px[pixel], py[pixel]
    fx, fy = px.astype(np.float64), py.astype(np.float64)
    sx, sy, sdx, sdy, sl2 = x1[s], y1[s], dx[s], dy[s], l2[s]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((fx - sx) * sdx + (fy - sy) * sdy) / sl2
    t = np.where(sl2 > 0.0, np.clip(t, 0.0, 1.0), 0.0)
    ex = sx + t * sdx - fx
    ey = sy + t * sdy - fy
    x_lo = np.maximum(np.floor(np.minimum(x1, x2) - radius), 0.0)[s]
    x_hi = np.minimum(np.ceil(np.maximum(x1, x2) + radius), w - 1.0)[s]
    in_window = (x_lo <= fx) & (fx <= x_hi) & (y_lo[s] <= fy) & (fy <= y_hi[s])
    hit = in_window & (ex * ex + ey * ey <= radius * radius)
    hit_px = py[hit] * w + px[hit]
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
