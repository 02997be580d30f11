"""Reference post-processing on lane objects, for tests.

This is the point blender as one LaneLine per passing cell: decode every
cell whose masked score passes the threshold (`decode_all`), group by
greedy distance NMS on `line_distance`, and blend each group point by
point. A decoded lane's points are plain `(x, y)` pairs; its proposing
cell is recorded once, in `LaneLine.source`. `point_blend.postprocess`
must return the same lanes through its lane table: each `(score,
points)` pair equals a LaneLine's score and points.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from lanenas.errors import DegenerateLineError
from lanenas.lane_model import AnchorLayout, GridCell, LaneProposalSet
from lanenas.point_blend import mask_proposals


@dataclass(frozen=True)
class LaneSource:
    """Provenance of a decoded lane: which cell proposed it."""

    level: int
    cell_index: int
    cell_center: tuple[float, float]


class LanePoint(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class LaneLine:
    points: tuple[LanePoint, ...]
    score: float                      # masked score of the proposing cell
    source: LaneSource

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if any(b.y <= a.y for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be sorted by y")

    def __iter__(self):  # a lane is its (x, y) points, like a polyline
        return iter(self.points)


def decode_cell(
    cell: GridCell,
    layout: AnchorLayout,
    level: int = 0,
    cell_index: int = 0,
    score: float | None = None,
) -> LaneLine:
    """Decode one cell into a lane polyline.

    A point is emitted at every anchor row at or below the ending row
    (the ending point is the lane's upper terminus); the lane records the
    proposing cell once, in `source`. `score` overrides the cell's raw
    score when the caller has already applied masking.
    """
    cx = cell.center[0]
    pts = [
        LanePoint(cx + dx, y)
        for y, dx in zip(layout.rows, cell.offsets, strict=True)
        if dx is not None and not y < cell.end_y
    ]
    if len(pts) < 2:
        raise DegenerateLineError(
            f"cell at {cell.center} decodes to {len(pts)} point(s)"
        )
    s = cell.score if score is None else score
    return LaneLine(tuple(pts), s, LaneSource(level, cell_index, cell.center))


def line_distance(a: LaneLine, b: LaneLine) -> float:
    """Mean |x_a(y) - x_b(y)| over shared anchor rows; +inf if disjoint.
    The gaps are added top to bottom, one at a time (from Python 3.12 on,
    `sum` of floats compensates rounding, so it is not used)."""
    xb = {y: x for x, y in b.points}
    gaps = [abs(x - xb[y]) for x, y in a.points if y in xb]
    if not gaps:
        return math.inf
    total = 0.0
    for gap in gaps:
        total += gap
    return total / len(gaps)


def decode_all(proposals: LaneProposalSet, score_threshold: float, scores=None):
    """One LaneLine per cell whose score passes the threshold and decodes
    to at least 2 points. `scores[h][i]`, when given, replaces the score
    of cell `i` of head `h` (the masked scores of `mask_proposals`), both
    for the threshold and on the lane."""
    lines = []
    for h, head in enumerate(proposals.heads):
        for idx, cell in enumerate(head.cells):
            s = cell.score if scores is None else scores[h][idx]
            if s < score_threshold:
                continue
            try:
                lines.append(decode_cell(cell, proposals.layout, head.level, idx, s))
            except DegenerateLineError:
                continue
    return lines


def group_lines(lines, group_distance):
    """Greedy NMS grouping: highest-score unassigned line seeds a group
    and absorbs every unassigned line closer than the threshold. The
    seed is each group's first element."""
    order = sorted(range(len(lines)), key=lambda i: (-lines[i].score, i))
    assigned = [False] * len(lines)
    groups = []
    for i in order:
        if assigned[i]:
            continue
        seed = lines[i]
        assigned[i] = True
        group = [seed]
        for j in order:
            if assigned[j]:
                continue
            if line_distance(seed, lines[j]) < group_distance:
                assigned[j] = True
                group.append(lines[j])
        groups.append(group)
    return groups


def blend_group(group, locality_sigma) -> LaneLine:
    """Blend one group into its representative (the seed, highest masked
    score), keeping its score and source. Each representative row keeps
    the member point whose lane has the best score x Gaussian weight of
    the row's distance from the lane's cell centre row (score alone at
    infinite sigma); ties go to the representative, then to the earlier
    member. Every output point comes verbatim from a group member."""
    rep = group[0]
    if len(group) == 1:
        return rep
    s2 = locality_sigma**2
    row = {y: i for i, (_, y) in enumerate(rep.points)}
    out = list(rep.points)
    best_w = [-math.inf] * len(row)
    for line in group:
        cy = line.source.cell_center[1]
        for p in line.points:
            i = row.get(p.y)
            if i is None:
                continue
            dy = p.y - cy
            w = line.score * math.exp(-(dy * dy) / s2)
            if w > best_w[i]:
                out[i], best_w[i] = p, w
    return LaneLine(tuple(out), rep.score, rep.source)


def postprocess(proposals, params):
    """mask -> decode/threshold -> group -> blend, one LaneLine per group."""
    scores = mask_proposals(proposals, params)
    lines = decode_all(proposals, params.score_threshold, scores)
    groups = group_lines(lines, params.group_distance)
    return [blend_group(g, params.locality_sigma) for g in groups]
