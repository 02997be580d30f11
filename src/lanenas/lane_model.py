"""Grid/anchor lane parameterization and decoding.

Each prediction head covers the image with a grid; a grid cell proposes
at most one lane as horizontal offsets from its center column at fixed
vertical anchor rows, plus an upper ending row and a confidence score.
A decoded lane's points are plain `(x, y)` pairs, like ground-truth
lanes; its proposing cell is recorded once, in `LaneLine.source`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateLineError

ANCHOR_ROWS = 72  # anchor rows per lane, as proposed and as priced per head


@dataclass(frozen=True)
class AnchorLayout:
    image_size: tuple[int, int]  # (width, height) px
    rows: tuple[float, ...]      # anchor row y coordinates, top to bottom

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(float(y) for y in self.rows))
        if len(self.rows) < 2:
            raise ValueError("need at least 2 anchor rows")
        if any(b <= a for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError("anchor rows must be strictly increasing")
        if self.rows[0] < 0 or self.rows[-1] >= self.image_size[1]:
            raise ValueError("anchor rows must lie within [0, height)")

    @classmethod
    def uniform(cls, image_size, num_rows=ANCHOR_ROWS):
        """Evenly spaced rows over the image height (default one per 4 px
        on a 288-px-high input)."""
        w, h = image_size
        step = h / num_rows
        return cls((w, h), tuple(i * step for i in range(num_rows)))


@dataclass(frozen=True)
class GridCell:
    center: tuple[float, float]       # (c_x, c_y) image px
    score: float
    offsets: tuple                    # length Z; None entries mean no offset
    end_y: float                      # predicted upper ending row

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class HeadGrid:
    level: int
    grid_w: int
    grid_h: int
    cells: tuple[GridCell, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if len(self.cells) != self.grid_w * self.grid_h:
            raise ValueError("cells length must equal grid_w * grid_h")


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


@dataclass(frozen=True)
class LaneProposalSet:
    layout: AnchorLayout
    heads: tuple[HeadGrid, ...]

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(self.heads))


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
