"""Grid/anchor lane parameterization.

Each prediction head covers the image with a grid; a grid cell proposes
at most one lane as horizontal offsets from its center column at fixed
vertical anchor rows, plus an upper ending row and a confidence score.
`point_blend.LaneTable` decodes the cells; a post-processed lane is its
score and an (n, 2) array of `(x, y)` points, like ground-truth lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class LaneProposalSet:
    layout: AnchorLayout
    heads: tuple[HeadGrid, ...]

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(self.heads))

