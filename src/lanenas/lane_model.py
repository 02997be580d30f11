"""Grid/anchor lane parameterization.

Each prediction head covers the image with a grid; a grid cell proposes
at most one lane as horizontal offsets from its center column at fixed
vertical anchor rows, plus an upper ending row and a confidence score.
A head holds its cells as columns: one float64 array per cell field and
a (cells, anchor rows) offset matrix, 8 bytes per offset, so a held
proposal set costs its raw floats. `point_blend.LaneTable` decodes the
cells; a post-processed lane is its score and an (n, 2) array of
`(x, y)` points, like ground-truth lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    def uniform(cls, image_size):
        """`ANCHOR_ROWS` evenly spaced rows over the image height (one per
        4 px on a 288-px-high input)."""
        w, h = image_size
        step = h / ANCHOR_ROWS
        return cls((w, h), tuple(i * step for i in range(ANCHOR_ROWS)))


@dataclass(frozen=True, eq=False)
class HeadGrid:
    """One head's grid cells as columns, cell `i` at index `i`: its
    center `(cx[i], cy[i])`, its confidence `score[i]`, its predicted
    upper ending row `end_y[i]`, and its offsets `offsets[i]`, one per
    anchor row, NaN where the cell has none. Heads compare by value,
    NaN equal to NaN."""

    COLUMNS = ("cx", "cy", "score", "end_y", "offsets")  # as named in a proposals file's cells

    level: int
    grid_w: int
    grid_h: int
    cx: np.ndarray
    cy: np.ndarray
    score: np.ndarray
    end_y: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        for name in self.COLUMNS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.score)
        if self.grid_w < 0 or self.grid_h < 0:
            raise ValueError("grid sides must be non-negative")
        if not self.offsets.size:  # `[]`, say: no offset to place in a row
            object.__setattr__(self, "offsets", self.offsets.reshape(n, 0))
        if n != self.grid_w * self.grid_h:
            raise ValueError("cells length must equal grid_w * grid_h")
        if any(getattr(self, name).shape != (n,) for name in self.COLUMNS[:4]) \
                or self.offsets.ndim != 2 or len(self.offsets) != n:
            raise ValueError("every cell needs a center, score, end_y and row of offsets")
        in_unit = (0.0 <= self.score) & (self.score <= 1.0)  # False at NaN
        if not in_unit.all():
            raise ValueError(f"score {self.score[~in_unit][0]} outside [0, 1]")

    def __eq__(self, other):
        if type(other) is not HeadGrid:
            return NotImplemented
        return (self.level, self.grid_w, self.grid_h) == (other.level, other.grid_w, other.grid_h) \
            and all(np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True)
                    for c in self.COLUMNS)

    __hash__ = None


@dataclass(frozen=True)
class LaneProposalSet:
    layout: AnchorLayout
    heads: tuple[HeadGrid, ...]

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(self.heads))

