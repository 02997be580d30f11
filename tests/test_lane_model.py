"""The anchor layout and grid cells, and the object decoding of the test
oracle (`blend_oracle`) that `point_blend.postprocess` is checked against."""

import math

import numpy as np
import pytest

from lanenas.errors import DegenerateLineError
from lanenas.lane_model import AnchorLayout, HeadGrid, LaneProposalSet
from blend_oracle import (
    Cell,
    LaneLine,
    LanePoint,
    LaneSource,
    decode_all,
    decode_cell,
    head_grid,
    line_distance,
)

LAYOUT = AnchorLayout.uniform((512, 288))


def cell(cx=100.0, cy=200.0, score=0.8, offsets=None, end_y=0.0):
    if offsets is None:
        offsets = (0.0,) * len(LAYOUT.rows)
    return Cell(cx, cy, score, offsets, end_y)


def simple_line(xs_by_row, score=0.5, cy=0.0):
    pts = tuple(LanePoint(x, y) for y, x in sorted(xs_by_row.items()))
    return LaneLine(points=pts, score=score, source=LaneSource(1, 0, (0.0, cy)))


class TestDecodeCell:
    def test_zero_offsets_vertical_line(self):
        line = decode_cell(cell(cx=100.0, end_y=0.0), LAYOUT)
        assert len(line.points) == len(LAYOUT.rows)
        assert all(p.x == 100.0 for p in line.points)
        assert [p.y for p in line.points] == list(LAYOUT.rows)

    def test_slanted_line_recovers_slope(self):
        k = 0.5
        y_last = LAYOUT.rows[-1]
        offsets = tuple(k * (y_last - y) for y in LAYOUT.rows)
        line = decode_cell(cell(offsets=offsets), LAYOUT)
        p0, p1 = line.points[0], line.points[-1]
        slope = (p1.x - p0.x) / (p1.y - p0.y)
        assert slope == pytest.approx(-k)

    def test_end_y_excludes_rows_above(self):
        line = decode_cell(cell(end_y=100.0), LAYOUT)
        assert all(p.y >= 100.0 for p in line.points)
        assert len(line.points) == sum(1 for y in LAYOUT.rows if y >= 100.0)

    def test_end_y_below_last_row_degenerate(self):
        with pytest.raises(DegenerateLineError):
            decode_cell(cell(end_y=LAYOUT.rows[-1] + 1), LAYOUT)

    def test_none_offsets_skipped(self):
        offsets = [0.0] * len(LAYOUT.rows)
        offsets[0] = None
        offsets[5] = None
        line = decode_cell(cell(offsets=tuple(offsets)), LAYOUT)
        assert len(line.points) == len(LAYOUT.rows) - 2

    def test_shift_equivariance(self):
        offsets = tuple(float(i) for i in range(len(LAYOUT.rows)))
        a = decode_cell(cell(cx=100.0, offsets=offsets), LAYOUT)
        b = decode_cell(cell(cx=117.5, offsets=offsets), LAYOUT)
        for pa, pb in zip(a.points, b.points):
            assert pb.x - pa.x == pytest.approx(17.5)

    def test_source_records_cell(self):
        line = decode_cell(cell(cx=30.0, cy=40.0, score=0.7), LAYOUT, level=2, cell_index=9)
        assert line.source == LaneSource(level=2, cell_index=9, cell_center=(30.0, 40.0))
        assert line.score == 0.7
        assert LanePoint._fields == ("x", "y")
        assert all(type(p) is LanePoint and p == (p.x, p.y) for p in line.points)

    def test_score_override(self):
        line = decode_cell(cell(score=0.7), LAYOUT, score=0.25)
        assert line.score == 0.25


class TestLineDistance:
    def test_identical_zero(self):
        a = simple_line({0: 10.0, 4: 11.0, 8: 12.0})
        assert line_distance(a, a) == 0.0

    def test_constant_gap(self):
        rows = {y: 100.0 for y in LAYOUT.rows}
        a = simple_line(rows)
        b = simple_line({y: 140.0 for y in LAYOUT.rows})
        assert line_distance(a, b) == 40.0

    def test_partial_overlap_mean(self):
        a = simple_line({0: 0.0, 4: 0.0, 8: 0.0, 12: 0.0, 16: 0.0})
        b = simple_line({8: 10.0, 12: 20.0, 16: 30.0, 20: 5.0, 24: 5.0})
        # shared rows 8, 12, 16 with gaps 10, 20, 30
        assert line_distance(a, b) == pytest.approx(20.0)

    def test_disjoint_infinite(self):
        a = simple_line({0: 0.0, 4: 0.0})
        b = simple_line({8: 0.0, 12: 0.0})
        assert line_distance(a, b) == math.inf

    def test_symmetry(self):
        a = simple_line({0: 0.0, 4: 3.0, 8: 9.0})
        b = simple_line({4: 5.0, 8: 1.0, 12: 2.0})
        assert line_distance(a, b) == line_distance(b, a)


class TestDecodeAll:
    def proposals(self, scores):
        cells = tuple(cell(cx=50.0 * (i + 1), score=s) for i, s in enumerate(scores))
        head = head_grid(1, cells)
        return LaneProposalSet(layout=LAYOUT, heads=(head,))

    def test_threshold_one_empty(self):
        assert decode_all(self.proposals([0.9, 0.99]), 1.0) == []

    def test_threshold_zero_all(self):
        lines = decode_all(self.proposals([0.1, 0.5, 0.9]), 0.0)
        assert len(lines) == 3

    def test_mixed_grid(self):
        lines = decode_all(self.proposals([0.9, 0.2, 0.8, 0.1, 0.7]), 0.5)
        assert len(lines) == 3
        assert sorted(l.score for l in lines) == [0.7, 0.8, 0.9]

    def test_given_scores_threshold_and_label(self):
        proposals = self.proposals([0.9, 0.2, 0.8])
        lines = decode_all(proposals, 0.5, [[0.1, 0.6, 0.7]])
        assert [(l.source.cell_index, l.score) for l in lines] == [(1, 0.6), (2, 0.7)]

    def test_degenerate_cells_skipped(self):
        good = cell(score=0.9)
        bad = cell(cx=10.0, cy=10.0, score=0.9, end_y=LAYOUT.rows[-1] + 1)
        head = head_grid(1, (good, bad))
        lines = decode_all(LaneProposalSet(layout=LAYOUT, heads=(head,)), 0.5)
        assert len(lines) == 1


class TestLayoutValidation:
    def test_uniform_spacing(self):
        assert LAYOUT.rows[1] - LAYOUT.rows[0] == pytest.approx(4.0)
        assert len(LAYOUT.rows) == 72

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError):
            AnchorLayout((100, 100), (10.0, 5.0))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            AnchorLayout((100, 100), (10.0,))

    def test_points_sorted_enforced(self):
        src = LaneSource(1, 0, (0.0, 0.0))
        with pytest.raises(ValueError):
            LaneLine(points=(LanePoint(0, 10), LanePoint(0, 5)), score=0.5, source=src)


class TestHeadGrid:
    def cells(self):
        offsets = [0.5 * i for i in range(len(LAYOUT.rows))]
        offsets[3] = None
        return [cell(cx=10.0, offsets=tuple(offsets)), cell(cx=20.0, cy=8.0, score=0.25)]

    def test_cells_are_float64_columns(self):
        head = head_grid(2, self.cells())
        for name in HeadGrid.COLUMNS[:4]:
            assert getattr(head, name).dtype == np.float64 and getattr(head, name).shape == (2,)
        assert head.offsets.dtype == np.float64 and head.offsets.shape == (2, len(LAYOUT.rows))
        assert math.isnan(head.offsets[0, 3]) and head.offsets[0, 4] == 2.0
        assert head.cx.tolist() == [10.0, 20.0] and head.score.tolist() == [0.8, 0.25]

    def test_equal_by_value_with_nan_equal_to_nan(self):
        a, b = head_grid(2, self.cells()), head_grid(2, self.cells())
        assert a == b and not a != b
        assert a != head_grid(3, self.cells())
        assert (a == 5) is False and a != 5
        b.offsets[0, 3] = 0.0  # was NaN
        assert a != b
        with pytest.raises(TypeError):
            hash(a)

    def test_a_head_without_cells_has_an_empty_offset_matrix(self):
        head = head_grid(1, [])
        assert head.offsets.shape == (0, 0) and head == head_grid(1, [])

    @pytest.mark.parametrize("score", [-0.1, 1.5, math.nan])
    def test_score_outside_unit_rejected(self, score):
        with pytest.raises(ValueError, match="outside"):
            head_grid(1, [cell(score=score)])

    def test_cell_count_must_fill_the_grid(self):
        with pytest.raises(ValueError, match="grid_w"):
            head_grid(1, self.cells(), grid_w=3)

    @pytest.mark.parametrize("grid_w, grid_h", [(-2, -1), (-1, -2), (0, -1)])
    def test_grid_sides_must_be_non_negative(self, grid_w, grid_h):
        cells = self.cells() if grid_w * grid_h == 2 else []
        with pytest.raises(ValueError, match="non-negative"):
            head_grid(1, cells, grid_w=grid_w, grid_h=grid_h)

    def test_every_column_needs_every_cell(self):
        with pytest.raises(ValueError, match="every cell"):
            HeadGrid(1, 2, 1, cx=[1.0, 2.0], cy=[1.0, 2.0], score=[0.5, 0.5], end_y=[0.0],
                     offsets=[[0.0], [0.0]])
