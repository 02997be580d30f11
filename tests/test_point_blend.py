import math
import warnings

import numpy as np
import pytest

from lanenas import point_blend
from lanenas.errors import SchemaError
from lanenas.lane_model import AnchorLayout, HeadGrid, LaneProposalSet
from lanenas.point_blend import (
    BlendParams,
    BlendParamSet,
    BlendParamSpace,
    LaneTable,
    apply_mask,
    mask_logit,
    mask_proposals,
    perturb,
    plain_nms_params,
    postprocess,
)
import blend_oracle
from blend_oracle import (
    Cell,
    LaneLine,
    LanePoint,
    LaneSource,
    blend_group,
    decode_cell,
    group_lines,
    head_cells,
    head_grid,
    line_distance,
)

LAYOUT = AnchorLayout.uniform((512, 288), 72)


def reference_blend(group, locality_sigma):
    """Per-row blend: every group member's point on the row, in group
    order, weighed by its lane's score and locality; the representative's
    point is kept unless another weighs strictly more."""
    def weight(line, y):
        if math.isinf(locality_sigma):
            return line.score
        dy = y - line.source.cell_center[1]
        return line.score * math.exp(-(dy * dy) / locality_sigma**2)

    rep = group[0]
    out = []
    for rp in rep.points:
        best, best_w = rp, weight(rep, rp.y)
        for line in group:
            for p in line.points:
                if p.y == rp.y and weight(line, p.y) > best_w:
                    best, best_w = p, weight(line, p.y)
        out.append(best)
    return out


def vertical_line(x, score, cy=200.0):
    pts = tuple(LanePoint(x, y) for y in LAYOUT.rows)
    return LaneLine(points=pts, score=score, source=LaneSource(1, 0, (x, cy)))


class TestMaskLogit:
    def test_constants_only(self):
        p = BlendParams(alpha1=0.0, beta1=0.7, alpha2=0.0)
        for center in [(0, 0), (100, 50), (511, 287)]:
            assert mask_logit(p, center) == 0.7

    def test_vertical_term(self):
        p = BlendParams(alpha1=0.01, beta1=-1.0, alpha2=0.0)
        assert mask_logit(p, (250.0, 100.0)) == pytest.approx(0.0)

    def test_radial_term(self):
        p = BlendParams(alpha2=-0.02, center=(256.0, 144.0))
        assert mask_logit(p, (256.0, 44.0)) == pytest.approx(-2.0)

    def test_independent_reimplementation(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a1, b1, a2 = rng.normal(size=3) * 0.1
            ux, uy, cx, cy = rng.uniform(0, 2000, size=4)
            expected = a1 * cy + b1 + a2 * ((cx - ux) ** 2 + (cy - uy) ** 2) ** 0.5
            got = mask_logit(BlendParams(a1, b1, a2, (ux, uy)), (cx, cy))
            assert abs(got - expected) < 1e-12

    def test_no_radial_distance_at_alpha2_zero(self):
        """The identity mask takes no distance, so a centre whose squared
        distance overflows a float still gives logit 0."""
        for alpha2 in (0.0, -0.0):
            assert mask_logit(BlendParams(alpha2=alpha2), (1e200, 0.0)) == 0.0
        assert mask_logit(BlendParams(alpha1=0.5, beta1=1.0), (1e200, 4.0)) == 3.0
        with pytest.raises(OverflowError):
            mask_logit(BlendParams(alpha2=1e-300), (1e200, 0.0))


class TestApplyMask:
    def test_zero_logit_identity(self):
        for s in [0.1, 0.5, 0.93]:
            assert apply_mask(s, 0.0) == pytest.approx(s, abs=1e-9)

    def test_hand_value(self):
        # logit(0.5)=0, sigmoid(-2) = 0.11920...
        assert apply_mask(0.5, -2.0) == pytest.approx(0.11920292, abs=1e-7)

    def test_monotone_in_logit(self):
        masked = [apply_mask(0.4, L) for L in np.linspace(-5, 5, 50)]
        assert all(b >= a for a, b in zip(masked, masked[1:]))

    def test_clamps_extreme_scores(self):
        assert 0.0 < apply_mask(0.0, 0.0) < 1e-5
        assert 1.0 - 1e-5 < apply_mask(1.0, 0.0) < 1.0

    def test_saturates_at_extreme_logits(self):
        # exp(1e300) overflows; the sigmoid's limit is exact there
        assert apply_mask(0.5, -1e300) == 0.0
        assert apply_mask(0.5, -710.0) == 0.0
        assert apply_mask(0.5, 1e300) == 1.0


class TestMaskProposals:
    def test_masked_score_of_every_cell_and_input_untouched(self):
        rng = np.random.default_rng(5)
        heads = tuple(
            head_grid(
                lvl,
                (
                    Cell(float(rng.uniform(0, 512)), float(rng.uniform(0, 288)),
                         float(rng.uniform()), (0.0,) * len(LAYOUT.rows))
                    for _ in range(6)
                ),
                grid_w=3, grid_h=2,
            )
            for lvl in (1, 2, 3)
        )
        columns = [{name: getattr(h, name).copy() for name in HeadGrid.COLUMNS} for h in heads]
        proposals = LaneProposalSet(layout=LAYOUT, heads=heads)
        # level 3 has no entry and is masked with the identity
        params = BlendParamSet(per_level={
            1: BlendParams(0.01, -0.5, 0.002, (256.0, 144.0)),
            2: BlendParams(beta1=1.0),
        })
        # every cell decodes, so every cell is a table entry, heads in order
        scores = mask_proposals(LaneTable(proposals), params)
        assert scores == [
            apply_mask(c.score,
                       mask_logit(params.per_level.get(h.level, BlendParams()), (c.cx, c.cy)))
            for h in heads for c in head_cells(h)
        ]
        assert proposals.heads is heads
        assert all(
            np.array_equal(getattr(h, name), c[name])
            for h, c in zip(heads, columns) for name in HeadGrid.COLUMNS
        )

    def test_postprocess_builds_no_proposal_objects(self, monkeypatch):
        proposals = LaneProposalSet(layout=LAYOUT, heads=(head_grid(
            1, (Cell(cx, 200.0, 0.6, (0.0,) * len(LAYOUT.rows)) for cx in (100.0, 110.0))
        ),))

        def built(self):
            raise AssertionError(f"postprocess built a {type(self).__name__}")

        for cls in (HeadGrid, LaneProposalSet):
            monkeypatch.setattr(cls, "__post_init__", built)
        params = BlendParamSet(per_level={1: BlendParams(beta1=0.5)}, locality_sigma=60.0)
        assert len(postprocess(LaneTable(proposals), params)) == 1

    # finite coefficients whose radial term overflows a float's range
    OVERFLOWING = BlendParams(alpha2=1.0, center=(1e200, 0.0))

    def test_overflow_on_a_cell_with_no_lane_is_no_error(self):
        full = (0.0,) * len(LAYOUT.rows)
        one_point = (0.0,) + (None,) * (len(LAYOUT.rows) - 1)
        proposals = LaneProposalSet(layout=LAYOUT, heads=(
            head_grid(1, (Cell(100.0, 200.0, 0.9, full),)),
            head_grid(2, (Cell(300.0, 200.0, 0.9, one_point), Cell(400.0, 200.0, 0.9, full, 1e9))),
        ))
        params = BlendParamSet(per_level={2: self.OVERFLOWING}, score_threshold=0.0)
        with pytest.raises(OverflowError):  # the level's only cells would overflow
            mask_logit(self.OVERFLOWING, (300.0, 200.0))
        table = LaneTable(proposals)
        assert table.level == [1]
        assert mask_proposals(table, params) == [0.9]
        ((score, points),) = postprocess(table, params)
        assert score == 0.9 and points[:, 0].tolist() == [100.0] * len(LAYOUT.rows)
        assert_same_lanes(postprocess(table, params), blend_oracle.postprocess(proposals, params))

    @pytest.mark.parametrize("level", [
        OVERFLOWING, BlendParams(alpha1=1e308, alpha2=-1e308),
    ], ids=["radial-overflow", "inf-minus-inf"])
    def test_overflow_on_a_decodable_cell_names_its_level(self, level):
        full = (0.0,) * len(LAYOUT.rows)
        proposals = LaneProposalSet(layout=LAYOUT, heads=(
            head_grid(1, (Cell(100.0, 200.0, 0.9, full),)),
            head_grid(2, (Cell(300.0, 200.0, 0.9, full),)),
        ))
        params = BlendParamSet(per_level={2: level}, score_threshold=0.0)
        for run in (mask_proposals, postprocess):
            with pytest.raises(SchemaError, match="mask logit overflows") as exc:
                run(LaneTable(proposals), params)
            assert exc.value.path == "blend.per_level.2"
        with pytest.raises(SchemaError, match=r"blend\.per_level\.2: mask logit overflows"):
            blend_oracle.postprocess(proposals, params)

    def test_identity_mask_on_a_far_centre_keeps_the_score(self):
        full = (0.0,) * len(LAYOUT.rows)
        proposals = LaneProposalSet(layout=LAYOUT, heads=(
            head_grid(1, (Cell(1e200, 200.0, 0.9, full), Cell(100.0, 200.0, 0.6, full))),
        ))
        params = BlendParamSet(per_level={}, score_threshold=0.0)
        table = LaneTable(proposals)
        assert mask_proposals(table, params) == [0.9, 0.6]
        lanes = postprocess(table, params)
        assert [(s, p[0, 0]) for s, p in lanes] == [(0.9, 1e200), (0.6, 100.0)]
        assert_same_lanes(lanes, blend_oracle.postprocess(proposals, params))


class TestDecodeOverflow:
    """A decoded x is the cell's centre plus its offset, which can
    overflow for finite inputs near a float's maximum."""

    N = len(LAYOUT.rows)

    def table(self, *cells):
        full = (0.0,) * self.N
        return LaneTable(LaneProposalSet(layout=LAYOUT, heads=(
            head_grid(1, (Cell(100.0, 200.0, 0.9, full),)),
            head_grid(2, (Cell(300.0, 200.0, 0.9, full),) + cells),
        )))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "-inf"])
    def test_on_a_decodable_cell_names_the_cell_and_warns_nothing(self, sign):
        big = sign * 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError) as exc:
                self.table(Cell(1.0, 200.0, 0.9, (0.0,) * (self.N - 1) + (big,)),
                           Cell(big, 200.0, 0.9, (big,) * self.N))
        assert exc.value.path == "heads[1].cells[2]"
        assert str(exc.value) == "heads[1].cells[2]: decoded x overflows"

    def test_where_no_point_is_kept_is_no_error(self):
        """An overflow on a cell that decodes to one point, or on a row
        above a cell's ending row, makes no point of any lane."""
        one_point = (1.7e308,) + (None,) * (self.N - 1)
        above_end = (1.7e308,) + (0.0,) * (self.N - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = self.table(Cell(1.7e308, 200.0, 0.9, one_point),
                               Cell(1.7e308, 200.0, 0.9, above_end, end_y=LAYOUT.rows[1]))
        assert table.level == [1, 2, 2]
        assert np.isnan(table.xs[2, 0]) and np.isfinite(table.xs[2, 1:]).all()


class TestGroupLines:
    def test_identical_lines_one_group(self):
        a = vertical_line(100.0, 0.9)
        b = vertical_line(100.0, 0.5)
        groups = group_lines([a, b], 30.0)
        assert len(groups) == 1
        assert groups[0][0] is a  # highest score seeds

    def test_far_apart_two_groups(self):
        groups = group_lines([vertical_line(0.0, 0.9), vertical_line(100.0, 0.8)], 30.0)
        assert len(groups) == 2

    def test_greedy_hand_trace(self):
        a = vertical_line(0.0, 0.9)
        b = vertical_line(20.0, 0.5)
        c = vertical_line(40.0, 0.8)
        groups = group_lines([a, b, c], 30.0)
        assert [len(g) for g in groups] == [2, 1]
        assert groups[0] == [a, b]
        assert groups[1] == [c]

    def test_groups_partition_input(self):
        lines = [vertical_line(10.0 * i, 0.5 + 0.01 * i) for i in range(20)]
        groups = group_lines(lines, 25.0)
        flat = [l for g in groups for l in g]
        assert sorted(id(l) for l in flat) == sorted(id(l) for l in lines)

    def test_seeds_mutually_distant(self):
        lines = [vertical_line(7.0 * i, 0.9 - 0.02 * i) for i in range(30)]
        groups = group_lines(lines, 40.0)
        seeds = [g[0] for g in groups]
        for i, a in enumerate(seeds):
            for b in seeds[i + 1 :]:
                assert line_distance(a, b) >= 40.0


class TestBlendGroup:
    def test_singleton_unchanged(self):
        a = vertical_line(50.0, 0.7)
        assert blend_group([a], 60.0) is a

    def test_local_points_win_remote_rows(self):
        # representative centered at the bottom, helper centered at the top
        rep = vertical_line(100.0, 0.9, cy=280.0)
        helper = vertical_line(110.0, 0.5, cy=0.0)
        out = blend_group([rep, helper], 60.0)
        # at y=0: rep weight 0.9*exp(-(280/60)^2) ~ 0; helper wins
        assert out.points[0].x == 110.0
        # at y=284: rep weight ~0.9 dominates
        assert out.points[-1].x == 100.0
        assert (out.score, out.source) == (rep.score, rep.source)

    @pytest.mark.parametrize("sigma", [60.0, math.inf])
    def test_ties_go_to_representative_then_group_order(self, sigma):
        rep = vertical_line(0.0, 0.5, cy=100.0)
        twin = vertical_line(3.0, 0.5, cy=100.0)
        first = vertical_line(5.0, 0.8, cy=100.0)
        second = vertical_line(9.0, 0.8, cy=100.0)
        assert blend_group([rep, twin], sigma).points == rep.points
        out = blend_group([rep, twin, first, second], sigma)
        assert all(p.x == 5.0 for p in out.points)

    @pytest.mark.parametrize("sigma", [5.0, 40.0, 300.0, math.inf])
    def test_matches_per_row_reference(self, sigma):
        rng = np.random.default_rng(11)
        for _ in range(50):
            group = []
            for k in range(int(rng.integers(2, 6))):
                # coarse scores and centers make ties; partial rows make
                # rows the representative lacks or shares with few members
                rows = [y for y in LAYOUT.rows if rng.uniform() < 0.7]
                group.append(LaneLine(
                    points=tuple(LanePoint(float(10 * k + rng.integers(0, 8)), y) for y in rows),
                    score=float(rng.integers(1, 4)) / 4,
                    source=LaneSource(1, k, (0.0, float(rng.integers(0, 3)) * 100.0)),
                ))
            out = blend_group(group, sigma)
            assert list(out.points) == reference_blend(group, sigma)
            assert (out.score, out.source) == (group[0].score, group[0].source)

    def test_infinite_sigma_pure_score(self):
        rep = vertical_line(100.0, 0.9, cy=280.0)
        helper = vertical_line(110.0, 0.5, cy=0.0)
        out = blend_group([rep, helper], math.inf)
        assert out == rep

    def test_hand_computed_weights(self):
        rep = vertical_line(0.0, 0.8, cy=100.0)
        helper = vertical_line(5.0, 0.6, cy=20.0)
        sigma = 50.0
        out = blend_group([rep, helper], sigma)
        for p in out.points:
            w_rep = 0.8 * math.exp(-((p.y - 100.0) ** 2) / sigma**2)
            w_help = 0.6 * math.exp(-((p.y - 20.0) ** 2) / sigma**2)
            assert p.x == (5.0 if w_help > w_rep else 0.0)

    def test_never_invents_coordinates(self):
        rng = np.random.default_rng(3)
        lines = []
        for k in range(4):
            score = float(rng.uniform(0.3, 1.0))
            src = LaneSource(1, k, (0.0, float(rng.uniform(0, 288))))
            pts = tuple(
                LanePoint(float(rng.uniform(0, 512)), y) for y in LAYOUT.rows
            )
            lines.append(LaneLine(points=pts, score=score, source=src))
        lines.sort(key=lambda l: -l.score)
        out = blend_group(lines, 40.0)
        allowed = {(p.x, p.y) for l in lines for p in l.points}
        assert all((p.x, p.y) in allowed for p in out.points)


class TestPostprocess:
    def single_cell_proposals(self, score=0.9):
        cell = Cell(100.0, 200.0, score, tuple(0.5 * i for i in range(len(LAYOUT.rows))))
        head = head_grid(1, (cell,))
        return LaneProposalSet(layout=LAYOUT, heads=(head,)), cell

    def test_single_perfect_cell_passthrough(self):
        proposals, cell = self.single_cell_proposals()
        params = BlendParamSet.identity([1], score_threshold=0.3)
        ((score, points),) = postprocess(LaneTable(proposals), params)
        expected = decode_cell(cell, LAYOUT, level=1)
        assert points.tolist() == [[p.x, p.y] for p in expected.points]
        assert score == pytest.approx(cell.score, abs=1e-9)

    def test_empty_input_empty_output(self):
        proposals = LaneProposalSet(layout=LAYOUT, heads=())
        assert postprocess(LaneTable(proposals), BlendParamSet.identity([1])) == []

    def test_threshold_filters_everything(self):
        proposals, _ = self.single_cell_proposals(score=0.2)
        params = BlendParamSet.identity([1], score_threshold=0.5)
        assert postprocess(LaneTable(proposals), params) == []

    def test_mask_changes_threshold_outcome(self):
        proposals, _ = self.single_cell_proposals(score=0.4)
        suppress = BlendParamSet(
            per_level={1: BlendParams(beta1=-3.0)}, score_threshold=0.3
        )
        boost = BlendParamSet(
            per_level={1: BlendParams(beta1=+3.0)}, score_threshold=0.3
        )
        assert postprocess(LaneTable(proposals), suppress) == []
        assert len(postprocess(LaneTable(proposals), boost)) == 1


def odd_proposals(rng):
    """Proposals of shapes the synthetic scenes never have: None offsets,
    end_y cuts, degenerate cells, members with different row sets, equal
    scores and centre rows, -0.0 coordinates (a row at -0.0 too) and
    integer coordinates, as a proposals file may hold them."""
    rows = (-0.0,) + tuple(4.0 * i for i in range(1, int(rng.integers(3, 12))))
    layout = AnchorLayout((64, 48), rows)
    heads = []
    for level in rng.choice([1, 1, 2, 3], size=int(rng.integers(0, 4))).tolist():
        cells = []
        for _ in range(int(rng.integers(0, 7))):
            offsets = [
                None if rng.uniform() < 0.25 else float(rng.choice([-0.0, 0.0, 1.5, -3.0, 7.25]))
                for _ in rows
            ]
            cx = float(rng.choice([-0.0, 0.0, 10.0, 20.0, 30.0]))
            if rng.uniform() < 0.2:
                cx = int(cx)
                offsets = [None if dx is None else int(dx) for dx in offsets]
            cells.append(Cell(
                cx, float(rng.choice([-0.0, 8.0, 40.0])),
                float(rng.choice([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])),
                tuple(offsets),
                float(rng.choice([-0.0, 0.0, rows[len(rows) // 2], rows[-1], rows[-1] + 1.0])),
            ))
        heads.append(head_grid(level, cells))
    return LaneProposalSet(layout=layout, heads=tuple(heads))


def odd_params(rng):
    """Identity, boosting and saturating masks (a masked score of 0.0),
    thresholds down to 0.0, and finite or infinite locality."""
    per_level = {}
    for level in (1, 2, 3):
        kind = rng.integers(4)
        if kind == 1:
            per_level[level] = BlendParams(beta1=float(rng.choice([-1.0, 1.0])))
        elif kind == 2:
            per_level[level] = BlendParams(beta1=-1e300)  # masks every score to 0.0
        elif kind == 3:
            per_level[level] = BlendParams(0.01, -0.5, -0.002, (32.0, -0.0))
    return BlendParamSet(
        per_level=per_level,
        score_threshold=float(rng.choice([0.0, 0.25, 0.5])),
        group_distance=float(rng.choice([1.0, 5.0, 40.0])),
        locality_sigma=float(rng.choice([0.5, 5.0, 40.0, math.inf])),
    )


def points_bytes(lanes):
    """Each lane's (n, 2) float64 points as bytes, so -0.0 differs from 0.0."""
    return [np.array([tuple(p) for p in lane], dtype=np.float64).tobytes() for lane in lanes]


def assert_same_lanes(got, want):
    """`postprocess` pairs against oracle LaneLines: equal scores (`repr`
    too, so -0.0 counts) and equal points, as (n, 2) float64 arrays."""
    scores, points = [s for s, _ in got], [p for _, p in got]
    assert scores == [l.score for l in want]
    assert repr(scores) == repr([l.score for l in want])
    assert all(p.dtype == np.float64 and p.shape == (len(l.points), 2)
               for p, l in zip(points, want))
    assert points_bytes(points) == points_bytes(want)


class TestLaneTable:
    def test_postprocess_equals_object_pipeline(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            proposals = odd_proposals(rng)
            table = LaneTable(proposals)  # kept across parameter sets
            for _ in range(4):
                params = odd_params(rng)
                want = blend_oracle.postprocess(proposals, params)
                assert_same_lanes(postprocess(LaneTable(proposals), params), want)
                assert_same_lanes(postprocess(table, params), want)

    def test_line_distance_is_the_left_to_right_mean(self):
        rng = np.random.default_rng(7)
        rows = tuple(float(y) for y in range(72))
        for _ in range(2000):
            xa, xb = rng.uniform(-1e3, 1e3, size=(2, 72)) * 10.0 ** rng.integers(-3, 4, size=(2, 72))
            xa[rng.uniform(size=72) < 0.3] = np.nan
            xb[rng.uniform(size=72) < 0.3] = np.nan
            gaps = [abs(a - b) for a, b in zip(xa.tolist(), xb.tolist())
                    if not (math.isnan(a) or math.isnan(b))]
            total = 0.0
            for gap in gaps:  # left to right; `sum` compensates from Python 3.12
                total += gap
            want = total / len(gaps) if gaps else math.inf
            assert point_blend.line_distance(xa, xb) == want
            lines = [
                LaneLine(tuple(LanePoint(x, y) for x, y in zip(xs.tolist(), rows) if not math.isnan(x)),
                         0.5, LaneSource(1, 0, (0.0, 0.0)))
                for xs in (xa, xb)
            ]
            if all(len(l.points) for l in lines):
                assert line_distance(*lines) == want

    @pytest.mark.parametrize("xa, xb", [
        ([-1e308, 0.0, 5.0], [1e308, 0.0, 1e308]),  # a gap beyond the float range
        ([1e308, 1e308, math.nan], [-1e307, -1e307, 0.0]),  # gaps whose sum is beyond it
    ])
    def test_line_distance_beyond_the_float_range_is_inf_without_warning(self, xa, xb):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = point_blend.line_distance(np.array(xa), np.array(xb))
        assert (got, caught) == (math.inf, [])

    def test_locality_factors_are_math_exp(self):
        rng = np.random.default_rng(8)
        cells = tuple(
            Cell(100.0, float(rng.uniform(0, 288)), 0.5, (0.0,) * len(LAYOUT.rows))
            for _ in range(40)
        )
        table = LaneTable(LaneProposalSet(LAYOUT, (head_grid(1, cells),)))
        for sigma in rng.uniform(5.0, 500.0, size=20).tolist() + [math.inf]:
            want = [
                [math.exp(-((y - c.cy) * (y - c.cy)) / sigma**2) for y in LAYOUT.rows]
                for c in cells
            ]
            assert table.factors(sigma).tolist() == want
            assert len(table._factors) <= 2  # only the latest sigmas are kept

    def test_kept_table_is_not_rebuilt(self, monkeypatch):
        proposals = odd_proposals(np.random.default_rng(4))
        table = LaneTable(proposals)
        assert len(table.score) >= 2
        monkeypatch.setattr(point_blend, "LaneTable", None)  # building one fails
        for sigma in (5.0, 40.0, 5.0, math.inf):
            params = BlendParamSet.identity([1, 2, 3], score_threshold=0.0, locality_sigma=sigma)
            want = blend_oracle.postprocess(proposals, params)
            assert want
            assert_same_lanes(postprocess(table, params), want)


class TestPerturb:
    def test_stays_in_bounds(self):
        rng = np.random.default_rng(9)
        space = BlendParamSpace()
        params = BlendParamSet.identity([1, 2])
        for _ in range(2000):
            params = perturb(params, space, rng)
            assert space.score_threshold.lo <= params.score_threshold <= space.score_threshold.hi
            assert space.group_distance.lo <= params.group_distance <= space.group_distance.hi
            assert space.locality_sigma.lo <= params.locality_sigma <= space.locality_sigma.hi
            for p in params.per_level.values():
                assert space.alpha1.lo <= p.alpha1 <= space.alpha1.hi
                assert space.beta1.lo <= p.beta1 <= space.beta1.hi

    def test_deterministic(self):
        space = BlendParamSpace()
        params = BlendParamSet.identity([1])
        a = perturb(params, space, np.random.default_rng(4))
        b = perturb(params, space, np.random.default_rng(4))
        assert a == b

    def test_changes_exactly_one_parameter(self):
        rng = np.random.default_rng(17)
        space = BlendParamSpace()
        base = BlendParamSet.identity([1, 2])

        def flatten(ps):
            vals = [ps.score_threshold, ps.group_distance, ps.locality_sigma]
            for lvl in sorted(ps.per_level):
                p = ps.per_level[lvl]
                vals += [p.alpha1, p.beta1, p.alpha2, p.center[0], p.center[1]]
            return vals

        for _ in range(200):
            mutated = perturb(base, space, rng)
            diffs = sum(
                1 for a, b in zip(flatten(base), flatten(mutated)) if a != b
            )
            assert diffs <= 1


class TestPlainNmsParams:
    def test_identity_mask_and_infinite_sigma(self):
        params = BlendParamSet(
            per_level={1: BlendParams(0.01, -1.0, 0.005, (10, 10))},
            score_threshold=0.4,
            group_distance=55.0,
            locality_sigma=60.0,
        )
        plain = plain_nms_params(params)
        assert math.isinf(plain.locality_sigma)
        assert plain.score_threshold == 0.4
        assert plain.group_distance == 55.0
        assert all(
            p == BlendParams() for p in plain.per_level.values()
        )
