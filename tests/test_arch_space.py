import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanenas.arch_space import (
    BackboneSpec,
    BlockKind,
    FusionLayer,
    FusionSpec,
    SpaceConfig,
    mutate_backbone,
    mutate_fusion,
    parse_backbone,
    random_backbone,
    serialize_backbone,
    space_cardinality,
)
from lanenas.errors import SchemaError

from block_oracle import enumerate_backbones, neighbor_specs, stage_layout


def backbone_strategy():
    def build(draw):
        kind = draw(st.sampled_from(list(BlockKind)))
        base = draw(st.sampled_from([48, 64, 80, 96, 128]))
        n = draw(st.integers(10, 45))
        s = draw(st.sampled_from([2, 3]))
        idx = st.lists(
            st.integers(2, n), min_size=s, max_size=s, unique=True
        ).map(lambda v: tuple(sorted(v)))
        return BackboneSpec(kind, base, n, draw(idx), draw(idx))

    return st.composite(build)()


class TestParse:
    def test_paper_example(self):
        spec = parse_backbone("BB_64_13_[5,9]_[7,12]")
        assert spec.block_kind is BlockKind.BOTTLENECK
        assert spec.base_channels == 64
        assert spec.num_blocks == 13
        assert spec.downsample_at == (5, 9)
        assert spec.double_channels_at == (7, 12)

    def test_spaces_inside_brackets_accepted(self):
        spec = parse_backbone("BB_64_13_[5, 9]_[7, 12]")
        assert serialize_backbone(spec) == "BB_64_13_[5,9]_[7,12]"

    def test_minimal_valid(self):
        spec = parse_backbone("RB_48_10_[2,3]_[2,3]")
        assert spec.block_kind is BlockKind.BASIC
        assert spec.num_blocks == 10

    def test_bad_base_channels(self):
        with pytest.raises(SchemaError) as exc:
            parse_backbone("BB_50_13_[5,9]_[7,12]")
        assert exc.value.path == "base_channels"

    @pytest.mark.parametrize(
        "text",
        [
            "BB_64_13_[5,9]",
            "XX_64_13_[5,9]_[7,12]",
            "BB_64_13_[5,a]_[7,12]",
            "BB_64_13_[]_[7,12]",
            "garbage",
            # digits are ASCII: int() reads "٩" as 9 and rejects "²" and "--5"
            "BB_64_13_[5,٩]_[7,12]",
            "BB_64_13_[5,²]_[7,12]",
            "BB_64_13_[--5,9]_[7,12]",
            "BB_6٤_13_[5,9]_[7,12]",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(SchemaError) as exc:
            parse_backbone(text)
        assert exc.value.path == ""  # a syntax error names no field

    @pytest.mark.parametrize(
        "text,field",
        [
            ("BB_64_9_[5,8]_[5,8]", "num_blocks"),
            ("BB_64_13_[9,5]_[7,12]", "downsample_at"),
            ("BB_64_13_[1,9]_[7,12]", "downsample_at"),
            ("BB_64_13_[5,14]_[7,12]", "downsample_at"),
            ("BB_64_13_[5,9]_[7,12,13]", "double_channels_at"),
            ("BB_64_13_[5,9]_[7,7]", "double_channels_at"),
        ],
    )
    def test_constraint_errors(self, text, field):
        with pytest.raises(SchemaError) as exc:
            parse_backbone(text)
        assert exc.value.path == field


class TestSerialize:
    def test_paper_example(self):
        spec = BackboneSpec(BlockKind.BOTTLENECK, 64, 13, (5, 9), (7, 12))
        assert serialize_backbone(spec) == "BB_64_13_[5,9]_[7,12]"

    def test_large_spec(self):
        spec = BackboneSpec(BlockKind.BASIC, 128, 45, (10, 20, 30), (15, 25, 35))
        assert serialize_backbone(spec) == "RB_128_45_[10,20,30]_[15,25,35]"

    @settings(max_examples=300)
    @given(backbone_strategy())
    def test_round_trip(self, spec):
        assert parse_backbone(serialize_backbone(spec)) == spec

    @settings(max_examples=100)
    @given(backbone_strategy())
    def test_canonical_idempotent(self, spec):
        s = serialize_backbone(spec)
        assert serialize_backbone(parse_backbone(s)) == s


class TestStageLayout:
    """The layout walk of the tests' per-block cost oracle."""

    def test_hand_trace(self):
        spec = parse_backbone("BB_64_13_[5,9]_[7,12]")
        layout = stage_layout(spec)
        by_block = {i.block_index: i for i in layout}
        assert (by_block[1].downsample_factor, by_block[1].channels) == (4, 64)
        assert (by_block[6].downsample_factor, by_block[6].channels) == (8, 64)
        assert (by_block[8].downsample_factor, by_block[8].channels) == (8, 128)
        assert (by_block[13].downsample_factor, by_block[13].channels) == (16, 256)

    def test_three_resolutions_with_early_downsamples(self):
        spec = parse_backbone("RB_48_10_[2,3]_[2,3]")
        factors = {i.downsample_factor for i in stage_layout(spec)}
        assert factors == {4, 8, 16}

    @settings(max_examples=100)
    @given(backbone_strategy())
    def test_last_block_channels(self, spec):
        last = stage_layout(spec)[-1]
        assert last.channels == spec.base_channels * 2 ** len(spec.double_channels_at)

    @settings(max_examples=100)
    @given(backbone_strategy())
    def test_monotone(self, spec):
        layout = stage_layout(spec)
        for a, b in zip(layout, layout[1:]):
            assert b.downsample_factor >= a.downsample_factor
            assert b.channels >= a.channels

    @settings(max_examples=50)
    @given(backbone_strategy())
    def test_stage_count(self, spec):
        factors = {i.downsample_factor for i in stage_layout(spec)}
        assert len(factors) == len(spec.downsample_at) + 1


class TestMutateBackbone:
    def test_neighbor_move_example(self):
        spec = parse_backbone("BB_64_13_[5,9]_[7,12]")
        seen = set()
        for seed in range(200):
            m = mutate_backbone(
                spec, np.random.default_rng(seed), p_extended=0.0
            )
            seen.add(m.downsample_at + m.double_channels_at)
        # first downsample index can move to 4 or 6
        assert any(m[:2] in {(4, 9), (6, 9)} for m in seen)

    def test_closure_fuzz(self):
        rng = np.random.default_rng(7)
        spec = random_backbone(rng)
        for _ in range(3000):
            spec = mutate_backbone(spec, rng)  # constructor re-validates

    def test_deterministic(self):
        spec = parse_backbone("BB_64_13_[5,9]_[7,12]")
        a = [mutate_backbone(spec, np.random.default_rng(3)) for _ in range(5)]
        b = [mutate_backbone(spec, np.random.default_rng(3)) for _ in range(5)]
        assert a == b

    def test_differs_from_input(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            spec = random_backbone(rng)
            assert mutate_backbone(spec, rng) != spec

    def test_reachability_reduced_space(self):
        # every (num_blocks=10, 3-stage) layout is reachable from every
        # other via single-index neighbor moves
        cfg = SpaceConfig(
            block_kinds=(BlockKind.BASIC,),
            base_channels=(64,),
            num_blocks_range=(10, 10),
            stage_list_lens=(2,),
        )
        all_specs = set(enumerate_backbones(cfg))
        assert len(all_specs) == 1296
        start = next(iter(all_specs))
        frontier, visited = [start], {start}
        while frontier:
            cur = frontier.pop()
            for nxt in neighbor_specs(cur):
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.append(nxt)
        assert visited == all_specs


class TestMutateFusion:
    def test_one_field_resample(self, rng):
        spec = FusionSpec(layers=(FusionLayer(1, 3, 2),), heads_at=frozenset({2}))
        changed = 0
        for seed in range(100):
            m = mutate_fusion(spec, 4, np.random.default_rng(seed))
            m.validate_against(4)
            if m != spec:
                changed += 1
        assert changed > 50

    def test_heads_never_empty(self, rng):
        spec = FusionSpec(layers=(FusionLayer(1, 2, 1),), heads_at=frozenset({1}))
        for _ in range(2000):
            spec = mutate_fusion(spec, 3, rng)
            assert spec.heads_at

    def test_levels_bounded(self, rng):
        spec = FusionSpec(
            layers=(FusionLayer(1, 2, 3), FusionLayer(3, 3, 1)),
            heads_at=frozenset({1, 3}),
        )
        for _ in range(2000):
            spec = mutate_fusion(spec, 3, rng)
            for layer in spec.layers:
                assert max(layer.input_a, layer.input_b, layer.output_level) <= 3
            assert max(spec.heads_at) <= 3


class TestCardinality:
    def test_reduced_closed_form(self):
        cfg = SpaceConfig(
            block_kinds=(BlockKind.BASIC,),
            base_channels=(64,),
            num_blocks_range=(10, 10),
            stage_list_lens=(2,),
        )
        report = space_cardinality(cfg)
        assert report.backbone_count == 36**2 == 1296

    def test_reduced_matches_enumeration(self):
        cfg = SpaceConfig(
            block_kinds=(BlockKind.BASIC, BlockKind.BOTTLENECK),
            base_channels=(48,),
            num_blocks_range=(10, 12),
            stage_list_lens=(2, 3),
        )
        assert space_cardinality(cfg).backbone_count == sum(
            1 for _ in enumerate_backbones(cfg)
        )

    def test_fusion_count(self):
        assert space_cardinality(SpaceConfig(fusion_t=4, fusion_layers=2)).fusion_count == 61440

    def test_assumptions_reported(self):
        report = space_cardinality()
        assert report.assumptions
        assert any("head" in a for a in report.assumptions)
