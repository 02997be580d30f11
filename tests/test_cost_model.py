import math
from dataclasses import replace

import numpy as np
import pytest

from lanenas.arch_space import (
    ArchEncoding,
    BlockKind,
    parse_backbone,
    random_backbone,
    random_fusion,
)
from lanenas import cost_model
from lanenas.cost_model import candidate_cost, conv_cost
from lanenas.search_engine import SearchConfig, mutate_arch
from block_oracle import oracle_components
from conftest import make_arch


def oracle_cost(arch, resolution, anchor_rows=72):
    """Independent per-layer walk: re-derives block strides/channels and
    spatial sizes from scratch and sums plain conv arithmetic."""

    def conv(cin, cout, k, w, h):
        weights = k * k * cin * cout
        return 2 * weights * w * h, weights + cout

    def cdiv(a, b):
        return math.ceil(a / b)

    bb = arch.backbone
    w, h = resolution
    flops = params = 0

    # stem
    w1, h1 = cdiv(w, 2), cdiv(h, 2)
    w2, h2 = cdiv(w1, 2), cdiv(h1, 2)
    for f, p in (conv(3, bb.base_channels, 3, w1, h1),
                 conv(bb.base_channels, bb.base_channels, 3, w2, h2)):
        flops += f
        params += p

    cur_w, cur_h = w2, h2
    in_ch = bb.base_channels
    shapes = {}
    level = 1
    for b in range(1, bb.num_blocks + 1):
        stride = 2 if b in bb.downsample_at else 1
        if stride == 2:
            cur_w, cur_h = cdiv(cur_w, 2), cdiv(cur_h, 2)
            level += 1
        width = bb.base_channels * 2 ** sum(1 for c in bb.double_channels_at if c <= b)
        if bb.block_kind is BlockKind.BASIC:
            out_ch = width
            convs = [(in_ch, width, 3), (width, width, 3)]
        else:
            out_ch = 4 * width
            convs = [(in_ch, width, 1), (width, width, 3), (width, out_ch, 1)]
        for cin, cout, k in convs:
            f, p = conv(cin, cout, k, cur_w, cur_h)
            flops += f
            params += p
        if stride == 2 or in_ch != out_ch:
            f, p = conv(in_ch, out_ch, 1, cur_w, cur_h)
            flops += f
            params += p
        in_ch = out_ch
        shapes[level] = (out_ch, cur_w, cur_h)

    c = arch.fusion.channels
    for layer in arch.fusion.layers:
        _, ow, oh = shapes[layer.output_level]
        for lvl in (layer.input_a, layer.input_b):
            cin, iw, ih = shapes[lvl]
            tw, th = (ow, oh) if iw * ih > ow * oh else (iw, ih)
            f, p = conv(cin, c, 1, tw, th)
            flops += f
            params += p
        f, p = conv(2 * c, c, 1, ow, oh)
        flops += f
        params += p

    for lvl in arch.fusion.heads_at:
        _, gw, gh = shapes[lvl]
        f, p = conv(c, anchor_rows + 3, 1, gw, gh)
        flops += f
        params += p
    return flops, params


class TestConvCost:
    def test_hand_arithmetic(self):
        flops, params = conv_cost(64, 64, 3, 1, 8, 8)
        assert flops == 2 * (9 * 64 * 64) * 64 == 4_718_592
        assert params == 9 * 64 * 64 + 64

    def test_unit_case(self):
        flops, params = conv_cost(1, 1, 1, 1, 1, 1)
        assert flops == 2
        assert params == 1 + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            conv_cost(0, 1, 1, 1, 1, 1)


class TestCandidateCost:
    def test_oracle_equivalence_100_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            bb = random_backbone(rng)
            fusion = random_fusion(rng, bb.num_stages)
            arch = make_arch()
            arch = replace(arch, backbone=bb, fusion=fusion)
            report = candidate_cost(arch, (512, 288))
            assert (report.total_flops, report.total_params) == oracle_cost(
                arch, (512, 288)
            )

    def test_totals_equal_component_sums(self, arch):
        report = candidate_cost(arch)
        assert report.total_flops == sum(f for _, f, _ in report.per_component)
        assert report.total_params == sum(p for _, _, p in report.per_component)

    def test_doubling_base_channels_roughly_quadruples(self):
        a = make_arch("RB_64_20_[8,14]_[10,16]")
        b = make_arch("RB_128_20_[8,14]_[10,16]")
        fa = candidate_cost(a).total_flops
        fb = candidate_cost(b).total_flops
        assert abs(fb / fa - 4.0) < 0.2

    def test_earlier_downsample_never_costlier(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bb = random_backbone(rng)
            # move the first movable downsample index one block earlier
            idxs = list(bb.downsample_at)
            for i, d in enumerate(idxs):
                earlier = d - 1
                if earlier >= 2 and earlier not in idxs:
                    idxs[i] = earlier
                    break
            else:
                continue
            moved = replace(bb, downsample_at=tuple(sorted(idxs)))
            base = make_arch()
            a = candidate_cost(replace(base, backbone=bb)).total_flops
            b = candidate_cost(replace(base, backbone=moved)).total_flops
            assert b <= a

    def test_area_scale_law(self, arch):
        small = candidate_cost(arch, (256, 144))
        large = candidate_cost(arch, (512, 288))
        for (name_s, f_s, _), (name_l, f_l, _) in zip(
            small.per_component, large.per_component
        ):
            assert name_s == name_l
            assert f_l == 4 * f_s

    def test_adding_head_adds_cost(self, arch):
        more = replace(
            arch, fusion=replace(arch.fusion, heads_at=frozenset({1, 2, 3}))
        )
        assert candidate_cost(more).total_flops > candidate_cost(arch).total_flops

    def test_adding_block_adds_cost(self):
        a = make_arch("BB_64_13_[5,9]_[7,12]")
        b = make_arch("BB_64_14_[5,9]_[7,12]")
        assert candidate_cost(b).total_flops > candidate_cost(a).total_flops


def assert_matches_block_oracle(arch, resolution):
    report = candidate_cost(arch, resolution)
    comps = oracle_components(arch, resolution)
    assert list(report.per_component) == comps
    assert report.total_flops == sum(f for _, f, _ in comps)
    assert report.total_params == sum(p for _, _, p in comps)
    assert report.input_resolution == resolution


ORACLE_RESOLUTIONS = [(512, 288), (1640, 590), (33, 17)]


class TestPerBlockOracle:
    """The cost model prices a run of identical blocks once; every block
    must still get the cost a block-by-block walk gives it."""

    @pytest.mark.parametrize("encoding", [
        # adjacent downsamples with unchanged channels: same (in, out,
        # stride) at half the spatial size
        "BB_64_12_[5,6]_[8,9]",
        "RB_48_10_[2,3]_[2,3]",
        "BB_96_20_[4,5,6]_[10,11,12]",
        "RB_64_14_[5,6,7]_[10,11,12]",
        "BB_64_13_[5,9]_[7,12]",
        "BB_128_45_[43,44,45]_[2,3,4]",
    ])
    @pytest.mark.parametrize("resolution", ORACLE_RESOLUTIONS + [(1, 1)], ids=str)
    def test_hand_cases(self, encoding, resolution):
        backbone = parse_backbone(encoding)
        rng = np.random.default_rng(0)
        arch = ArchEncoding(backbone, random_fusion(rng, backbone.num_stages))
        assert_matches_block_oracle(arch, resolution)

    def test_random_genomes_and_children(self):
        for arch in random_genomes_and_children():
            for resolution in ORACLE_RESOLUTIONS:
                assert_matches_block_oracle(arch, resolution)

    def test_block_price_memo_matches_unmemoized(self, monkeypatch):
        """Every block shape the cost model prices gets the value a fresh
        computation gives, as a tuple of ints no caller can change."""
        memo = cost_model._block_cost
        keys = set()

        def checked(*args):
            got = memo(*args)
            assert got == memo.__wrapped__(*args)
            assert type(got) is tuple and all(type(v) is int for v in got)
            keys.add(args)
            return got

        monkeypatch.setattr(cost_model, "_block_cost", checked)
        for arch in random_genomes_and_children():
            for resolution in ORACLE_RESOLUTIONS:
                candidate_cost(arch, resolution)
        assert len(keys) > 100

    def test_shape_price_memos_match_unmemoized(self, monkeypatch):
        """Every stem, fusion layer and head shape the cost model prices
        gets the value a fresh computation gives, as a tuple of ints no
        caller can change."""
        keys = {name: set() for name in ("_stem_cost", "_fusion_cost", "_head_cost")}

        def checked(name, memo):
            def price(*args):
                got = memo(*args)
                assert got == memo.__wrapped__(*args)
                assert type(got) is tuple and all(type(v) is int for v in got)
                keys[name].add(args)
                return got
            return price

        for name in keys:
            monkeypatch.setattr(cost_model, name, checked(name, getattr(cost_model, name)))
        for arch in random_genomes_and_children():
            for resolution in ORACLE_RESOLUTIONS:
                candidate_cost(arch, resolution)
        # every base channel count, and every level's grid, at each resolution
        assert (len(keys["_stem_cost"]), len(keys["_head_cost"])) == (5 * 3, 4 * 3)
        assert len(keys["_fusion_cost"]) > 1000


def random_genomes_and_children():
    """2,000 seeded random genomes, each followed by one `mutate_arch`
    child."""
    rng = np.random.default_rng(909)
    cfg = SearchConfig()
    for _ in range(2000):
        bb = random_backbone(rng)
        parent = ArchEncoding(bb, random_fusion(rng, bb.num_stages))
        yield parent
        yield mutate_arch(parent, rng, cfg)
