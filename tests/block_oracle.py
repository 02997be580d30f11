"""Per-block reference walk of a backbone, and whole-space walks, for
the tests.

`stage_layout` re-derives each block's downsample factor and channel
count from the index lists with no running state, and `oracle_components`
prices a candidate block by block from it with plain conv arithmetic.
The cost model prices blocks run by run; these are its oracles.
`enumerate_backbones` lists every backbone of a (reduced) space, and
`neighbor_specs` the backbones one index move away.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from lanenas.arch_space import BackboneSpec, BlockKind, SpaceConfig, _list_move_candidates

# two 3x3 stride-2 convs before block 1
STEM_FACTOR = 4


@dataclass(frozen=True)
class StageInfo:
    """Per-block resolution/channel summary."""

    block_index: int
    downsample_factor: int
    channels: int
    is_downsample: bool
    doubles_channels: bool


def stage_layout(spec) -> list[StageInfo]:
    """Per-block downsample factor and channel count.

    Block b sits at factor STEM_FACTOR * 2^(downsamples at or before b)
    and carries base_channels * 2^(doublings at or before b) channels.
    """
    out = []
    for b in range(1, spec.num_blocks + 1):
        n_down = sum(1 for d in spec.downsample_at if d <= b)
        n_dbl = sum(1 for c in spec.double_channels_at if c <= b)
        out.append(
            StageInfo(
                block_index=b,
                downsample_factor=STEM_FACTOR * 2**n_down,
                channels=spec.base_channels * 2**n_dbl,
                is_downsample=b in spec.downsample_at,
                doubles_channels=b in spec.double_channels_at,
            )
        )
    return out


def _conv(cin, cout, k, w, h):
    weights = k * k * cin * cout
    return 2 * weights * w * h, weights + cout


def _half(n):
    return -(-n // 2)


def oracle_components(arch, resolution, anchor_rows=72):
    """`CostReport.per_component` recomputed for every block on its own:
    a list of (label, flops, params) for the stem, each block, each
    fusion layer and each head."""
    bb = arch.backbone
    w, h = resolution
    w1, h1 = _half(w), _half(h)
    w2, h2 = _half(w1), _half(h1)
    f1, p1 = _conv(3, bb.base_channels, 3, w1, h1)
    f2, p2 = _conv(bb.base_channels, bb.base_channels, 3, w2, h2)
    comps = [("stem", f1 + f2, p1 + p2)]

    cur_w, cur_h = w2, h2
    in_ch = bb.base_channels
    shapes = {}
    for info in stage_layout(bb):
        if info.is_downsample:
            cur_w, cur_h = _half(cur_w), _half(cur_h)
        width = info.channels
        if bb.block_kind is BlockKind.BASIC:
            out_ch = width
            convs = [(in_ch, width, 3), (width, width, 3)]
        else:
            out_ch = 4 * width
            convs = [(in_ch, width, 1), (width, width, 3), (width, out_ch, 1)]
        if info.is_downsample or in_ch != out_ch:
            convs.append((in_ch, out_ch, 1))
        costs = [_conv(cin, cout, k, cur_w, cur_h) for cin, cout, k in convs]
        comps.append((
            f"block{info.block_index}",
            sum(f for f, _ in costs),
            sum(p for _, p in costs),
        ))
        in_ch = out_ch
        level = (info.downsample_factor // STEM_FACTOR).bit_length()
        shapes[level] = (out_ch, cur_w, cur_h)

    c = arch.fusion.channels
    for i, layer in enumerate(arch.fusion.layers):
        _, ow, oh = shapes[layer.output_level]
        costs = []
        for lvl in (layer.input_a, layer.input_b):
            cin, iw, ih = shapes[lvl]
            tw, th = (ow, oh) if iw * ih > ow * oh else (iw, ih)
            costs.append(_conv(cin, c, 1, tw, th))
        costs.append(_conv(2 * c, c, 1, ow, oh))
        comps.append((
            f"fusion{i + 1}", sum(f for f, _ in costs), sum(p for _, p in costs)
        ))

    for lvl in sorted(arch.fusion.heads_at):
        _, gw, gh = shapes[lvl]
        f, p = _conv(c, anchor_rows + 3, 1, gw, gh)
        comps.append((f"head_level{lvl}", f, p))
    return comps


def _index_lists(n, length):
    """All strictly increasing tuples of the given length within [2, n]."""
    return list(itertools.combinations(range(2, n + 1), length))


def enumerate_backbones(cfg: SpaceConfig):
    """Yield every valid BackboneSpec in the configured space."""
    lo, hi = cfg.num_blocks_range
    for kind in cfg.block_kinds:
        for base in cfg.base_channels:
            for n in range(lo, hi + 1):
                for s in cfg.stage_list_lens:
                    idx_lists = _index_lists(n, s)
                    for down in idx_lists:
                        for dbl in idx_lists:
                            yield BackboneSpec(kind, base, n, down, dbl)


def neighbor_specs(spec: BackboneSpec) -> list[BackboneSpec]:
    """Specs reachable by one index neighbor move (same blocks/stages/kind)."""
    out = []
    for fld, pos, delta in _list_move_candidates(spec):
        idxs = list(getattr(spec, fld))
        idxs[pos] += delta
        out.append(BackboneSpec(**{**vars(spec), fld: tuple(idxs)}))
    return out
