"""Analytic FLOPS / parameter counting for a full candidate.

Convention: one multiply-accumulate = 2 FLOPS; batch-norm, activations
and elementwise adds are excluded (dominated terms, identical across
candidates). Spatial sizes use ceil division under stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .arch_space import NUM_BLOCKS_MAX, ArchEncoding, BackboneSpec, BlockKind
from .lane_model import ANCHOR_ROWS

BOTTLENECK_EXPANSION = 4
DEFAULT_RESOLUTION = (512, 288)

# prediction head output channels per grid cell: Z offsets + ending row
# + confidence + one padding channel
HEAD_EXTRA_CHANNELS = 3


@dataclass(frozen=True)
class CostReport:
    total_flops: int
    total_params: int
    per_component: tuple[tuple[str, int, int], ...]
    input_resolution: tuple[int, int]


def conv_cost(in_ch, out_ch, kernel, stride, out_w, out_h):
    """(flops, params) for one conv layer at the given output size.

    params include a bias per output channel; bias is excluded from the
    FLOPS term (2 * k^2 * in * out * out_w * out_h).
    """
    if min(in_ch, out_ch, kernel, stride, out_w, out_h) <= 0:
        raise ValueError("conv_cost arguments must be positive")
    weights = kernel * kernel * in_ch * out_ch
    params = weights + out_ch
    flops = 2 * weights * out_w * out_h
    return flops, params


def _ceil_div(a, b):
    return -(-a // b)


@lru_cache(maxsize=None)
def _block_cost(kind, in_ch, out_ch, stride, out_w, out_h):
    """One residual block: basic = two 3x3 convs; bottleneck = 1x1, 3x3,
    1x1 with expansion 4. A 1x1 projection shortcut is counted whenever
    stride or channel count changes.

    Returns the tuple (flops, params, block output channels). Each
    distinct block shape is priced once per process: the key space is
    bounded by the search space and the input resolution, not by the
    number of candidates priced."""
    flops = params = 0
    if kind is BlockKind.BASIC:
        for f, p in (
            conv_cost(in_ch, out_ch, 3, stride, out_w, out_h),
            conv_cost(out_ch, out_ch, 3, 1, out_w, out_h),
        ):
            flops += f
            params += p
        block_out = out_ch
    else:
        width = out_ch
        block_out = out_ch * BOTTLENECK_EXPANSION
        for f, p in (
            conv_cost(in_ch, width, 1, 1, out_w, out_h),
            conv_cost(width, width, 3, stride, out_w, out_h),
            conv_cost(width, block_out, 1, 1, out_w, out_h),
        ):
            flops += f
            params += p
    if stride != 1 or in_ch != block_out:
        f, p = conv_cost(in_ch, block_out, 1, stride, out_w, out_h)
        flops += f
        params += p
    return flops, params, block_out


# per_component label of block b is _BLOCK_LABELS[b]
_BLOCK_LABELS = ("",) + tuple(f"block{b}" for b in range(1, NUM_BLOCKS_MAX + 1))


def _backbone_components(spec: BackboneSpec, resolution):
    """Yield (label, flops, params) for stem and every block, plus the
    per-level output (channels, w, h) map for the fusion stage.

    Blocks are priced run by run. A run starts at block 1 or at a
    downsample / channel-doubling index and ends before the next one;
    every block after a run's first takes the same `_block_cost`
    arguments (stride 1, the run's channels and spatial size), so it is
    looked up once and repeated."""
    w, h = resolution
    comps = []

    # stem: two 3x3 stride-2 convs, 3 -> base -> base channels
    w1, h1 = _ceil_div(w, 2), _ceil_div(h, 2)
    w2, h2 = _ceil_div(w1, 2), _ceil_div(h1, 2)
    f1, p1 = conv_cost(3, spec.base_channels, 3, 2, w1, h1)
    f2, p2 = conv_cost(spec.base_channels, spec.base_channels, 3, 2, w2, h2)
    comps.append(("stem", f1 + f2, p1 + p2))

    kind = spec.block_kind
    down, dbl = spec.downsample_at, spec.double_channels_at
    cur_w, cur_h = w2, h2
    in_ch = ch = spec.base_channels
    level_shapes = {}
    level = 1
    starts = sorted(set(down + dbl))
    for start, end in zip([1] + starts, starts + [spec.num_blocks + 1]):
        stride = 1
        if start in down:
            stride = 2
            cur_w, cur_h = _ceil_div(cur_w, 2), _ceil_div(cur_h, 2)
            level += 1
        if start in dbl:
            ch *= 2
        flops, params, in_ch = _block_cost(kind, in_ch, ch, stride, cur_w, cur_h)
        comps.append((_BLOCK_LABELS[start], flops, params))
        if end - start > 1:
            flops, params, in_ch = _block_cost(kind, in_ch, ch, 1, cur_w, cur_h)
            comps.extend(zip(_BLOCK_LABELS[start + 1 : end], repeat(flops), repeat(params)))
        level_shapes[level] = (in_ch, cur_w, cur_h)
    return comps, level_shapes


def candidate_cost(arch: ArchEncoding, resolution=DEFAULT_RESOLUTION) -> CostReport:
    """Sum stem + blocks + fusion 1x1 convs + per-head prediction convs."""
    comps, level_shapes = _backbone_components(arch.backbone, resolution)

    c = arch.fusion.channels
    for i, layer in enumerate(arch.fusion.layers):
        _, out_w, out_h = level_shapes[layer.output_level]
        flops = params = 0
        for lvl in (layer.input_a, layer.input_b):
            in_ch, in_w, in_h = level_shapes[lvl]
            # downsampling happens via stride inside the 1x1 conv (cost at
            # the target size); upsampling is free nearest-neighbor (cost
            # at the input's own size)
            cw, ch_ = (out_w, out_h) if (in_w * in_h > out_w * out_h) else (in_w, in_h)
            f, p = conv_cost(in_ch, c, 1, 1, cw, ch_)
            flops += f
            params += p
        f, p = conv_cost(2 * c, c, 1, 1, out_w, out_h)
        flops += f
        params += p
        comps.append((f"fusion{i + 1}", flops, params))

    head_out = ANCHOR_ROWS + HEAD_EXTRA_CHANNELS
    for lvl in sorted(arch.fusion.heads_at):
        _, gw, gh = level_shapes[lvl]
        f, p = conv_cost(c, head_out, 1, 1, gw, gh)
        comps.append((f"head_level{lvl}", f, p))

    _, flops_col, params_col = zip(*comps)
    return CostReport(
        total_flops=sum(flops_col),
        total_params=sum(params_col),
        per_component=tuple(comps),
        input_resolution=tuple(resolution),
    )


def gflops(report: CostReport) -> float:
    return report.total_flops / 1e9
