"""Analytic FLOPS / parameter counting for a full candidate.

Convention: one multiply-accumulate = 2 FLOPS; batch-norm, activations
and elementwise adds are excluded (dominated terms, identical across
candidates). Spatial sizes use ceil division under stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arch_space import NUM_BLOCKS_MAX, ArchEncoding, BlockKind
from .lane_model import ANCHOR_ROWS

BOTTLENECK_EXPANSION = 4
DEFAULT_RESOLUTION = (512, 288)

# prediction head output channels per grid cell: Z offsets + ending row
# + confidence + one padding channel
HEAD_EXTRA_CHANNELS = 3


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


@lru_cache(maxsize=None)
def _stem_cost(base_ch, w, h):
    """The stem, two 3x3 stride-2 convs (3 -> base -> base channels), at
    input size (w, h): (flops, params, output w, output h). Keyed on the
    base channels and the resolution, like every memo here bounded by
    the search space and the resolution, never by the genomes priced."""
    w1, h1 = _ceil_div(w, 2), _ceil_div(h, 2)
    w2, h2 = _ceil_div(w1, 2), _ceil_div(h1, 2)
    f1, p1 = conv_cost(3, base_ch, 3, 2, w1, h1)
    f2, p2 = conv_cost(base_ch, base_ch, 3, 2, w2, h2)
    return f1 + f2, p1 + p2, w2, h2


@lru_cache(maxsize=None)
def _fusion_cost(out_shape, a_shape, b_shape, channels):
    """One fusion layer, from the (channels, w, h) outputs of its two
    input levels to its output level's size: a 1x1 conv of each input to
    `channels`, then a 1x1 conv of their concatenation. Returns (flops,
    params)."""
    _, out_w, out_h = out_shape
    flops = params = 0
    for in_ch, in_w, in_h in (a_shape, b_shape):
        # downsampling happens via stride inside the 1x1 conv (cost at the
        # target size); upsampling is free nearest-neighbor (cost at the
        # input's own size)
        cw, ch = (out_w, out_h) if in_w * in_h > out_w * out_h else (in_w, in_h)
        f, p = conv_cost(in_ch, channels, 1, 1, cw, ch)
        flops += f
        params += p
    f, p = conv_cost(2 * channels, channels, 1, 1, out_w, out_h)
    return flops + f, params + p


@lru_cache(maxsize=None)
def _head_cost(channels, grid_w, grid_h):
    """One prediction head, a 1x1 conv over its level's grid: (flops,
    params)."""
    return conv_cost(channels, ANCHOR_ROWS + HEAD_EXTRA_CHANNELS, 1, 1, grid_w, grid_h)


# per_component label of block b is _BLOCK_LABELS[b]
_BLOCK_LABELS = ("",) + tuple(f"block{b}" for b in range(1, NUM_BLOCKS_MAX + 1))


def _price(arch: ArchEncoding, resolution, rows=None):
    """(total flops, total params) of `arch` at `resolution`, added up
    part by part: the stem, each run of blocks, each fusion layer and
    each head. Given a list `rows`, also append every component's
    (label, flops, params) to it, in that order, heads by level.

    A run of blocks starts at block 1 or at a downsample /
    channel-doubling index and ends before the next one. Every block
    after a run's first takes the same `_block_cost` arguments (stride
    1, the run's channels and spatial size), so it is priced once and
    counted `blocks - 1` times."""
    bb = arch.backbone
    total_flops, total_params, w, h = _stem_cost(bb.base_channels, *resolution)
    if rows is not None:
        rows.append(("stem", total_flops, total_params))

    kind, down, dbl = bb.block_kind, bb.downsample_at, bb.double_channels_at
    in_ch = ch = bb.base_channels
    shapes = {}  # level -> (channels, w, h) of its last block's output
    level = 1
    starts = sorted({*down, *dbl})
    for start, end in zip([1, *starts], [*starts, bb.num_blocks + 1]):
        stride = 1
        if start in down:
            stride = 2
            w, h = _ceil_div(w, 2), _ceil_div(h, 2)
            level += 1
        if start in dbl:
            ch *= 2
        flops, params, in_ch = _block_cost(kind, in_ch, ch, stride, w, h)
        total_flops += flops
        total_params += params
        if rows is not None:
            rows.append((_BLOCK_LABELS[start], flops, params))
        if end - start > 1:
            flops, params, in_ch = _block_cost(kind, in_ch, ch, 1, w, h)
            total_flops += (end - start - 1) * flops
            total_params += (end - start - 1) * params
            if rows is not None:
                rows.extend((label, flops, params) for label in _BLOCK_LABELS[start + 1 : end])
        shapes[level] = (in_ch, w, h)

    c = arch.fusion.channels
    for i, layer in enumerate(arch.fusion.layers):
        flops, params = _fusion_cost(
            shapes[layer.output_level], shapes[layer.input_a], shapes[layer.input_b], c
        )
        total_flops += flops
        total_params += params
        if rows is not None:
            rows.append((f"fusion{i + 1}", flops, params))
    for lvl in sorted(arch.fusion.heads_at):
        _, grid_w, grid_h = shapes[lvl]
        flops, params = _head_cost(c, grid_w, grid_h)
        total_flops += flops
        total_params += params
        if rows is not None:
            rows.append((f"head_level{lvl}", flops, params))
    return total_flops, total_params


@dataclass(frozen=True)
class CostReport:
    total_flops: int
    total_params: int
    input_resolution: tuple[int, int]
    arch: ArchEncoding

    @property
    def per_component(self) -> tuple[tuple[str, int, int], ...]:
        """(label, flops, params) of the stem, each block, each fusion
        layer and each head, built when read."""
        rows = []
        _price(self.arch, self.input_resolution, rows)
        return tuple(rows)


def candidate_cost(arch: ArchEncoding, resolution=DEFAULT_RESOLUTION) -> CostReport:
    """Sum stem + blocks + fusion 1x1 convs + per-head prediction convs."""
    resolution = tuple(resolution)
    return CostReport(*_price(arch, resolution), resolution, arch)


def gflops(report: CostReport) -> float:
    return report.total_flops / 1e9
