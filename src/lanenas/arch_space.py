"""Candidate genome definition: backbone encoding grammar, fusion spec,
mutation operators and search-space cardinality.

A backbone is written as ``<KIND>_<BASE>_<N>_[d1,d2(,d3)]_[c1,c2(,c3)]``,
e.g. ``BB_64_13_[5,9]_[7,12]``: bottleneck blocks, base channel size 64,
13 blocks total, downsampling at blocks 5 and 9, channel doubling at
blocks 7 and 12.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .errors import ExhaustedError, SchemaError

ALLOWED_BASE_CHANNELS = (48, 64, 80, 96, 128)
NUM_BLOCKS_MIN = 10
NUM_BLOCKS_MAX = 45
ALLOWED_STAGE_LIST_LENS = (2, 3)  # 3 or 4 stages

KIND_CODES = {"RB": "basic", "BB": "bottleneck"}
CODE_FOR_KIND = {v: k for k, v in KIND_CODES.items()}


class BlockKind(str, Enum):
    BASIC = "basic"
    BOTTLENECK = "bottleneck"


@dataclass(frozen=True)
class BackboneSpec:
    block_kind: BlockKind
    base_channels: int
    num_blocks: int
    downsample_at: tuple[int, ...]
    double_channels_at: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "downsample_at", tuple(self.downsample_at))
        object.__setattr__(self, "double_channels_at", tuple(self.double_channels_at))
        validate_backbone(self)

    @property
    def num_stages(self):
        return len(self.downsample_at) + 1


def validate_backbone(spec: BackboneSpec):
    if spec.base_channels not in ALLOWED_BASE_CHANNELS:
        raise SchemaError(
            "base_channels",
            f"{spec.base_channels} not in {ALLOWED_BASE_CHANNELS}",
        )
    if not NUM_BLOCKS_MIN <= spec.num_blocks <= NUM_BLOCKS_MAX:
        raise SchemaError(
            "num_blocks",
            f"{spec.num_blocks} outside [{NUM_BLOCKS_MIN}, {NUM_BLOCKS_MAX}]",
        )
    if len(spec.downsample_at) not in ALLOWED_STAGE_LIST_LENS:
        raise SchemaError(
            "downsample_at", f"length {len(spec.downsample_at)} not in {{2, 3}}"
        )
    if len(spec.double_channels_at) != len(spec.downsample_at):
        raise SchemaError(
            "double_channels_at",
            "length must equal len(downsample_at)",
        )
    for name, idxs in (
        ("downsample_at", spec.downsample_at),
        ("double_channels_at", spec.double_channels_at),
    ):
        if any(i2 <= i1 for i1, i2 in zip(idxs, idxs[1:])):
            raise SchemaError(name, f"{list(idxs)} not strictly increasing")
        for i in idxs:
            if not 2 <= i <= spec.num_blocks:
                raise SchemaError(
                    name, f"index {i} outside [2, {spec.num_blocks}]"
                )


@dataclass(frozen=True)
class FusionLayer:
    input_a: int
    input_b: int
    output_level: int


@dataclass(frozen=True)
class FusionSpec:
    layers: tuple[FusionLayer, ...]
    channels: int = 128
    heads_at: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "heads_at", frozenset(self.heads_at))
        if not self.heads_at:
            raise SchemaError("heads_at", "at least one prediction head required")
        if self.channels <= 0:
            raise SchemaError("channels", "must be positive")

    def validate_against(self, t: int):
        """Check all level indices fit the backbone's stage count t."""
        for i, layer in enumerate(self.layers):
            for fld in ("input_a", "input_b", "output_level"):
                v = getattr(layer, fld)
                if not 1 <= v <= t:
                    raise SchemaError(
                        f"layers[{i}].{fld}", f"level {v} outside [1, {t}]"
                    )
        for lvl in self.heads_at:
            if not 1 <= lvl <= t:
                raise SchemaError("heads_at", f"level {lvl} outside [1, {t}]")


@dataclass(frozen=True)
class ArchEncoding:
    """Complete candidate genome. Every field is frozen and hashable, so
    an encoding is its own key for deduplication."""

    backbone: BackboneSpec
    fusion: FusionSpec

    def __post_init__(self):
        self.fusion.validate_against(self.backbone.num_stages)


# digits are ASCII: `\d` and `str.isdigit` also pass digits `int` reads
# ("٩" as 9) and digits it rejects ("²")
_BACKBONE_RE = re.compile(
    r"^\s*([A-Z]{2})_([0-9]+)_([0-9]+)_\[([^\]]*)\]_\[([^\]]*)\]\s*$"
)
_INDEX_RE = re.compile(r"-?[0-9]+")


def _parse_index_list(text, name):
    items = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise SchemaError("", f"empty entry in {name} list")
        if not _INDEX_RE.fullmatch(tok):
            raise SchemaError("", f"non-integer {tok!r} in {name} list")
        items.append(int(tok))
    return tuple(items)


def parse_backbone(encoding: str) -> BackboneSpec:
    """Parse a backbone encoding string into a validated BackboneSpec.

    A malformed string, or one whose syntax is fine but breaks an
    invariant, is a SchemaError.
    """
    m = _BACKBONE_RE.match(encoding)
    if m is None:
        raise SchemaError("", f"malformed backbone encoding: {encoding!r}")
    kind_code, base, n, down, dbl = m.groups()
    if kind_code not in KIND_CODES:
        raise SchemaError("", f"unknown block kind code {kind_code!r}")
    return BackboneSpec(
        block_kind=BlockKind(KIND_CODES[kind_code]),
        base_channels=int(base),
        num_blocks=int(n),
        downsample_at=_parse_index_list(down, "downsample"),
        double_channels_at=_parse_index_list(dbl, "double-channels"),
    )


def serialize_backbone(spec: BackboneSpec) -> str:
    """Canonical string form: no spaces inside brackets."""
    down = ",".join(str(i) for i in spec.downsample_at)
    dbl = ",".join(str(i) for i in spec.double_channels_at)
    return f"{CODE_FOR_KIND[spec.block_kind.value]}_{spec.base_channels}_{spec.num_blocks}_[{down}]_[{dbl}]"


@dataclass(frozen=True)
class SpaceConfig:
    """Pins the boundaries of the searchable backbone/fusion space.

    The full paper-declared space is the default; tests shrink it to
    make exhaustive enumeration feasible.
    """

    block_kinds: tuple[BlockKind, ...] = (BlockKind.BASIC, BlockKind.BOTTLENECK)
    base_channels: tuple[int, ...] = ALLOWED_BASE_CHANNELS
    num_blocks_range: tuple[int, int] = (NUM_BLOCKS_MIN, NUM_BLOCKS_MAX)
    stage_list_lens: tuple[int, ...] = ALLOWED_STAGE_LIST_LENS
    fusion_layers: int = 2
    fusion_t: int = 4


@dataclass(frozen=True)
class CardinalityReport:
    backbone_count: int
    fusion_count: int
    assumptions: tuple[str, ...]


def space_cardinality(cfg: SpaceConfig = SpaceConfig()) -> CardinalityReport:
    """Exact count of valid backbone and fusion genomes under cfg.

    Counting assumptions are returned alongside the numbers because the
    intended basis of the published order-of-magnitude figures is not
    fully pinned down.
    """
    lo, hi = cfg.num_blocks_range
    backbone = 0
    for n in range(lo, hi + 1):
        per_n = 0
        for s in cfg.stage_list_lens:
            per_n += math.comb(n - 1, s) ** 2
        backbone += per_n
    backbone *= len(cfg.block_kinds) * len(cfg.base_channels)

    t, m = cfg.fusion_t, cfg.fusion_layers
    fusion = (t**3) ** m * (2**t - 1)

    assumptions = (
        f"block kinds counted: {len(cfg.block_kinds)}",
        f"base channel choices counted: {len(cfg.base_channels)}",
        f"num_blocks range: [{lo}, {hi}]",
        "downsample and double-channel index lists counted independently "
        "(strictly increasing, indices in [2, num_blocks])",
        f"fusion: {m} layers, each (input_a, input_b, output_level) in "
        f"[1, {t}]^3; input_a == input_b allowed",
        f"head placement counted as non-empty subsets of {t} levels",
        "fusion channel count fixed (not a searched dimension)",
        "blend parameters are continuous and excluded from both counts",
    )
    return CardinalityReport(backbone, fusion, assumptions)


def _list_move_candidates(spec: BackboneSpec):
    """All (field, position, delta) neighbor moves that keep the spec valid.

    An index may move down while it stays above its left neighbor (or
    >= 2) and up while it stays below its right neighbor (or <=
    num_blocks); moves are listed by field, position, then delta."""
    moves = []
    for fld in ("downsample_at", "double_channels_at"):
        idxs = getattr(spec, fld)
        lows = (1,) + idxs
        highs = idxs[1:] + (spec.num_blocks + 1,)
        for pos, (low, i, high) in enumerate(zip(lows, idxs, highs)):
            if i - 1 > low:
                moves.append((fld, pos, -1))
            if i + 1 < high:
                moves.append((fld, pos, 1))
    return moves


def _extended_move_candidates(spec: BackboneSpec, cfg: SpaceConfig):
    moves = []
    lo, hi = cfg.num_blocks_range
    max_idx = max(spec.downsample_at + spec.double_channels_at)
    if spec.num_blocks + 1 <= hi:
        moves.append(("num_blocks", spec.num_blocks + 1))
    if spec.num_blocks - 1 >= lo and spec.num_blocks - 1 >= max_idx:
        moves.append(("num_blocks", spec.num_blocks - 1))
    bases = sorted(cfg.base_channels)
    i = bases.index(spec.base_channels)
    if i > 0:
        moves.append(("base_channels", bases[i - 1]))
    if i < len(bases) - 1:
        moves.append(("base_channels", bases[i + 1]))
    for kind in cfg.block_kinds:
        if kind != spec.block_kind:
            moves.append(("block_kind", kind))
    return moves


def mutate_backbone(
    spec: BackboneSpec,
    rng,
    cfg: SpaceConfig = SpaceConfig(),
    p_extended: float = 0.2,
) -> BackboneSpec:
    """One mutation step.

    The primary move shifts one downsample or double-channel index to a
    neighboring block position. With probability p_extended a structural
    move is taken instead (num_blocks +-1, adjacent base channel size, or
    block kind flip) so the search can traverse those dimensions too.
    """
    index_moves = _list_move_candidates(spec)
    extended_moves = _extended_move_candidates(spec, cfg)
    use_extended = extended_moves and (
        not index_moves or rng.random() < p_extended
    )
    # the constructor validates the mutant; vars() of these dataclasses
    # holds exactly their init fields (cheaper than dataclasses.replace)
    if use_extended:
        fld, value = extended_moves[rng.integers(len(extended_moves))]
        return BackboneSpec(**{**vars(spec), fld: value})
    if not index_moves:
        raise ExhaustedError(f"no valid mutation for {serialize_backbone(spec)}")
    fld, pos, delta = index_moves[rng.integers(len(index_moves))]
    idxs = list(getattr(spec, fld))
    idxs[pos] += delta
    return BackboneSpec(**{**vars(spec), fld: tuple(idxs)})


def mutate_fusion(spec: FusionSpec, t: int, rng) -> FusionSpec:
    """Resample one level field of one fusion layer, or toggle one head."""
    n_fields = len(spec.layers) * 3
    choice = rng.integers(n_fields + 1)
    if choice < n_fields:
        li, fi = divmod(int(choice), 3)
        fld = ("input_a", "input_b", "output_level")[fi]
        layers = list(spec.layers)
        layers[li] = FusionLayer(**{**vars(layers[li]), fld: int(rng.integers(1, t + 1))})
        return FusionSpec(tuple(layers), spec.channels, spec.heads_at)
    lvl = int(rng.integers(1, t + 1))
    heads = set(spec.heads_at)
    if lvl in heads:
        if len(heads) > 1:
            heads.discard(lvl)
        # sole head: toggling off would empty the set; move it instead
        elif t > 1:
            heads = {1 + (lvl % t)}
    else:
        heads.add(lvl)
    return FusionSpec(spec.layers, spec.channels, frozenset(heads))


def random_backbone(rng, cfg: SpaceConfig = SpaceConfig()) -> BackboneSpec:
    kind = cfg.block_kinds[rng.integers(len(cfg.block_kinds))]
    base = int(cfg.base_channels[rng.integers(len(cfg.base_channels))])
    lo, hi = cfg.num_blocks_range
    n = int(rng.integers(lo, hi + 1))
    s = int(cfg.stage_list_lens[rng.integers(len(cfg.stage_list_lens))])
    down = tuple(sorted(rng.choice(range(2, n + 1), size=s, replace=False).tolist()))
    dbl = tuple(sorted(rng.choice(range(2, n + 1), size=s, replace=False).tolist()))
    return BackboneSpec(kind, base, n, down, dbl)


def random_fusion(rng, t: int, cfg: SpaceConfig = SpaceConfig()) -> FusionSpec:
    layers = tuple(
        FusionLayer(
            int(rng.integers(1, t + 1)),
            int(rng.integers(1, t + 1)),
            int(rng.integers(1, t + 1)),
        )
        for _ in range(cfg.fusion_layers)
    )
    n_heads = int(rng.integers(1, t + 1))
    heads = frozenset(
        int(v) for v in rng.choice(range(1, t + 1), size=n_heads, replace=False)
    )
    return FusionSpec(layers=layers, heads_at=heads)
