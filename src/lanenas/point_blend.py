"""Adaptive point blending post-processor.

Pipeline: per-level score masking -> threshold filtering -> greedy
distance-NMS grouping -> per-row point swapping into each group's
representative line. All of the masking/threshold/grouping/locality
parameters are searchable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConstraintError
from .lane_model import (
    LaneLine,
    LaneProposalSet,
    decode_all,
    line_distance,
)

_EPS = 1e-6


@dataclass(frozen=True)
class BlendParams:
    """Score mask coefficients for one feature level."""

    alpha1: float = 0.0   # weight on the cell's vertical position
    beta1: float = 0.0    # bias
    alpha2: float = 0.0   # weight on radial distance from `center`
    center: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class BlendParamSet:
    per_level: dict
    score_threshold: float = 0.3
    group_distance: float = 40.0
    locality_sigma: float = 60.0

    def __post_init__(self):
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError("score_threshold must be in [0, 1]")
        if not self.group_distance > 0:
            raise ValueError("group_distance must be positive")
        if not self.locality_sigma > 0:
            raise ValueError("locality_sigma must be positive")

    @classmethod
    def identity(cls, levels, **kw):
        """Identity mask (logit 0) at every level."""
        return cls(per_level={lvl: BlendParams() for lvl in levels}, **kw)


@dataclass(frozen=True)
class ParamBounds:
    lo: float
    hi: float
    mutation_sigma: float

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError("lo must be < hi")


@dataclass(frozen=True)
class BlendParamSpace:
    """Per-parameter bounds and mutation scales for the inner search."""

    alpha1: ParamBounds = ParamBounds(-0.05, 0.05, 0.005)
    beta1: ParamBounds = ParamBounds(-2.0, 2.0, 0.2)
    alpha2: ParamBounds = ParamBounds(-0.05, 0.05, 0.005)
    center_x: ParamBounds = ParamBounds(0.0, 2048.0, 20.0)
    center_y: ParamBounds = ParamBounds(0.0, 1024.0, 20.0)
    score_threshold: ParamBounds = ParamBounds(0.05, 0.95, 0.05)
    group_distance: ParamBounds = ParamBounds(5.0, 150.0, 5.0)
    locality_sigma: ParamBounds = ParamBounds(5.0, 500.0, 20.0)


def mask_logit(params: BlendParams, center) -> float:
    """Mask logit at a grid center: a vertical-position term plus a
    radial-distance term from the level's reference point."""
    cx, cy = center
    ux, uy = params.center
    radial = math.sqrt((cx - ux) ** 2 + (cy - uy) ** 2)
    return params.alpha1 * cy + params.beta1 + params.alpha2 * radial


def apply_mask(score: float, logit_mask: float) -> float:
    """Combine the raw confidence with the mask additively in logit
    space; logit 0 is the exact identity (up to clamping)."""
    s = min(max(score, _EPS), 1.0 - _EPS)
    if logit_mask == 0.0:
        return s
    logit_s = math.log(s / (1.0 - s))
    try:
        return 1.0 / (1.0 + math.exp(-(logit_s + logit_mask)))
    except OverflowError:  # a very negative logit: the sigmoid saturates
        return 0.0


def mask_proposals(proposals: LaneProposalSet, params: BlendParamSet):
    """The masked score of every cell: `scores[h][i]` for cell `i` of
    head `h`. The proposals themselves are left as they are. A level
    whose logit terms overflow (`inf - inf` is a NaN logit, and so a NaN
    score) is a ConstraintError naming the level."""
    scores = []
    for head in proposals.heads:
        p = params.per_level.get(head.level, BlendParams())
        try:
            row = [apply_mask(c.score, mask_logit(p, c.center)) for c in head.cells]
            if math.isnan(sum(row)):
                raise OverflowError
        except OverflowError:
            raise ConstraintError(f"blend.per_level.{head.level}", "mask logit overflows") from None
        scores.append(row)
    return scores


def group_lines(lines, group_distance):
    """Greedy NMS grouping: highest-score unassigned line seeds a group
    and absorbs every unassigned line closer than the threshold. The
    seed is each group's first element."""
    order = sorted(range(len(lines)), key=lambda i: (-lines[i].score, i))
    assigned = [False] * len(lines)
    groups = []
    for i in order:
        if assigned[i]:
            continue
        seed = lines[i]
        assigned[i] = True
        group = [seed]
        for j in order:
            if assigned[j]:
                continue
            if line_distance(seed, lines[j]) < group_distance:
                assigned[j] = True
                group.append(lines[j])
        groups.append(group)
    return groups


def blend_group(group, locality_sigma) -> LaneLine:
    """Blend one group into its representative (the seed, highest masked
    score), keeping its score and source. Each representative row keeps
    the member point whose lane has the best score x Gaussian weight of
    the row's distance from the lane's cell centre row (score alone at
    infinite sigma); ties go to the representative, then to the earlier
    member. Every output point comes verbatim from a group member."""
    rep = group[0]
    if len(group) == 1:
        return rep
    s2 = locality_sigma**2
    row = {y: i for i, (_, y) in enumerate(rep.points)}
    out = list(rep.points)
    best_w = [-math.inf] * len(row)
    for line in group:
        cy = line.source.cell_center[1]
        for p in line.points:
            i = row.get(p.y)
            if i is None:
                continue
            dy = p.y - cy
            w = line.score * math.exp(-(dy * dy) / s2)
            if w > best_w[i]:
                out[i], best_w[i] = p, w
    return LaneLine(tuple(out), rep.score, rep.source)


def postprocess(proposals: LaneProposalSet, params: BlendParamSet):
    """Full pipeline: mask -> decode/threshold -> group -> blend.

    Returns one lane per group. With an identity mask and infinite
    locality sigma this reduces to plain Line-NMS (highest-score line
    per group, untouched).
    """
    scores = mask_proposals(proposals, params)
    lines = decode_all(proposals, params.score_threshold, scores)
    groups = group_lines(lines, params.group_distance)
    return [blend_group(g, params.locality_sigma) for g in groups]


def perturb(params: BlendParamSet, space: BlendParamSpace, rng) -> BlendParamSet:
    """Gaussian-disturb one parameter, clipped to its bounds."""
    levels = sorted(params.per_level)
    choices = [("global", g) for g in ("score_threshold", "group_distance", "locality_sigma")]
    for lvl in levels:
        for name in ("alpha1", "beta1", "alpha2", "center_x", "center_y"):
            choices.append((lvl, name))
    target, name = choices[int(rng.integers(len(choices)))]
    bounds = getattr(space, name)

    def step(value):
        if math.isinf(value):
            value = bounds.hi
        v = value + rng.normal(0.0, bounds.mutation_sigma)
        return min(max(v, bounds.lo), bounds.hi)

    if target == "global":
        return replace(params, **{name: step(getattr(params, name))})
    p = params.per_level[target]
    if name == "center_x":
        new = replace(p, center=(step(p.center[0]), p.center[1]))
    elif name == "center_y":
        new = replace(p, center=(p.center[0], step(p.center[1])))
    else:
        new = replace(p, **{name: step(getattr(p, name))})
    per_level = dict(params.per_level)
    per_level[target] = new
    return replace(params, per_level=per_level)


def plain_nms_params(params: BlendParamSet) -> BlendParamSet:
    """Same thresholds, identity mask, infinite locality: plain Line-NMS."""
    return BlendParamSet(
        per_level={lvl: BlendParams() for lvl in params.per_level},
        score_threshold=params.score_threshold,
        group_distance=params.group_distance,
        locality_sigma=math.inf,
    )
