"""Adaptive point blending post-processor.

Pipeline: per-level score masking -> threshold filtering -> greedy
distance-NMS grouping -> per-row point swapping into each group's
representative line. All of the masking/threshold/grouping/locality
parameters are searchable. Decoding, lane distances and locality
factors do not depend on them, so a `LaneTable` holds them for every
parameter set post-processing one proposal set meets. A lane is a
`(score, points)` pair: the masked score of the group's representative
and an (n, 2) float64 array of `(x, y)` points, top to bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SchemaError
from .lane_model import LaneProposalSet

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

    def __hash__(self):
        # agrees with `__eq__`, which compares `per_level` as a dict. Equal sets
        # score alike: where -0.0 and 0.0 differ, so does nothing post-processing
        # computes from them.
        per_level = tuple(sorted(self.per_level.items()))
        return hash((self.score_threshold, self.group_distance, self.locality_sigma, per_level))

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
    radial-distance term from the level's reference point. At `alpha2`
    0 that term is 0.0, and the distance, which may overflow, is not taken."""
    cx, cy = center
    radial = 0.0
    if params.alpha2:
        ux, uy = params.center
        radial = params.alpha2 * math.sqrt((cx - ux) ** 2 + (cy - uy) ** 2)
    return params.alpha1 * cy + params.beta1 + radial


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


def mask_proposals(table: LaneTable, params: BlendParamSet):
    """The masked score of every table entry, one flat list in entry
    order. A level whose logit terms overflow on an entry (a radial term
    past a float's range, or `inf - inf`: a NaN logit, so a NaN score)
    is a SchemaError naming the level of the first such entry. A
    cell with no entry makes no lane, so its score is not masked."""
    identity = BlendParams()
    scores = []
    try:
        for level, score, cx, cy in zip(table.level, table.score, table.cx, table.cy):
            s = apply_mask(score, mask_logit(params.per_level.get(level, identity), (cx, cy)))
            if math.isnan(s):
                raise OverflowError
            scores.append(s)
    except OverflowError:
        raise SchemaError(f"blend.per_level.{level}", "mask logit overflows") from None
    return scores


class LaneTable:
    """One proposal set's lanes, decoded once for post-processing it
    under many blend parameter sets.

    A cell's decoded points and its source do not depend on the blend
    parameters, and neither does the distance between two cells' lanes
    nor, for one locality sigma, a point's locality factor: only the
    masked scores do. The table is built from each head's columns in
    whole-array steps, and post-processing reads nothing else. Entry
    `k` is a decodable cell (at least 2 points), heads in order and
    cells in order within a head. Its columns are the head's `level[k]`,
    the cell's centre `(cx[k], cy[k])` and raw `score[k]`, as Python
    floats, and its x values as row `k` of `xs`, a float64 matrix over
    the layout's anchor rows with NaN where the cell has no point. A cell
    that decodes to fewer than 2 points has no entry; an x that overflows
    on a decodable cell is a SchemaError naming the cell. Lane distances are
    filled in per entry pair as grouping asks for them; locality factors
    per sigma, for the two sigmas used last.
    """

    def __init__(self, proposals: LaneProposalSet):
        self.level, self.cx, self.cy, self.score = [], [], [], []
        self.ys = np.array(proposals.layout.rows)
        xs = [np.empty((0, len(self.ys)))]  # so a table may have no entry
        for h, head in enumerate(proposals.heads):
            if not len(head.score):
                continue
            if head.offsets.shape[1] != len(self.ys):
                raise ValueError(f"head {h}: a cell has no offset slot for every anchor row")
            # a point at every row with an offset, at or below the ending row
            present = ~np.isnan(head.offsets) & ~(self.ys < head.end_y[:, None])
            decodable = np.flatnonzero(np.count_nonzero(present, axis=1) >= 2)
            self.level += [head.level] * len(decodable)
            self.cx += head.cx[decodable].tolist()
            self.cy += head.cy[decodable].tolist()
            self.score += head.score[decodable].tolist()
            with np.errstate(over="ignore"):  # an overflow is refused below
                x = np.where(present[decodable], head.cx[decodable, None] + head.offsets[decodable],
                             np.nan)
            if np.isinf(x).any():
                i = decodable[np.isinf(x).any(axis=1)][0]
                raise SchemaError(f"heads[{h}].cells[{i}]", "decoded x overflows")
            xs.append(x)
        self.xs = np.concatenate(xs)
        self.present = ~np.isnan(self.xs)
        self._distance = {}
        self._factors = {}

    def distance(self, a, b) -> float:
        """`line_distance` of entries `a` and `b`, computed once per pair."""
        key = (a, b) if a < b else (b, a)
        d = self._distance.get(key)
        if d is None:
            d = self._distance[key] = line_distance(self.xs[a], self.xs[b])
        return d

    def factors(self, locality_sigma):
        """Per entry and anchor row, the locality factor
        `exp(-(dy * dy) / sigma**2)` of the row's distance `dy` from the
        entry's centre row, computed by `math.exp` (numpy's `exp` rounds
        differently): 1.0 throughout at infinite sigma."""
        f = self._factors.pop(locality_sigma, None)
        if f is None:
            s2 = locality_sigma**2
            by_cy = {
                cy: [math.exp(-(dy * dy) / s2) for dy in (self.ys - cy).tolist()]
                for cy in set(self.cy)
            }
            f = np.array([by_cy[cy] for cy in self.cy])
            if len(self._factors) == 2:
                del self._factors[next(iter(self._factors))]
        self._factors[locality_sigma] = f  # the most recently used last
        return f

    def points(self, who, rows):
        """The (n, 2) float64 points of a lane whose point on anchor row
        `rows[i]` is entry `who[i]`'s."""
        return np.column_stack((self.xs[who, rows], self.ys[rows]))


def line_distance(xa, xb) -> float:
    """Mean |xa - xb| over the anchor rows where both x arrays have a
    point (NaN marks none); +inf if there is no such row. The gaps are
    summed left to right (as `np.cumsum` does; `np.sum` adds pairwise),
    so the result equals a plain loop's running sum bit for bit. A gap or
    a sum beyond the float range (x near the float maximum) makes the
    distance +inf without a warning: such lanes group under no finite
    distance."""
    with np.errstate(over="ignore"):
        gaps = np.abs(xa - xb)[~(np.isnan(xa) | np.isnan(xb))]
        if not len(gaps):
            return math.inf
        return float(np.add.accumulate(gaps)[-1] / len(gaps))  # np.cumsum's ufunc


def decode_all(scores, score_threshold):
    """The table entries whose masked score (`scores[k]` for entry `k`)
    passes the threshold: `(entry, score)` pairs in entry order."""
    return [(k, s) for k, s in enumerate(scores) if not s < score_threshold]


def group_lines(table: LaneTable, lines, group_distance):
    """Greedy NMS grouping of `(entry, score)` pairs: the highest-score
    unassigned line seeds a group and absorbs every unassigned line
    closer than the threshold. The seed is each group's first element."""
    order = sorted(range(len(lines)), key=lambda i: (-lines[i][1], i))
    assigned = [False] * len(lines)
    groups = []
    for i in order:
        if assigned[i]:
            continue
        seed = lines[i][0]
        assigned[i] = True
        group = [lines[i]]
        for j in order:
            if not assigned[j] and table.distance(seed, lines[j][0]) < group_distance:
                assigned[j] = True
                group.append(lines[j])
        groups.append(group)
    return groups


def blend_group(table: LaneTable, group, locality_sigma):
    """Blend one group into its representative (the seed, highest masked
    score). Returns `(who, rows)`: the representative's anchor rows and,
    per row, the entry whose point the blended lane keeps. That is the
    member whose weight, its score times the locality factor of the row
    (score alone at infinite sigma), is largest; ties go to the
    representative, then to the earlier member (the first maximum, in
    group order). Every output point comes verbatim from a member."""
    rep = group[0][0]
    rows = np.flatnonzero(table.present[rep])
    if len(group) == 1:
        return np.full(len(rows), rep), rows
    members = np.array([k for k, _ in group])
    scores = np.array([s for _, s in group])
    at = np.ix_(members, rows)
    weights = np.where(
        table.present[at], scores[:, None] * table.factors(locality_sigma)[at], -np.inf
    )
    return members[weights.argmax(axis=0)], rows


def postprocess(table: LaneTable, params: BlendParamSet):
    """Full pipeline over one proposal set's lane table: mask ->
    threshold -> group -> blend.

    Returns one `(score, points)` pair per group: the representative's
    masked score and the blended lane's (n, 2) float64 points, top to
    bottom. With an identity mask and infinite locality sigma this
    reduces to plain Line-NMS (highest-score line per group, untouched).
    A caller that post-processes one proposal set under many parameter
    sets (the inner search) keeps its table.
    """
    scores = mask_proposals(table, params)
    lines = decode_all(scores, params.score_threshold)
    groups = group_lines(table, lines, params.group_distance)
    lanes = []
    for group in groups:
        who, rows = blend_group(table, group, params.locality_sigma)
        lanes.append((group[0][1], table.points(who, rows)))
    return lanes


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
    return BlendParamSet.identity(
        params.per_level, score_threshold=params.score_threshold,
        group_distance=params.group_distance, locality_sigma=math.inf,
    )
