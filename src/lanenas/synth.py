"""Synthetic scene generator.

Builds (proposals, ground truth) pairs with the exact failure mode the
point blender targets: the high-confidence cell near the bottom of each
lane predicts accurate nearby offsets but corrupted remote ones, while
low-confidence cells centered along the upper lane carry accurate local
offsets. With remote-noise sigma 0 the proposals are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lane_model import AnchorLayout, HeadGrid, LaneProposalSet


CURVATURE_RANGE = (1e-4, 4e-4)  # 1/px
HIGH_SCORE = 0.9  # the bottom cell of each lane
LOW_SCORE = 0.5   # upper-lane cells, plus up to 0.05
LOW_CELLS_PER_LANE = 2
IMAGE_SIZE = (512, 288)  # (width, height) px of every scene


@dataclass(frozen=True)
class SynthSceneConfig:
    num_scenes: int = 50
    remote_noise_sigma: float = 20.0  # px
    lanes_per_scene: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.num_scenes <= 0 or self.lanes_per_scene <= 0:
            raise ValueError("num_scenes and lanes_per_scene must be positive")
        if not 0 <= self.remote_noise_sigma < math.inf:
            raise ValueError("remote_noise_sigma must be non-negative and finite")


@dataclass(frozen=True)
class SceneRecord:
    """A synthetic scene's ground truth."""

    image_id: str
    gt_lanes: tuple  # one (n, 2) float64 array of (x, y) points per lane


def _lane_curve(rng, cfg, slot):
    w, h = IMAGE_SIZE
    x0 = w * (slot + 1) / (cfg.lanes_per_scene + 1) + rng.uniform(-15, 15)
    slope = rng.uniform(-0.25, 0.25)
    lo, hi = CURVATURE_RANGE
    curv = rng.uniform(lo, hi) * (1 if rng.random() < 0.5 else -1)
    y_bottom = h - 1

    def x_at(y):
        dy = y_bottom - y
        return x0 + slope * dy + curv * dy * dy

    return x_at


def _corruption(rng, cfg):
    """Remote offset error: zero below mid-height, ramping linearly to a
    scene-scaled amplitude at the top."""
    _, h = IMAGE_SIZE
    sigma = cfg.remote_noise_sigma
    amp = sigma * (5.0 + abs(rng.normal())) * (1 if rng.random() < 0.5 else -1)
    y_cut = h * 0.5

    def err_at(y):
        if sigma == 0.0 or y >= y_cut:
            return 0.0
        return amp * (y_cut - y) / y_cut

    return err_at


def generate_scene(rng, cfg: SynthSceneConfig, scene_idx: int):
    """One (LaneProposalSet, SceneRecord) pair. Lane `slot` proposes
    cell `slot` of the level-2 head and cells `LOW_CELLS_PER_LANE * slot`
    onwards of the level-1 head."""
    _, h = IMAGE_SIZE
    layout = AnchorLayout.uniform(IMAGE_SIZE)
    rows = np.array(layout.rows)
    n, n_rows = cfg.lanes_per_scene, len(rows)
    n_low = n * LOW_CELLS_PER_LANE
    high_cy = h * 0.8
    high_cx, high_offsets = np.empty(n), np.empty((n, n_rows))
    low_cx, low_cy, low_score = np.empty(n_low), np.empty(n_low), np.empty(n_low)
    low_offsets = np.empty((n_low, n_rows))
    gt_lanes = []
    for slot in range(n):
        x_at = _lane_curve(rng, cfg, slot)
        err_at = _corruption(rng, cfg)
        # the lane's x at each anchor row; float64 array arithmetic rounds
        # each + and - as the scalar expressions would
        xs = np.array([x_at(y) for y in layout.rows])
        gt_lanes.append(np.column_stack((xs, rows)))

        # bottom anchor cell: accurate locally, corrupted at remote rows
        cx = high_cx[slot] = x_at(high_cy)
        high_offsets[slot] = xs + [err_at(y) for y in layout.rows] - cx

        # upper-lane cells: lower confidence, accurate everywhere local
        for k in range(LOW_CELLS_PER_LANE):
            i = slot * LOW_CELLS_PER_LANE + k
            lcy = low_cy[i] = h * (0.12 + 0.22 * k)
            lcx = low_cx[i] = x_at(lcy)
            low_score[i] = LOW_SCORE + 0.05 * rng.random()
            low_offsets[i] = xs - lcx

    heads = (
        HeadGrid(level=1, grid_w=n_low, grid_h=1, cx=low_cx, cy=low_cy, score=low_score,
                 end_y=np.zeros(n_low), offsets=low_offsets),
        HeadGrid(level=2, grid_w=n, grid_h=1, cx=high_cx, cy=np.full(n, high_cy),
                 score=np.full(n, HIGH_SCORE), end_y=np.zeros(n), offsets=high_offsets),
    )
    proposals = LaneProposalSet(layout=layout, heads=heads)
    return proposals, SceneRecord(f"synth_{scene_idx:05d}", tuple(gt_lanes))


def generate_synthetic_scenes(cfg: SynthSceneConfig):
    """Deterministic corpus, yielded one (LaneProposalSet, SceneRecord)
    pair at a time from one RNG: the seed fixes every scene exactly."""
    rng = np.random.default_rng(cfg.seed)
    for i in range(cfg.num_scenes):
        yield generate_scene(rng, cfg, i)
