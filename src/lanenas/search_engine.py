"""Multi-objective evolutionary search over (FLOPS, score).

A Pareto archive of mutually non-dominated candidates is grown by
mutating uniformly-selected front members; evaluation is delegated to a
pluggable evaluator (builtin synthetic, or an external process speaking
newline-delimited JSON).

Evaluator protocol: `evaluate(arch, eval_id, cost) -> float` returns a
score in [0, 1]. `eval_id` is the id the search records in its history
(`e000000`, `e000001`, ...) and `cost` is the candidate's `CostReport`,
priced once by the search at its input resolution. An exception, or a
score that is not a real number in [0, 1], marks the evaluation failed:
the candidate is passed to `on_eval` with score None and `error` set to
"<ExcClass>: <message>".
"""

from __future__ import annotations

import json
import math
import numbers
import shlex
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import data_io, point_blend
from .arch_space import (
    ArchEncoding,
    FusionSpec,
    SpaceConfig,
    mutate_backbone,
    mutate_fusion,
    random_backbone,
    random_fusion,
)
from .cost_model import DEFAULT_RESOLUTION, CostReport, candidate_cost
from .errors import (
    EmptyArchiveError,
    EmptyDatasetError,
    ProtocolError,
    SchemaError,
    SpawnError,
)
from .metrics import DEFAULT_LANE_WIDTH, SceneScorer
from .point_blend import BlendParamSet, BlendParamSpace, LaneTable, postprocess


@dataclass(frozen=True)
class Candidate:
    arch: ArchEncoding
    flops: int
    score: float | None
    eval_id: str
    parent: str | None = None
    birth_step: int = 0
    error: str | None = None  # "<ExcClass>: <message>" of a failed evaluation


def dominates(a: Candidate, b: Candidate) -> bool:
    """a is no worse on both objectives and strictly better on one."""
    return (
        a.flops <= b.flops
        and a.score >= b.score
        and (a.flops < b.flops or a.score > b.score)
    )


class ParetoArchive:
    """Non-dominated (FLOPS, score) set, in insertion order, and a count of inserts.

    The front is also kept in FLOPS order as parallel lists of FLOPS,
    score and insertion sequence number. Along that order scores never
    decrease (a member with fewer FLOPS and no lower score would
    dominate the next), and members of equal FLOPS have equal scores.
    So an insert finds its place by bisection: the candidate is
    dominated only if the last member with FLOPS <= its FLOPS is, and
    the members it dominates form one contiguous slice."""

    def __init__(self):
        self.evaluations = 0
        self._flops: list[int] = []
        self._scores: list[float] = []
        self._seqs: list[int] = []
        self._live: dict[int, Candidate] = {}  # by sequence number, in insertion order
        self._members: list[Candidate] | None = []

    @property
    def members(self) -> list[Candidate]:
        """The front in insertion order, rebuilt after a change."""
        if self._members is None:
            self._members = list(self._live.values())
        return self._members

    def insert(self, cand: Candidate):
        """Add an evaluated candidate; a failed one (score None) is only counted."""
        self.evaluations += 1
        f, s = cand.flops, cand.score
        if s is None:
            return
        flops, scores = self._flops, self._scores
        i = bisect_right(flops, f)
        if i and (scores[i - 1] > s or (scores[i - 1] == s and flops[i - 1] < f)):
            return  # dominated by the best-scoring member with FLOPS <= f
        # members with FLOPS >= f and score <= s, in FLOPS order
        lo = bisect_left(flops, f, 0, i)
        hi = bisect_right(scores, s, lo)
        if lo < hi and flops[lo] == f and scores[lo] == s:
            lo = hi  # equal pairs (the whole slice) stay, the candidate after them
        for seq in self._seqs[lo:hi]:
            del self._live[seq]
        flops[lo:hi] = (f,)
        scores[lo:hi] = (s,)
        self._seqs[lo:hi] = (self.evaluations,)
        self._live[self.evaluations] = cand
        self._members = None

    def select_parent(self, rng) -> Candidate:
        """Uniform draw over current front members."""
        members = self.members
        if not members:
            raise EmptyArchiveError("archive has no evaluated members")
        return members[int(rng.integers(len(members)))]


# ---------------------------------------------------------------------------
# evaluators

class SyntheticEvaluator:
    """Deterministic closed-form stand-in for a trained-model evaluation.

    The score rewards depth, accumulated downsampling (receptive field),
    an early head placement (spatial resolution) and log parameter count,
    each normalized to [0, 1]. Adding a block always strictly increases
    the score while strictly increasing cost, so the space has a genuine
    accuracy/FLOPS trade-off with an enumerable true front.
    """

    def evaluate(self, arch: ArchEncoding, eval_id: str, cost: CostReport) -> float:
        bb = arch.backbone
        depth = (bb.num_blocks - 10) / 35.0
        # downsamples at or before each block, summed over the blocks;
        # validation keeps every index d in [2, num_blocks]
        rf = sum(bb.num_blocks - d + 1 for d in bb.downsample_at) / (3.0 * 45.0)
        min_head = min(arch.fusion.heads_at)
        res = (4 - min_head) / 3.0
        cap = (math.log10(cost.total_params) - 5.0) / 3.5
        score = (
            0.35 * depth
            + 0.25 * min(max(rf, 0.0), 1.0)
            + 0.15 * min(max(res, 0.0), 1.0)
            + 0.25 * min(max(cap, 0.0), 1.0)
        )
        return min(max(score, 0.0), 1.0)


class ExternalEvaluator:
    """Runs a child process per evaluation: request JSON on stdin, one
    response JSON line on stdout. The request's resolution is the one the
    search priced the candidate at."""

    def __init__(self, command, timeout=3600.0):
        self.argv = shlex.split(command)
        if not self.argv:
            raise ValueError("no command to run")
        self.timeout = timeout

    def evaluate(self, arch: ArchEncoding, eval_id: str, cost: CostReport) -> float:
        import subprocess  # here, so a run without a child process never loads it

        request = data_io.eval_request_to_json(eval_id, arch, cost.input_resolution)
        try:
            proc = subprocess.run(
                self.argv,
                input=json.dumps(request, allow_nan=False) + "\n",
                capture_output=True,
                encoding="utf-8",
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise TimeoutError(f"evaluator exceeded {self.timeout}s") from exc
        except OSError as exc:
            raise SpawnError(f"cannot launch {self.argv[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise ProtocolError(
                f"evaluator exited {proc.returncode}: {proc.stderr.strip()[:200]}"
            )
        line = proc.stdout.strip().splitlines()
        if not line:
            raise ProtocolError("evaluator produced no output")
        doc = data_io.parse_json(line[-1], "response")
        return data_io.eval_response_from_json(doc, expect_eval_id=eval_id)


# ---------------------------------------------------------------------------
# outer search

@dataclass(frozen=True)
class SearchConfig:
    budget: int = 200                 # mutation evaluations after the initial population
    init_population: int = 16
    workers: int = 1
    seed: int = 0
    space: SpaceConfig = SpaceConfig()
    resolution: tuple[int, int] = DEFAULT_RESOLUTION
    # pin the fusion genome (and skip fusion mutation); used when the
    # search is restricted to an enumerable backbone-only space
    fixed_fusion: FusionSpec | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if min(self.budget, self.init_population) < 0:
            raise ValueError("budget and init_population must be non-negative")


# the chance of a backbone mutation: weight 0.4 against the fusion's 0.3
_BACKBONE_SHARE = 0.4 / 0.7
# retry mutation this many times before accepting an already-seen genome
# (deterministic evaluators make re-evaluation a waste)
_DEDUP_RETRIES = 16


def _random_arch(rng, cfg: SearchConfig) -> ArchEncoding:
    bb = random_backbone(rng, cfg.space)
    fusion = cfg.fixed_fusion or random_fusion(rng, bb.num_stages, cfg.space)
    return ArchEncoding(backbone=bb, fusion=fusion)


def mutate_arch(arch: ArchEncoding, rng, cfg: SearchConfig) -> ArchEncoding:
    """Mutate the backbone or the fusion, the backbone when one
    `rng.random()` is below `_BACKBONE_SHARE`: the draw and the test of
    `rng.choice(2, p=[0.4, 0.3] / 0.7)`. The draw is made even when the
    fusion is pinned; skipping it would shift every later one."""
    if rng.random() < _BACKBONE_SHARE or cfg.fixed_fusion is not None:
        return ArchEncoding(mutate_backbone(arch.backbone, rng, cfg.space), arch.fusion)
    return ArchEncoding(
        arch.backbone, mutate_fusion(arch.fusion, arch.backbone.num_stages, rng)
    )


def _evaluate(evaluator, arch, eval_id, cost, parent, step) -> Candidate:
    try:
        score = evaluator.evaluate(arch, eval_id, cost)
        # a bool is an int, and NaN fails both comparisons
        if isinstance(score, bool) or not (isinstance(score, numbers.Real) and 0 <= score <= 1):
            raise SchemaError("score", f"need a number in [0, 1], got {score!r:.40}")
        score, error = float(score), None
    except Exception as exc:
        score, error = None, f"{type(exc).__name__}: {exc}"
    return Candidate(arch, cost.total_flops, score, eval_id, parent, step, error)


def run_search(config: SearchConfig, evaluator, on_eval=None) -> ParetoArchive:
    """Run the outer search to budget exhaustion.

    Every worker count N runs one job stream: the initial population, then
    one child per commit. Evaluations commit (insert, then `on_eval`) in
    `eval_id` order and job n + 2N - 1 is drawn as job n commits, so the
    history (the candidates passed to `on_eval`) of a deterministic
    evaluator depends only on the seed and N. At most N evaluations run at
    once; an exception cancels the jobs not yet started. Each candidate is
    priced once; failed evaluations are logged and skipped.
    """
    rng = np.random.default_rng(config.seed)
    archive = ParetoArchive()
    seen: set[ArchEncoding] = set()

    def next_child():
        """Mutate a front member, retrying a few times to avoid genomes
        that were already evaluated."""
        if not archive.members:
            return _random_arch(rng, config), None
        for _ in range(_DEDUP_RETRIES):
            parent = archive.select_parent(rng)
            child = mutate_arch(parent.arch, rng, config)
            if child not in seen:
                break
        return child, parent.eval_id

    def make_job(n, arch, parent):
        seen.add(arch)
        step = max(n - config.init_population + 1, 0)  # children are born at 1, 2, ...
        return arch, f"e{n:06d}", candidate_cost(arch, config.resolution), parent, step

    def jobs():
        for n in range(config.init_population):
            yield make_job(n, _random_arch(rng, config), None)
        for n in range(config.init_population, config.init_population + config.budget):
            yield make_job(n, *next_child())

    def drive(start):
        """Start each job through `start(job)`, which returns a call giving
        its candidate, and commit them oldest first from a window of 2N - 1."""
        started = map(start, jobs())
        window = deque(islice(started, 2 * config.workers - 1))
        while window:
            cand = window.popleft()()
            archive.insert(cand)
            if on_eval is not None:
                on_eval(cand, archive)
            window.extend(islice(started, 1))
        return archive

    if config.workers == 1:
        return drive(lambda job: partial(_evaluate, evaluator, *job))
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(config.workers)
    try:
        return drive(lambda job: pool.submit(_evaluate, evaluator, *job).result)
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# cheap inner loop over post-processing parameters

@dataclass(frozen=True)
class InnerSearchConfig:
    budget: int = 200
    seed: int = 0
    lane_width: int = DEFAULT_LANE_WIDTH


class BlendScenes:
    """Frozen proposal dumps and their ground truth, prepared once for
    scoring many blend parameter sets: one scorer over the ground truth,
    one `LaneTable` per proposal set, and the F1 of each parameter value
    scored so far, so an equal parameter set is not post-processed
    again."""

    def __init__(self, scenes, lane_width=DEFAULT_LANE_WIDTH):
        if not scenes:
            raise EmptyDatasetError("no proposal scenes supplied")
        canvases = {proposals.layout.image_size for proposals, _ in scenes}
        if len(canvases) > 1:
            raise ValueError(f"scenes mix canvas sizes {sorted(canvases)}")
        self.scorer = SceneScorer(
            [gt_lanes for _, gt_lanes in scenes], width=lane_width, canvas=canvases.pop()
        )
        self.tables = [LaneTable(proposals) for proposals, _ in scenes]
        self._f1: dict[BlendParamSet, float] = {}

    def f1(self, params: BlendParamSet) -> float:
        f1 = self._f1.get(params)
        if f1 is None:
            preds = [[points for _, points in postprocess(table, params)] for table in self.tables]
            f1 = self._f1[params] = self.scorer.report(preds).f1
        return f1


def evaluate_blend_params(
    scenes,
    params: BlendParamSet,
    lane_width=DEFAULT_LANE_WIDTH,
    prepared: BlendScenes | None = None,
) -> float:
    """Aggregate F1 of postprocess(params) over frozen proposal dumps.

    `prepared` is `BlendScenes(scenes, lane_width)`, kept across calls;
    without it, the scenes are prepared for this call alone.
    """
    if prepared is None:
        prepared = BlendScenes(scenes, lane_width)
    return prepared.f1(params)


def run_blend_inner_search(
    scenes,
    space: BlendParamSpace,
    config: InnerSearchConfig,
    init_params: BlendParamSet,
) -> BlendParamSet:
    """Hill-climb with Gaussian perturbations; never returns anything
    scoring below the initial (default) parameters. The scenes are
    prepared once for the whole search (`BlendScenes`): each cell is
    decoded once, each ground-truth lane drawn once, each distinct
    predicted lane once per scene, and each distinct parameter value
    scored once; scores are exact."""
    prepared = BlendScenes(scenes, config.lane_width)
    rng = np.random.default_rng(config.seed)
    best = init_params
    best_score = evaluate_blend_params(scenes, best, config.lane_width, prepared)
    for _ in range(config.budget):
        cand = point_blend.perturb(best, space, rng)
        score = evaluate_blend_params(scenes, cand, config.lane_width, prepared)
        if score > best_score:
            best, best_score = cand, score
    return best
