"""The three workloads, their sizes, their tracing points and their
per-layer metrics.

Every workload calls the package's public entry points in-process:
`lanenas.cli.main([...])` or `run_blend_inner_search`. The only thing a
workload hands the program is the inputs it generated from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
from lanenas import (
    _kernels,
    cli,
    data_io,
    metrics,
    point_blend,
    search_engine,
    synth,
)
from lanenas.point_blend import BlendParamSet, BlendParamSpace, plain_nms_params

from . import checks
from .spans import Tracer

NOISE = 40.0          # px of remote-offset noise, for lanes and blend-inner
EVAL_CANVAS = (1640, 590)  # eval-f1's default canvas
LANE_WIDTH = 30
IOU_THRESHOLD = 0.5
SUBSAMPLE = 2  # lanes: scenes whose matches are recomputed by brute force
# Identity mask, but grouping wide enough for a noisy bottom cell to meet
# the accurate upper cells of its lane: at sigma 40 this blend beats plain
# Line-NMS yet stays below F1 1.0, so the inner search has room to climb.
BLEND_INIT = dict(score_threshold=0.3, group_distance=60.0, locality_sigma=60.0)


@dataclass(frozen=True)
class Size:
    budget: int          # search: mutation evaluations
    init_population: int
    scenes: int          # lanes: corpus size
    inner_scenes: int    # blend-inner: in-memory scenes
    inner_steps: int     # blend-inner: budget


SIZES = {
    "full": Size(budget=1500, init_population=16, scenes=100,
                 inner_scenes=40, inner_steps=3),
    "tiny": Size(budget=40, init_population=8, scenes=6,
                 inner_scenes=3, inner_steps=4),
}


def raster_path():
    """Which rasterization kernel the program selected: numba, numpy, or
    the selected function's name once the kernel module changes."""
    fn = getattr(_kernels, "_rasterize_segments", None)
    if type(fn).__module__.startswith("numba"):
        return "numba"
    if fn is not None and fn is getattr(_kernels, "_rasterize_segments_py", None):
        return "numpy"
    return getattr(fn, "__name__", "unknown")


def _cli(argv):
    """Run one CLI command; its stdout is returned, its stderr (one
    progress line per search evaluation) is discarded."""
    out = io.StringIO()
    with open(os.devnull, "w") as devnull, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(devnull):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lanenas {argv[0]} exited {code}")
    return out.getvalue()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    """prepare() is set-up; each repeat is reset() (untimed), run() (timed)
    and digest(); check() returns (failed items, problems) for the last
    repeat's outputs."""

    def prepare(self):
        pass

    def history_bytes(self):
        return 0


class Search(Workload):
    """`lanenas search` with the built-in synthetic evaluator and default
    flags, one worker."""

    def __init__(self, seed, size: Size, work_dir):
        self.seed, self.size = seed, size
        self.items = size.budget + size.init_population
        self.out = os.path.join(work_dir, "run")

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, tracer):
        _cli(["search", "--budget", str(self.size.budget),
              "--init-population", str(self.size.init_population),
              "--workers", "1", "--seed", str(self.seed), "--out", self.out])

    def history_bytes(self):
        return os.path.getsize(os.path.join(self.out, "history.jsonl"))

    def digest(self):
        with open(os.path.join(self.out, "history.jsonl"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def check(self):
        return (checks.failed_evaluations(self.out),
                checks.check_search(self.out, self.items, data_io.load_archive))


class Lanes(Workload):
    """gen-synth, then blend --culane-out, then eval-f1 at 1640x590."""

    def __init__(self, seed, size: Size, work_dir):
        self.seed, self.size = seed, size
        self.items = size.scenes
        self.corpus = os.path.join(work_dir, "corpus")
        self.pred = os.path.join(work_dir, "pred")

    def reset(self):
        for d in (self.corpus, self.pred):
            shutil.rmtree(d, ignore_errors=True)

    def run(self, tracer):
        with _span(tracer, "cli.gen_synth"):
            _cli(["gen-synth", "--out", self.corpus,
                  "--num-scenes", str(self.size.scenes),
                  "--noise", str(NOISE), "--seed", str(self.seed)])
        with _span(tracer, "cli.blend"):
            _cli(["blend", "--proposals", os.path.join(self.corpus, "proposals.jsonl"),
                  "--culane-out", self.pred])
        with _span(tracer, "cli.eval_f1"):
            self.report = json.loads(_cli(
                ["eval-f1", "--pred", self.pred, "--gt", os.path.join(self.corpus, "gt"),
                 "--canvas", "x".join(map(str, EVAL_CANVAS)), "--json"]))

    def digest(self):
        h = hashlib.sha256(json.dumps(self.report, sort_keys=True).encode())
        for name in sorted(os.listdir(self.pred)):
            with open(os.path.join(self.pred, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def check(self):
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(self.size.scenes, size=SUBSAMPLE, replace=False)
        subsample = [f"synth_{int(i):05d}" for i in sorted(picks)]
        return 0, checks.check_lanes(
            self.corpus, self.pred, self.report, subsample, metrics.score_scene,
            LANE_WIDTH, EVAL_CANVAS, IOU_THRESHOLD,
        )


class BlendInner(Workload):
    """`run_blend_inner_search` on in-memory noisy synthetic scenes."""

    def __init__(self, seed, size: Size, work_dir):
        self.seed, self.size = seed, size
        self.items = size.inner_steps
        self.counter = Tracer()

    def prepare(self):
        cfg = synth.SynthSceneConfig(num_scenes=self.size.inner_scenes,
                                     remote_noise_sigma=NOISE, seed=self.seed)
        self.scenes = [(p, rec.gt_lanes) for p, rec in synth.generate_synthetic_scenes(cfg)]
        self.init = BlendParamSet.identity([1, 2], **BLEND_INIT)

    def reset(self):
        # counts the steps each repeat takes, for the step-count check
        self.counter.restore()
        self.counter = Tracer()
        self.counter.count_calls(point_blend, "perturb", "steps")
        self.counter.count_calls(search_engine, "evaluate_blend_params", "evaluations")

    def run(self, tracer):
        self.best = search_engine.run_blend_inner_search(
            self.scenes, BlendParamSpace(),
            search_engine.InnerSearchConfig(budget=self.size.inner_steps, seed=self.seed),
            self.init,
        )

    def digest(self):
        return hashlib.sha256(repr(self.best).encode()).hexdigest()

    def check(self):
        self.counter.restore()
        counts = self.counter.counts
        return 0, checks.check_blend_inner(
            lambda params: search_engine.evaluate_blend_params(self.scenes, params, LANE_WIDTH),
            self.init, self.best, plain_nms_params(self.init), self.size.inner_steps,
            counts["steps"], counts["evaluations"],
        )


WORKLOADS = {"search": Search, "lanes": Lanes, "blend-inner": BlendInner}


# ---------------------------------------------------------------------------
# tracing: each public function is wrapped under the name its caller uses


def install_tracing(tracer: Tracer):
    def trace_on_eval(args, kwargs):
        callback = kwargs.get("on_eval")
        if callback is not None:
            def on_eval(*a):
                with tracer.span("cli.on_eval"):
                    return callback(*a)
            kwargs["on_eval"] = on_eval

    gt_ids = set()

    def note_gt(args, kwargs):
        gt_ids.clear()
        gt_ids.update(id(g) for g in (args[1] if len(args) > 1 else kwargs["gt"]))

    wrap = tracer.wrap
    # search_engine, and cost_model as search_engine calls it
    wrap(search_engine, "run_search", "search_engine.run_search", before=trace_on_eval)
    wrap(search_engine, "mutate_arch", "search_engine.mutate_arch")
    wrap(search_engine, "_evaluate", "search_engine._evaluate")
    wrap(search_engine.ParetoArchive, "insert", "search_engine.archive_insert")
    wrap(search_engine, "evaluate_blend_params", "search_engine.evaluate_blend_params")
    wrap(point_blend, "perturb", "search_engine.inner_step")
    wrap(search_engine, "candidate_cost", "cost_model.candidate_cost")
    # data_io; arch_to_json is the dedup key only when run_search calls it
    wrap(data_io, "arch_to_json", "data_io.dedup_key",
         when=lambda: tracer.current == "search_engine.run_search")
    wrap(data_io, "snapshot_archive", "data_io.snapshot_archive")
    tracer.count_calls(data_io, "_atomic_write", "data_io.snapshot_mb",
                       amount=lambda args, kwargs: len(args[1].encode()) / 1e6)
    wrap(data_io, "write_proposals", "data_io.proposals_io")
    tracer.wrap_generator(data_io, "read_proposals", "data_io.proposals_io")
    wrap(data_io, "write_culane_lines", "data_io.culane_io")
    wrap(data_io, "read_culane_lines", "data_io.culane_io")
    # synth as cli calls it
    wrap(synth, "generate_synthetic_scenes", "synth.generate")
    # point_blend and lane_model as their callers name them
    wrap(search_engine, "postprocess", "point_blend.postprocess")
    wrap(point_blend, "postprocess", "point_blend.postprocess")
    wrap(point_blend, "mask_proposals", "point_blend.mask")
    wrap(point_blend, "decode_all", "lane_model.decode_all")
    wrap(point_blend, "group_lines", "point_blend.group")
    wrap(point_blend, "blend_group", "point_blend.blend_group")
    tracer.count_calls(point_blend, "line_distance", "lane_model.line_distance")
    # metrics and the kernel as metrics calls it
    wrap(metrics, "score_scene", "metrics.score_scene", before=note_gt)
    wrap(metrics, "rasterize_lane", "metrics.rasterize_lane")
    tracer.count_calls(metrics, "rasterize_lane", "metrics.gt_raster_calls",
                       amount=lambda args, kwargs: int(id(args[0]) in gt_ids))
    wrap(metrics, "rasterize_polyline", "_kernels.rasterize_polyline")
    tracer.count_calls(metrics, "rasterize_polyline", "kernels.raster_mpx",
                       amount=lambda args, kwargs: args[3][0] * args[3][1] / 1e6)


# (metric, unit, how, span or count name); how is n, total, self or count
LAYER_METRICS = (
    ("search_engine.evals", "count", "n", "search_engine._evaluate"),
    ("search_engine.mutate_attempts", "count", "n", "search_engine.mutate_arch"),
    ("search_engine.mutate_s", "s", "total", "search_engine.mutate_arch"),
    ("search_engine.dedup_key_s", "s", "total", "data_io.dedup_key"),
    ("search_engine.evaluate_self_s", "s", "self", "search_engine._evaluate"),
    ("search_engine.archive_insert_s", "s", "total", "search_engine.archive_insert"),
    ("search_engine.inner_steps", "count", "n", "search_engine.inner_step"),
    ("search_engine.blend_eval_s", "s", "total", "search_engine.evaluate_blend_params"),
    ("cost_model.calls", "count", "n", "cost_model.candidate_cost"),
    ("cost_model.s", "s", "total", "cost_model.candidate_cost"),
    ("data_io.snapshot_calls", "count", "n", "data_io.snapshot_archive"),
    ("data_io.snapshot_s", "s", "total", "data_io.snapshot_archive"),
    ("data_io.snapshot_mb", "MB", "count", "data_io.snapshot_mb"),
    ("data_io.history_mb", "MB", "count", "data_io.history_mb"),
    ("data_io.proposals_io_s", "s", "total", "data_io.proposals_io"),
    ("data_io.culane_io_s", "s", "total", "data_io.culane_io"),
    ("cli.on_eval_self_s", "s", "self", "cli.on_eval"),
    ("cli.gen_synth_s", "s", "total", "cli.gen_synth"),
    ("cli.blend_s", "s", "total", "cli.blend"),
    ("cli.eval_f1_s", "s", "total", "cli.eval_f1"),
    ("synth.generate_s", "s", "total", "synth.generate"),
    ("point_blend.postprocess_calls", "count", "n", "point_blend.postprocess"),
    ("point_blend.postprocess_s", "s", "total", "point_blend.postprocess"),
    ("point_blend.mask_s", "s", "total", "point_blend.mask"),
    ("point_blend.group_s", "s", "total", "point_blend.group"),
    ("point_blend.blend_s", "s", "total", "point_blend.blend_group"),
    ("lane_model.decode_s", "s", "total", "lane_model.decode_all"),
    ("lane_model.line_distance_calls", "count", "count", "lane_model.line_distance"),
    ("metrics.score_scene_self_s", "s", "self", "metrics.score_scene"),
    ("metrics.raster_calls", "count", "n", "metrics.rasterize_lane"),
    ("metrics.gt_raster_calls", "count", "count", "metrics.gt_raster_calls"),
    ("kernels.raster_s", "s", "total", "_kernels.rasterize_polyline"),
    ("kernels.raster_mpx", "Mpx", "count", "kernels.raster_mpx"),
)


def layer_metrics(tracer: Tracer, history_bytes=0):
    summary = tracer.summary()
    counts = {**tracer.counts, "data_io.history_mb": history_bytes / 1e6}
    out = {}
    for name, unit, how, source in LAYER_METRICS:
        if how == "count":
            value = counts.get(source, 0)
        else:
            key = {"n": "n", "total": "total_s", "self": "self_s"}[how]
            value = summary.get(source, {}).get(key, 0)
        out[name] = {"value": value, "unit": unit}
    return out
