"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data/format error (an input
that cannot be read or an output that cannot be created counts, and the
message names its path), 3 internal error. `--json` switches stdout to
machine-readable JSON; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import data_io, point_blend, search_engine, synth
from .arch_space import (
    ArchEncoding,
    FusionLayer,
    FusionSpec,
    SpaceConfig,
    parse_backbone,
    serialize_backbone,
    space_cardinality,
)
from .cost_model import DEFAULT_RESOLUTION, candidate_cost, gflops
from .errors import LaneNasError, SchemaError
from .metrics import (
    DEFAULT_CANVAS,
    DEFAULT_IOU_THRESHOLD,
    DEFAULT_LANE_WIDTH,
    DEFAULT_X_TOLERANCE,
    match_and_score,
    tusimple_counts,
)
from .point_blend import BlendParamSet
from .search_engine import DEFAULT_TIMEOUT, SearchConfig
from .synth import SynthSceneConfig

# the largest side of a `--resolution` or `--canvas`, in px: a pixel's
# run index `y * w + x` stays far inside int64
MAX_SIDE = 65536


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_resolution(text, flag):
    """The (w, h) of a `WxH` flag value, each side in [1, MAX_SIDE]."""
    try:
        w, h = (int(side) for side in text.lower().split("x"))
    except ValueError:
        raise _UsageError(f"bad {flag} {text!r}, expected WxH")
    if not (0 < w <= MAX_SIDE and 0 < h <= MAX_SIDE):
        raise _UsageError(f"bad {flag} {text!r}, each side must be in [1, {MAX_SIDE}]")
    return w, h


def _default_fusion(t):
    """Stand-in fusion for cost queries on a bare backbone string: two
    layers merging the extremes into the two finest levels, heads there."""
    return FusionSpec(
        layers=(FusionLayer(1, t, 1), FusionLayer(2, t, 2)),
        heads_at=frozenset({1, 2}),
    )


def cmd_parse_arch(args):
    spec = parse_backbone(args.encoding)
    doc = {
        "encoding": serialize_backbone(spec),
        "block_kind": spec.block_kind.value,
        "base_channels": spec.base_channels,
        "num_blocks": spec.num_blocks,
        "downsample_at": list(spec.downsample_at),
        "double_channels_at": list(spec.double_channels_at),
        "num_stages": spec.num_stages,
    }
    if args.json:
        print(json.dumps(doc, allow_nan=False))
    else:
        for k, v in doc.items():
            print(f"{k}: {v}")
    return 0


def cmd_cost(args):
    backbone = parse_backbone(args.encoding)
    # a fusion spec that does not fit the backbone is a fault of its file
    arch = (data_io.read_json(args.fusion, lambda doc: ArchEncoding(
                backbone, data_io.fusion_from_json(doc, stages=backbone.num_stages)))
            if args.fusion else ArchEncoding(backbone, _default_fusion(backbone.num_stages)))
    report = candidate_cost(arch, _parse_resolution(args.resolution, "--resolution"))
    if args.json:
        print(
            json.dumps(
                {
                    "total_flops": report.total_flops,
                    "total_params": report.total_params,
                    "gflops": gflops(report),
                    "input_resolution": list(report.input_resolution),
                    "per_component": [
                        {"component": n, "flops": f, "params": p}
                        for n, f, p in report.per_component
                    ],
                },
                allow_nan=False,
            )
        )
    else:
        print(f"{'component':<14}{'flops':>16}{'params':>12}")
        for name, f, p in report.per_component:
            print(f"{name:<14}{f:>16}{p:>12}")
        print(f"{'total':<14}{report.total_flops:>16}{report.total_params:>12}")
        print(f"= {gflops(report):.3f} GFLOPS at {report.input_resolution}")
    return 0


def cmd_space_size(args):
    report = space_cardinality(SpaceConfig())
    if args.json:
        print(
            json.dumps(
                {
                    "backbone_count": report.backbone_count,
                    "fusion_count": report.fusion_count,
                    "assumptions": list(report.assumptions),
                },
                allow_nan=False,
            )
        )
    else:
        print(f"backbone genomes: {report.backbone_count:,}")
        print(f"fusion genomes:   {report.fusion_count:,}")
        print("assumptions:")
        for a in report.assumptions:
            print(f"  - {a}")
    return 0


def cmd_search(args):
    if not 0 < args.timeout < math.inf:
        raise _UsageError(f"--timeout must be positive and finite, got {args.timeout}")
    try:
        config = SearchConfig(
            budget=args.budget, init_population=args.init_population,
            workers=args.workers, seed=args.seed,
        )
    except ValueError as exc:  # a flag out of range
        raise _UsageError(str(exc)) from exc
    history_path = os.path.join(args.out, "history.jsonl")
    if os.path.isfile(history_path) and os.path.getsize(history_path) > 0:
        # the log is a run's one durable record: never truncate it
        raise LaneNasError(f"{history_path} already holds a run's log; search into another --out")
    if args.evaluator == "builtin:synthetic":
        evaluator = search_engine.SyntheticEvaluator()
    elif args.evaluator.startswith("exec:"):
        try:
            evaluator = search_engine.ExternalEvaluator(
                args.evaluator[len("exec:") :], timeout=args.timeout
            )
        except ValueError as exc:  # an empty command, or one that does not split
            raise _UsageError(f"bad evaluator {args.evaluator!r}: {exc}") from exc
    else:
        raise _UsageError(f"unknown evaluator {args.evaluator!r}")

    os.makedirs(args.out, exist_ok=True)
    snapshot_path = os.path.join(args.out, "archive.json")

    with open(history_path, "w", encoding="utf-8") as hist_fh:
        def on_eval(cand, archive):
            hist_fh.write(data_io.candidate_line(cand) + "\n")
            hist_fh.flush()
            print(
                f"eval {cand.eval_id}: flops={cand.flops} score={cand.score} "
                f"front={len(archive.members)}",
                file=sys.stderr,
            )

        archive = search_engine.run_search(config, evaluator, on_eval=on_eval)
    with open(history_path, encoding="utf-8") as fh:
        data_io.snapshot_archive(archive, fh, snapshot_path)
    front_path = os.path.join(args.out, "front.csv")
    data_io.export_front_csv(archive, front_path)
    doc = {"evaluations": archive.evaluations, "front_size": len(archive.members),
           "archive": snapshot_path, "front": front_path, "history": history_path}
    print(json.dumps(doc, allow_nan=False) if args.json else
          f"{archive.evaluations} evaluations, front size {len(archive.members)}\n"
          f"wrote {snapshot_path}, {front_path}, {history_path}")
    return 0


def _check_file_id(image_id, written):
    """An `image_id` names its scene's `.lines.txt` file: it must be a
    plain file name (not empty, `.` or `..`, no path separator or NUL)
    that no earlier scene used. `written` holds the ids used so far."""
    if image_id in ("", ".", "..") or any(c in image_id for c in ("/", os.sep, "\0")):
        raise SchemaError("image_id", f"{image_id!r} cannot name a .lines.txt file")
    if image_id in written:
        raise SchemaError("image_id", f"{image_id!r} names an earlier scene's file too")
    written.add(image_id)


def cmd_blend(args):
    # a level missing from `per_level`, every level without `--params`, is masked by the identity
    params = (data_io.read_json(args.params, data_io.blend_from_json) if args.params
              else BlendParamSet(per_level={}))
    if args.plain_nms:
        params = point_blend.plain_nms_params(params)
    # only `--out` and `--json` keep every scene's lanes; else scenes stream through
    out_doc = {"version": data_io.FORMAT_VERSION, "scenes": []} if args.out or args.json else None
    n_scenes = n_lanes = 0
    written = set()
    for n_scenes, (where, image_id, proposals) in enumerate(
            data_io.read_proposals(args.proposals), 1):
        try:
            lanes = point_blend.postprocess(point_blend.LaneTable(proposals), params)
            if args.culane_out:
                _check_file_id(image_id, written)
        except SchemaError as exc:  # a fault of this scene, reported at its line
            raise SchemaError(where, str(exc)) from exc
        n_lanes += len(lanes)
        if out_doc is not None:
            # points stay (n, 2) arrays until written; lists of pairs take several times the memory
            out_doc["scenes"].append({
                "image_id": image_id,
                "lanes": [{"score": score, "points": points} for score, points in lanes],
            })
        if args.culane_out:
            os.makedirs(args.culane_out, exist_ok=True)
            data_io.write_culane_lines(
                os.path.join(args.culane_out, f"{image_id}.lines.txt"),
                [points for _, points in lanes],
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out_doc, fh, default=np.ndarray.tolist, allow_nan=False)
    if args.json:
        print(json.dumps(out_doc, default=np.ndarray.tolist, allow_nan=False))
    else:
        print(f"{n_scenes} scenes, {n_lanes} lanes")
    return 0


def _paired_lane_files(pred_dir, gt_dir):
    gt_files = sorted(f for f in os.listdir(gt_dir) if f.endswith(".lines.txt"))
    if not gt_files:
        raise LaneNasError(f"no .lines.txt files under {gt_dir}")
    pairs = []
    for name in gt_files:
        pred_path = os.path.join(pred_dir, name)
        if not os.path.exists(pred_path):
            raise LaneNasError(f"missing prediction file: {pred_path}")
        pairs.append((pred_path, os.path.join(gt_dir, name)))
    return pairs


def cmd_eval_f1(args):
    if not 0 < args.width <= sys.float_info.max:  # lanes are drawn in floats
        raise _UsageError(f"--width must be positive and convert to a finite float, got {args.width}")
    if not 0.0 <= args.iou < 1.0:
        raise _UsageError(f"--iou must be in [0, 1), got {args.iou}")
    canvas = _parse_resolution(args.canvas, "--canvas")
    pairs = _paired_lane_files(args.pred, args.gt)
    # read lazily, so one scene's lanes are held at a time
    report = match_and_score(
        (data_io.read_culane_lines(pred_path) for pred_path, _ in pairs),
        (data_io.read_culane_lines(gt_path) for _, gt_path in pairs),
        iou_threshold=args.iou,
        width=args.width,
        canvas=canvas,
    )
    doc = {
        "tp": report.tp,
        "fp": report.fp,
        "fn": report.fn,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "scenes": len(report.per_scene),
    }
    print(json.dumps(doc, allow_nan=False) if args.json else f"F1 {report.f1:.4f} "
          f"(P {report.precision:.4f}, R {report.recall:.4f}, "
          f"tp {report.tp}, fp {report.fp}, fn {report.fn})")
    return 0


def cmd_eval_tusimple(args):
    if not args.tolerance > 0:  # a point counts when |dx| < tolerance, so 0 counts none
        raise _UsageError(f"--tolerance must be positive, got {args.tolerance}")
    pairs = _paired_lane_files(args.pred, args.gt)
    correct = total = 0
    for pred_path, gt_path in pairs:
        c, n = tusimple_counts(
            data_io.read_culane_lines(pred_path),
            data_io.read_culane_lines(gt_path),
            x_tolerance=args.tolerance,
        )
        correct += c
        total += n
    acc = 1.0 if total == 0 else correct / total
    doc = {"accuracy": acc, "correct_points": correct, "gt_points": total}
    print(json.dumps(doc, allow_nan=False) if args.json else
          f"accuracy {acc:.4f} ({correct}/{total})")
    return 0


def cmd_gen_synth(args):
    try:
        cfg = SynthSceneConfig(
            num_scenes=args.num_scenes,
            remote_noise_sigma=args.noise,
            lanes_per_scene=args.lanes,
            seed=args.seed,
        )
    except ValueError as exc:  # a flag out of range
        raise _UsageError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    gt_dir = os.path.join(args.out, "gt")
    os.makedirs(gt_dir, exist_ok=True)
    proposals_path = os.path.join(args.out, "proposals.jsonl")
    n_scenes = 0

    def scenes():
        # one scene at a time: its ground truth goes out with its proposals line
        nonlocal n_scenes
        for n_scenes, (props, rec) in enumerate(synth.generate_synthetic_scenes(cfg), 1):
            data_io.write_culane_lines(
                os.path.join(gt_dir, f"{rec.image_id}.lines.txt"), rec.gt_lanes
            )
            yield rec.image_id, props

    data_io.write_proposals(proposals_path, scenes())
    doc = {"proposals": proposals_path, "gt_dir": gt_dir, "scenes": n_scenes}
    print(json.dumps(doc, allow_nan=False) if args.json else
          f"wrote {n_scenes} scenes to {proposals_path} and {gt_dir}/")
    return 0


def cmd_pareto_export(args):
    archive = data_io.load_archive(args.archive)
    data_io.export_front_csv(archive, args.out)
    doc = {"front_size": len(archive.members), "out": args.out}
    print(json.dumps(doc, allow_nan=False) if args.json else
          f"exported {len(archive.members)} front members to {args.out}")
    return 0


def build_parser():
    parser = _Parser(prog="lanenas")
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("parse-arch", cmd_parse_arch, help="parse a backbone encoding string")
    p.add_argument("encoding")

    p = add("cost", cmd_cost, help="FLOPS/params for a candidate")
    p.add_argument("encoding")
    p.add_argument("--resolution", default=f"{DEFAULT_RESOLUTION[0]}x{DEFAULT_RESOLUTION[1]}")
    p.add_argument("--fusion", help="fusion spec JSON file (default: built-in two-layer fusion)")

    add("space-size", cmd_space_size, help="search-space cardinality with assumptions")

    p = add("search", cmd_search, help="run the multi-objective search")
    p.add_argument("--budget", type=int, default=SearchConfig.budget)
    p.add_argument("--init-population", type=int, default=SearchConfig.init_population)
    p.add_argument("--workers", type=int, default=SearchConfig.workers)
    p.add_argument("--seed", type=int, default=SearchConfig.seed)
    p.add_argument("--evaluator", default="builtin:synthetic",
                   help="builtin:synthetic or exec:<command>")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("--out", required=True)

    p = add("blend", cmd_blend, help="post-process a proposals dump into lanes")
    p.add_argument("--proposals", required=True)
    p.add_argument("--params", help="BlendParamSet JSON file (default: identity mask)")
    p.add_argument("--plain-nms", action="store_true",
                   help="identity mask + infinite locality (classic Line-NMS)")
    p.add_argument("--out")
    p.add_argument("--culane-out", help="also write per-scene .lines.txt files here")

    p = add("eval-f1", cmd_eval_f1, help="IoU-matched F1 over .lines.txt dirs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou", type=float, default=DEFAULT_IOU_THRESHOLD)
    p.add_argument("--width", type=int, default=DEFAULT_LANE_WIDTH)
    p.add_argument("--canvas", default=f"{DEFAULT_CANVAS[0]}x{DEFAULT_CANVAS[1]}")

    p = add("eval-tusimple", cmd_eval_tusimple, help="point accuracy over .lines.txt dirs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_X_TOLERANCE)

    p = add("gen-synth", cmd_gen_synth, help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--num-scenes", type=int, default=SynthSceneConfig.num_scenes)
    p.add_argument("--noise", type=float, default=SynthSceneConfig.remote_noise_sigma)
    p.add_argument("--lanes", type=int, default=SynthSceneConfig.lanes_per_scene)
    p.add_argument("--seed", type=int, default=SynthSceneConfig.seed)

    p = add("pareto-export", cmd_pareto_export, help="archive snapshot to front CSV")
    p.add_argument("--archive", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except (LaneNasError, OSError) as exc:
        # an OSError names the file it could not read or create
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
