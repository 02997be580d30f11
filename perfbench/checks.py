"""Output checks for the three workloads.

Each check returns a list of problems (empty when the output is right).
The checks derive what is right from the inputs or from properties the
method must have: a brute-force Pareto filter, the CULane identities
tp + fn = ground-truth lanes and tp + fp = predicted lanes, an
independent proposal decoder and rasterizer, and the inner search's
no-regression guarantee. None compares against a stored copy of output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# ---------------------------------------------------------------------------
# search


def brute_force_front(entries):
    """eval_ids of the scored entries that no other scored entry dominates
    (no worse on FLOPS and score, strictly better on one)."""
    scored = [e for e in entries if e["score"] is not None]
    flops = np.array([e["flops"] for e in scored], dtype=np.float64)
    score = np.array([e["score"] for e in scored], dtype=np.float64)
    front = set()
    for e, f, s in zip(scored, flops, score):
        dominated = (flops <= f) & (score >= s) & ((flops < f) | (score > s))
        if not dominated.any():
            front.add(e["eval_id"])
    return front


def check_search(out_dir, expected_entries, load_archive):
    """`load_archive` is the program's reloader, checked for round trips."""
    problems = []
    with open(os.path.join(out_dir, "history.jsonl")) as fh:
        history = [json.loads(line) for line in fh if line.strip()]
    ids = [h["eval_id"] for h in history]
    if ids != [f"e{i:06d}" for i in range(len(ids))]:
        problems.append("history eval_ids are not unique and consecutive")
    if len(history) != expected_entries:
        problems.append(
            f"history holds {len(history)} entries, expected {expected_entries}"
        )
    bad = [h["eval_id"] for h in history
           if h["score"] is not None and not 0.0 <= h["score"] <= 1.0]
    if bad:
        problems.append(f"scores outside [0, 1]: {bad[:3]}")

    want = brute_force_front(history)
    archive_path = os.path.join(out_dir, "archive.json")
    with open(archive_path) as fh:
        saved = {m["eval_id"] for m in json.load(fh)["members"]}
    if saved != want:
        problems.append(
            f"saved front differs from the brute-force front: "
            f"{len(saved - want)} extra, {len(want - saved)} missing"
        )
    reloaded = {m.eval_id for m in load_archive(archive_path).members}
    if reloaded != saved:
        problems.append("archive.json does not reload to the saved front")
    with open(os.path.join(out_dir, "front.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(saved) or {r["eval_id"] for r in rows} != saved:
        problems.append(
            f"front.csv has {len(rows)} rows for {len(saved)} front members"
        )
    return problems


def failed_evaluations(out_dir):
    with open(os.path.join(out_dir, "history.jsonl")) as fh:
        return sum(1 for line in fh if line.strip() and json.loads(line)["score"] is None)


# ---------------------------------------------------------------------------
# lanes


def read_lane_tokens(path):
    """Per lane, the (x, y) token pairs exactly as written."""
    lanes = []
    with open(path) as fh:
        for line in fh:
            toks = line.split()
            if toks:
                lanes.append(list(zip(toks[0::2], toks[1::2])))
    return lanes


def lane_points(tokens):
    """Float polyline from token pairs, CULane convention: negative x
    marks a missing point, points are ordered by y."""
    pts = [(float(x), float(y)) for x, y in tokens]
    return sorted((p for p in pts if p[0] >= 0), key=lambda p: p[1])


def decoded_points(proposals_path):
    """image_id -> every point any proposal cell decodes to, formatted to
    the 4 decimals the CULane files keep."""
    out = {}
    with open(proposals_path) as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            rows = doc["layout"]["rows"]
            pts = set()
            for head in doc["heads"]:
                for cell in head["cells"]:
                    for y, dx in zip(rows, cell["offsets"]):
                        if y >= cell["end_y"] and dx is not None:
                            pts.add((f"{cell['cx'] + dx:.4f}", f"{y:.4f}"))
            out[doc["image_id"]] = pts
    return out


def brute_force_mask(points, radius, canvas):
    """Pixels whose center lies within `radius` of some segment. Every
    pixel of the lane's bounding box grown by `radius` is tested against
    every segment; pixels outside that box are farther than `radius` from
    all points, so the result covers the full canvas."""
    w, h = canvas
    mask = np.zeros((h, w), dtype=bool)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo = max(math.floor(min(xs) - radius), 0)
    x_hi = min(math.ceil(max(xs) + radius), w - 1)
    y_lo = max(math.floor(min(ys) - radius), 0)
    y_hi = min(math.ceil(max(ys) + radius), h - 1)
    if x_hi < x_lo or y_hi < y_lo:
        return mask
    px = np.arange(x_lo, x_hi + 1, dtype=np.float64)[None, :]
    py = np.arange(y_lo, y_hi + 1, dtype=np.float64)[:, None]
    hit = np.zeros((y_hi - y_lo + 1, x_hi - x_lo + 1), dtype=bool)
    r2 = radius * radius
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        dx, dy = x2 - x1, y2 - y1
        l2 = dx * dx + dy * dy
        if l2 > 0.0:
            t = np.clip(((px - x1) * dx + (py - y1) * dy) / l2, 0.0, 1.0)
        else:
            t = np.zeros_like(hit, dtype=np.float64)
        ex = x1 + t * dx - px
        ey = y1 + t * dy - py
        hit |= ex * ex + ey * ey <= r2
    mask[y_lo : y_hi + 1, x_lo : x_hi + 1] = hit
    return mask


def brute_force_counts(pred, gt, width, canvas, iou_threshold):
    """(tp, fp, fn) by greedy one-to-one matching in descending IoU order,
    IoU strictly above the threshold (the CULane protocol)."""
    pm = [brute_force_mask(p, width / 2.0, canvas) for p in pred]
    gm = [brute_force_mask(g, width / 2.0, canvas) for g in gt]
    pairs = []
    for i, a in enumerate(pm):
        for j, b in enumerate(gm):
            union = np.count_nonzero(a | b)
            iou = np.count_nonzero(a & b) / union if union else 0.0
            if iou > iou_threshold:
                pairs.append((-iou, i, j))
    used_p, used_g = set(), set()
    for _, i, j in sorted(pairs):
        if i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
    tp = len(used_p)
    return tp, len(pred) - tp, len(gt) - tp


def check_lanes(corpus_dir, pred_dir, report, subsample, score_scene,
                width, canvas, iou_threshold):
    """`report` is eval-f1's JSON; `subsample` lists image_ids whose
    matches are recomputed by brute force and compared with the program's
    `score_scene` on the same files."""
    problems = []
    gt_dir = os.path.join(corpus_dir, "gt")
    names = sorted(f for f in os.listdir(gt_dir) if f.endswith(".lines.txt"))
    gt = {n: read_lane_tokens(os.path.join(gt_dir, n)) for n in names}
    pred = {n: read_lane_tokens(os.path.join(pred_dir, n)) for n in names}
    n_gt = sum(len(v) for v in gt.values())
    n_pred = sum(len(v) for v in pred.values())
    if report["scenes"] != len(names):
        problems.append(f"eval-f1 scored {report['scenes']} of {len(names)} scenes")
    if report["tp"] + report["fn"] != n_gt:
        problems.append(f"tp + fn = {report['tp'] + report['fn']}, ground truth has {n_gt} lanes")
    if report["tp"] + report["fp"] != n_pred:
        problems.append(f"tp + fp = {report['tp'] + report['fp']}, blend wrote {n_pred} lanes")

    decoded = decoded_points(os.path.join(corpus_dir, "proposals.jsonl"))
    for name, lanes in pred.items():
        allowed = decoded.get(name[: -len(".lines.txt")], set())
        stray = [p for lane in lanes for p in lane if p not in allowed]
        if stray:
            problems.append(f"{name}: predicted point {stray[0]} is no decoded proposal point")
            break

    for image_id in subsample:
        name = f"{image_id}.lines.txt"
        p = [lane_points(t) for t in pred[name]]
        g = [lane_points(t) for t in gt[name]]
        want = brute_force_counts(p, g, width, canvas, iou_threshold)
        got = score_scene(p, g, iou_threshold, width, canvas)
        if (got.tp, got.fp, got.fn) != want:
            problems.append(
                f"{name}: program counts {(got.tp, got.fp, got.fn)}, brute force {want}"
            )
    return problems


# ---------------------------------------------------------------------------
# blend-inner


def check_blend_inner(score, init, best, plain, budget, steps, evaluations):
    """`score(params)` is the inner search's objective on the workload's
    scenes; `plain` is `init` reduced to plain Line-NMS."""
    problems = []
    s_init, s_best, s_plain = score(init), score(best), score(plain)
    if s_best < s_init:
        problems.append(f"returned parameters score {s_best} below the initial {s_init}")
    if not s_init > s_plain:
        problems.append(f"identity-mask blend F1 {s_init} is not above plain Line-NMS {s_plain}")
    if steps != budget:
        problems.append(f"{steps} inner-search steps for a budget of {budget}")
    if evaluations != budget + 1:
        problems.append(f"{evaluations} evaluations for a budget of {budget} (expected budget + 1)")
    return problems
