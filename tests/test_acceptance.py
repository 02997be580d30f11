"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import json
import math
import time

import numpy as np

from lanenas.arch_space import (
    ArchEncoding,
    BlockKind,
    FusionLayer,
    FusionSpec,
    SpaceConfig,
    parse_backbone,
    random_backbone,
    random_fusion,
    serialize_backbone,
    space_cardinality,
)
from lanenas.cli import main as cli_main
from lanenas.cost_model import candidate_cost
from lanenas.metrics import match_and_score, rasterize_lane
from lanenas.point_blend import (
    BlendParamSet,
    BlendParams,
    LaneTable,
    mask_logit,
    plain_nms_params,
    postprocess,
)
from lanenas.search_engine import (
    Candidate,
    ParetoArchive,
    SearchConfig,
    SyntheticEvaluator,
    run_search,
)
from lanenas.synth import SynthSceneConfig, generate_synthetic_scenes

from blend_oracle import decode_all, line_distance
from block_oracle import enumerate_backbones
from conftest import make_arch
from test_cost_model import oracle_cost
from test_metrics import lane_iou, oracle_mask, random_polyline


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_encoding_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        spec = random_backbone(rng)
        assert parse_backbone(serialize_backbone(spec)) == spec
    paper = parse_backbone("BB_64_13_[5,9]_[7,12]")
    fields_ok = (
        paper.block_kind is BlockKind.BOTTLENECK
        and paper.base_channels == 64
        and paper.num_blocks == 13
        and paper.downsample_at == (5, 9)
        and paper.double_channels_at == (7, 12)
    )
    elapsed = time.time() - t0
    report(
        1,
        fields_ok and elapsed < 5.0,
        f"10^4 round-trips + literal-string fields in {elapsed:.2f}s (< 5 s)",
    )


def test_criterion_2_cost_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    for _ in range(100):
        bb = random_backbone(rng)
        arch = ArchEncoding(bb, random_fusion(rng, bb.num_stages))
        got = candidate_cost(arch, (512, 288))
        expect = oracle_cost(arch, (512, 288))
        assert (got.total_flops, got.total_params) == expect
    elapsed = time.time() - t0
    report(2, elapsed < 10.0, f"100 architectures exact vs oracle in {elapsed:.2f}s (< 10 s)")


def sweep_non_dominated(pairs):
    """Exact non-dominated filter via a sorted sweep (independent of the
    incremental archive logic)."""
    arr = np.array(pairs, dtype=float)
    order = np.lexsort((-arr[:, 1], arr[:, 0]))
    dominated = np.zeros(len(arr), dtype=bool)
    best_strictly_cheaper = -np.inf   # max score at strictly smaller flops
    best_leq = -np.inf                # max score at flops <= current
    i = 0
    while i < len(order):
        j = i
        f = arr[order[i], 0]
        while j < len(order) and arr[order[j], 0] == f:
            j += 1
        block = order[i:j]
        scores = arr[block, 1]
        dominated[block] = (scores <= best_strictly_cheaper) | (scores < scores.max())
        best_leq = max(best_leq, scores.max())
        best_strictly_cheaper = best_leq
        i = j
    return dominated


def test_criterion_3_pareto_correctness():
    t0 = time.time()
    rng = np.random.default_rng(303)
    arch = make_arch()
    archive = ParetoArchive()
    n = 100_000
    flops = rng.integers(1, 10_000, size=n)
    scores = np.round(rng.random(size=n), 3)
    for i in range(n):
        archive.insert(
            Candidate(arch, int(flops[i]), float(scores[i]), f"e{i}")
        )
    dominated = sweep_non_dominated(list(zip(flops.tolist(), scores.tolist())))
    expected = {
        (int(flops[i]), float(scores[i])) for i in range(n) if not dominated[i]
    }
    # count multiplicity: every history entry with a non-dominated pair is a member
    expected_ids = {
        f"e{i}" for i in range(n) if (int(flops[i]), float(scores[i])) in expected
    }
    got_ids = {c.eval_id for c in archive.members}

    # cross-check the sweep against a quadratic scan on a subsample
    sub = rng.choice(n, size=2000, replace=False)
    for i in sub:
        quad = np.any(
            (flops <= flops[i])
            & (scores >= scores[i])
            & ((flops < flops[i]) | (scores > scores[i]))
        )
        assert bool(dominated[i]) == bool(quad)

    elapsed = time.time() - t0
    report(
        3,
        got_ids == expected_ids and elapsed < 30.0,
        f"10^5 insertions: members == brute-force set "
        f"({len(got_ids)} members) in {elapsed:.1f}s (< 30 s)",
    )


REDUCED_SPACE = SpaceConfig(
    block_kinds=(BlockKind.BASIC, BlockKind.BOTTLENECK),
    base_channels=(48, 64),
    num_blocks_range=(10, 15),
    stage_list_lens=(2,),
)
FIXED_FUSION = FusionSpec(
    layers=(FusionLayer(1, 3, 1), FusionLayer(2, 3, 2)), heads_at=frozenset({1})
)


def test_criterion_4_search_efficacy():
    t0 = time.time()
    evaluator = SyntheticEvaluator()
    pts = []
    for bb in enumerate_backbones(REDUCED_SPACE):
        arch = ArchEncoding(bb, FIXED_FUSION)
        cost = candidate_cost(arch, (512, 288))
        pts.append((cost.total_flops, evaluator.evaluate(arch, "oracle", cost)))
    assert len(pts) > 50_000  # ~10^5 genomes
    pts.sort(key=lambda t: (t[0], -t[1]))
    true_front, best = set(), -1.0
    for f, s in pts:
        if s > best:
            true_front.add((f, s))
            best = s

    recoveries = []
    for seed in range(5):
        cfg = SearchConfig(
            budget=2000,
            init_population=16,
            workers=1,
            seed=seed,
            space=REDUCED_SPACE,
            fixed_fusion=FIXED_FUSION,
        )
        archive = run_search(cfg, evaluator)
        got = {(c.flops, c.score) for c in archive.members}
        recoveries.append(len(true_front & got) / len(true_front))
    avg = sum(recoveries) / len(recoveries)
    elapsed = time.time() - t0
    report(
        4,
        avg >= 0.80 and elapsed < 120.0,
        f"front recovery avg {avg:.1%} over 5 seeds "
        f"(true front {len(true_front)} pts, space {len(pts)}) in {elapsed:.0f}s (< 2 min)",
    )


def test_criterion_5_mask_equation_fidelity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10_000):
        a1, b1, a2 = (float(v) for v in rng.normal(size=3))
        ux, uy, cx, cy = (float(v) for v in rng.uniform(-500, 2500, size=4))
        independent = a1 * cy + b1 + a2 * ((cx - ux) ** 2 + (cy - uy) ** 2) ** 0.5
        got = mask_logit(BlendParams(a1, b1, a2, (ux, uy)), (cx, cy))
        worst = max(worst, abs(got - independent))
    examples_ok = (
        mask_logit(BlendParams(0.0, 0.7, 0.0), (123.0, 45.0)) == 0.7
        and mask_logit(BlendParams(0.01, -1.0, 0.0), (250.0, 100.0)) == 0.0
        and mask_logit(BlendParams(0.0, 0.0, -0.02, (256.0, 144.0)), (256.0, 44.0))
        == -2.0
    )
    report(
        5,
        worst < 1e-12 and examples_ok,
        f"10^4 random inputs |delta| max {worst:.2e} (< 1e-12); worked examples exact",
    )


def reference_plain_line_nms(proposals, score_threshold, group_distance):
    """Independent classic Line-NMS: decode, sort by confidence, keep a
    line when it is at least the distance threshold from every kept one."""
    lines = decode_all(proposals, score_threshold)
    order = sorted(range(len(lines)), key=lambda i: (-lines[i].score, i))
    kept = []
    for i in order:
        if all(line_distance(lines[i], k) >= group_distance for k in kept):
            kept.append(lines[i])
    return kept


def lanes_to_bytes(lanes):
    """`(score, points)` pairs as JSON bytes."""
    return json.dumps(
        [
            {"score": score, "points": [[x, y] for x, y in points]}
            for score, points in lanes
        ]
    ).encode()


def test_criterion_6_plain_nms_reduction():
    cfg = SynthSceneConfig(num_scenes=500, remote_noise_sigma=20.0, seed=606)
    scenes = generate_synthetic_scenes(cfg)
    params = plain_nms_params(
        BlendParamSet.identity([1, 2], score_threshold=0.3, group_distance=60.0)
    )
    mismatches = 0
    for proposals, _ in scenes:
        lanes = postprocess(LaneTable(proposals), params)
        ours = [(score, points.tolist()) for score, points in lanes]
        ref = [(l.score, l.points) for l in reference_plain_line_nms(proposals, 0.3, 60.0)]
        if lanes_to_bytes(ours) != lanes_to_bytes(ref):
            mismatches += 1
    report(
        6,
        mismatches == 0,
        f"500 scenes byte-identical to reference plain Line-NMS "
        f"({mismatches} mismatches)",
    )


def corpus_f1(scenes, params):
    canvas = scenes[0][0].layout.image_size
    preds = [[points for _, points in postprocess(LaneTable(props), params)] for props, _ in scenes]
    gts = [rec.gt_lanes for _, rec in scenes]
    return match_and_score(preds, gts, canvas=canvas)


def test_criterion_7_blending_benefit():
    t0 = time.time()
    params = BlendParamSet.identity(
        [1, 2], score_threshold=0.3, group_distance=60.0, locality_sigma=60.0
    )
    plain = plain_nms_params(params)

    noisy = list(generate_synthetic_scenes(
        SynthSceneConfig(num_scenes=50, remote_noise_sigma=20.0, seed=707)
    ))
    blended_rep = corpus_f1(noisy, params)
    plain_rep = corpus_f1(noisy, plain)
    improved = sum(
        1
        for a, b in zip(blended_rep.per_scene, plain_rep.per_scene)
        if a.f1 > b.f1
    )

    clean = list(generate_synthetic_scenes(
        SynthSceneConfig(num_scenes=20, remote_noise_sigma=0.0, seed=708)
    ))
    clean_blend = corpus_f1(clean, params)
    clean_plain = corpus_f1(clean, plain)
    elapsed = time.time() - t0
    report(
        7,
        blended_rep.f1 > plain_rep.f1
        and improved >= 0.6 * len(noisy)
        and clean_blend.f1 == 1.0
        and clean_plain.f1 == 1.0
        and elapsed < 60.0,
        f"sigma=20: blended F1 {blended_rep.f1:.3f} > plain {plain_rep.f1:.3f}, "
        f"strict per-scene improvement {improved}/{len(noisy)}; "
        f"sigma=0: both 1.0; in {elapsed:.0f}s (< 1 min)",
    )


def test_criterion_8_metric_oracle():
    rng = np.random.default_rng(808)
    canvas = (64, 64)
    for _ in range(200):
        a = random_polyline(rng, canvas)
        b = random_polyline(rng, canvas)
        ma = rasterize_lane(a, width=10, canvas=canvas)
        mb = rasterize_lane(b, width=10, canvas=canvas)
        oa = oracle_mask(a, 10, canvas)
        ob = oracle_mask(b, 10, canvas)
        assert np.array_equal(ma, oa) and np.array_equal(mb, ob)
        union = np.count_nonzero(oa | ob)
        expected_iou = np.count_nonzero(oa & ob) / union if union else 0.0
        assert lane_iou(a, b, width=10, canvas=canvas) == expected_iou

    # F1 formula cases against hand-computed values
    vertical = lambda x: [(float(x), 10.0), (float(x), 280.0)]
    cases_ok = True
    rep = match_and_score([[vertical(100)]], [[vertical(100)]], canvas=(512, 288))
    cases_ok &= abs(rep.f1 - 1.0) < 1e-9
    rep = match_and_score(
        [[vertical(100), vertical(102)]], [[vertical(100)]], canvas=(512, 288)
    )
    cases_ok &= abs(rep.f1 - 2 * (0.5 * 1.0) / 1.5) < 1e-9
    rep = match_and_score([[]], [[vertical(100), vertical(300)]], canvas=(512, 288))
    cases_ok &= abs(rep.f1 - 0.0) < 1e-9
    report(
        8,
        cases_ok,
        "200 rasterized IoU pairs exact vs pixel oracle; F1 formula cases within 1e-9",
    )


def test_criterion_9_search_determinism(tmp_path):
    blobs = []
    for name in ("runA", "runB"):
        out_dir = tmp_path / name
        code = cli_main(
            [
                "search",
                "--budget",
                "40",
                "--init-population",
                "8",
                "--workers",
                "1",
                "--seed",
                "1234",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        blobs.append((out_dir / "history.jsonl").read_bytes())
    report(
        9,
        blobs[0] == blobs[1],
        "two `search --workers 1 --seed 1234` runs: history files byte-identical",
    )


def test_criterion_10_cardinality_sanity():
    rep = space_cardinality(SpaceConfig())
    backbone_orders = math.log10(5e12 / rep.backbone_count)
    fusion_orders = math.log10(rep.fusion_count / 1e3)
    # reported, not hard-failed: the published figures' counting basis is
    # not stated, so only the report's existence is asserted
    report(
        10,
        rep.backbone_count > 0 and rep.fusion_count > 0 and len(rep.assumptions) >= 5,
        f"backbone {rep.backbone_count:.3e} ({backbone_orders:+.2f} orders from 5e12), "
        f"fusion {rep.fusion_count} ({fusion_orders:+.2f} orders from 1e3), "
        f"{len(rep.assumptions)} assumptions reported",
    )
