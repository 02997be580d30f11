"""Tests of the benchmark itself: python3 -m pytest perfbench -q

A tiny run of every workload must pass every check, and each check must
reject a deliberately corrupted output.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lanenas import data_io, metrics, search_engine  # noqa: E402
from lanenas.point_blend import plain_nms_params  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EVAL_CANVAS,
    IOU_THRESHOLD,
    LANE_WIDTH,
    LAYER_METRICS,
    SIZES,
    WORKLOADS,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run_bench(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_passes_every_check(workload):
    result = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_counts_repeat():
    first, second = run_bench("search", trace=1), run_bench("search", trace=1)
    assert first["correct"] and second["correct"]
    assert {m: v["unit"] for m, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    counts = [m for m, v in first["metrics"].items() if v["unit"] != "s"]
    assert counts and all(first["metrics"][m] == second["metrics"][m] for m in counts)
    assert first["metrics"]["search_engine.evals"]["value"] == 48


def test_layer_table_matches_benchmark_json():
    assert [(n, u) for n, u, _, _ in LAYER_METRICS] == [
        (m["name"], m["unit"]) for m in BENCH["per_layer"]
    ]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(ROOT, "perfbench", name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def finished(name, tmp_path, seed=3):
    workload = WORKLOADS[name](seed, SIZES["tiny"], str(tmp_path))
    workload.prepare()
    workload.reset()
    workload.run(None)
    return workload


def test_search_check_rejects_a_dominated_member(tmp_path):
    workload = finished("search", tmp_path)
    assert workload.check() == (0, [])
    path = os.path.join(workload.out, "archive.json")
    with open(path) as fh:
        doc = json.load(fh)
    front = {m["eval_id"] for m in doc["members"]}
    doc["members"].append(next(h for h in doc["history"] if h["eval_id"] not in front))
    with open(path, "w") as fh:
        json.dump(doc, fh)
    problems = checks.check_search(workload.out, 48, data_io.load_archive)
    assert any("brute-force front" in p for p in problems)


def test_brute_force_front_keeps_ties_and_drops_dominated():
    entries = [
        {"eval_id": "a", "flops": 1, "score": 0.5},
        {"eval_id": "b", "flops": 1, "score": 0.5},
        {"eval_id": "c", "flops": 2, "score": 0.5},
        {"eval_id": "d", "flops": 3, "score": 0.9},
        {"eval_id": "e", "flops": 3, "score": None},
    ]
    assert checks.brute_force_front(entries) == {"a", "b", "d"}


def lanes_problems(workload):
    return checks.check_lanes(
        workload.corpus, workload.pred, workload.report, ["synth_00000", "synth_00001"],
        metrics.score_scene, LANE_WIDTH, EVAL_CANVAS, IOU_THRESHOLD,
    )


def test_lanes_check_rejects_a_dropped_ground_truth_lane(tmp_path):
    workload = finished("lanes", tmp_path)
    assert workload.check() == (0, [])
    path = os.path.join(workload.corpus, "gt", "synth_00000.lines.txt")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[1:])
    assert any("ground truth has" in p for p in lanes_problems(workload))


def test_lanes_check_rejects_a_moved_prediction_point(tmp_path):
    workload = finished("lanes", tmp_path)
    path = os.path.join(workload.pred, "synth_00002.lines.txt")
    with open(path) as fh:
        lines = fh.read().split("\n")
    toks = lines[0].split()
    toks[0] = f"{float(toks[0]) + 0.5:.4f}"
    lines[0] = " ".join(toks)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    assert any("no decoded proposal point" in p for p in lanes_problems(workload))


def test_brute_force_mask_matches_the_program_rasterizer():
    rng = np.random.default_rng(17)
    for _ in range(20):
        ys = np.sort(rng.uniform(-20, 300, size=5))
        pts = [(float(x), float(y)) for x, y in zip(rng.uniform(-20, 530, size=5), ys)]
        want = metrics.rasterize_lane(pts, width=LANE_WIDTH, canvas=(512, 288))
        assert np.array_equal(checks.brute_force_mask(pts, LANE_WIDTH / 2.0, (512, 288)), want)


def test_blend_inner_check_rejects_parameters_below_the_initial_ones(tmp_path):
    workload = finished("blend-inner", tmp_path)
    assert workload.check() == (0, [])

    def score(params):
        return search_engine.evaluate_blend_params(workload.scenes, params, LANE_WIDTH)

    worse = plain_nms_params(workload.init)
    budget = SIZES["tiny"].inner_steps
    problems = checks.check_blend_inner(score, workload.init, worse, worse, budget,
                                        budget, budget + 1)
    assert any("below the initial" in p for p in problems)
