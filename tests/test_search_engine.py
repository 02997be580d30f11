import hashlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanenas import arch_space, data_io, metrics, search_engine
from lanenas.arch_space import (
    BlockKind,
    FusionLayer,
    FusionSpec,
    SpaceConfig,
)
from lanenas.cost_model import candidate_cost
from lanenas.errors import (
    EmptyArchiveError,
    EmptyDatasetError,
    ProtocolError,
    SpawnError,
)
from lanenas.metrics import SceneScorer, match_and_score, score_scene
from lanenas.point_blend import (
    BlendParams,
    BlendParamSet,
    BlendParamSpace,
    LaneTable,
    perturb,
    plain_nms_params,
    postprocess,
)
from lanenas.search_engine import (
    BlendScenes,
    Candidate,
    ExternalEvaluator,
    InnerSearchConfig,
    ParetoArchive,
    SearchConfig,
    SyntheticEvaluator,
    dominates,
    evaluate_blend_params,
    run_blend_inner_search,
    run_search,
)
from lanenas.synth import SynthSceneConfig, generate_synthetic_scenes
from blend_oracle import postprocess as oracle_postprocess
from block_oracle import enumerate_backbones
from conftest import make_arch


def evaluate(evaluator, arch, eval_id="e000000"):
    """One direct evaluation, priced the way `run_search` prices it."""
    return evaluator.evaluate(arch, eval_id, candidate_cost(arch, (512, 288)))


def cand(flops, score, eval_id, arch=None):
    return Candidate(
        arch=arch or make_arch(), flops=flops, score=score, eval_id=eval_id
    )


def insert_all(candidates):
    """A new archive with `candidates` inserted in order."""
    archive = ParetoArchive()
    for c in candidates:
        archive.insert(c)
    return archive


def run_logged(config, evaluator):
    """`run_search` and its history: the candidates `on_eval` received,
    in order, as many as the archive counts."""
    history = []
    archive = run_search(config, evaluator, on_eval=lambda c, _: history.append(c))
    assert archive.evaluations == len(history)
    return archive, history


def brute_force_front(candidates):
    evaluated = [c for c in candidates if c.score is not None]
    return {
        c.eval_id
        for c in evaluated
        if not any(dominates(o, c) for o in evaluated)
    }


def hypervolume(members, ref_flops, ref_score=0.0):
    """2-D hypervolume of a front against a (flops upper, score lower)
    reference."""
    pts = sorted((m.flops, m.score) for m in members)
    hv, prev_score = 0.0, ref_score
    for f, s in pts:
        if f >= ref_flops or s <= prev_score:
            continue
        hv += (ref_flops - f) * (s - prev_score)
        prev_score = s
    return hv


class TestArchive:
    def test_strict_domination_replaces(self):
        a = ParetoArchive()
        a.insert(cand(2, 0.7, "a"))
        a.insert(cand(1, 0.8, "b"))
        assert [c.eval_id for c in a.members] == ["b"]
        assert a.evaluations == 2

    def test_tradeoff_keeps_both(self):
        a = ParetoArchive()
        a.insert(cand(1, 0.8, "a"))
        a.insert(cand(3, 0.9, "b"))
        assert {c.eval_id for c in a.members} == {"a", "b"}

    def test_dominated_insert_ignored(self):
        a = ParetoArchive()
        a.insert(cand(1, 0.8, "a"))
        a.insert(cand(2, 0.7, "b"))
        assert {c.eval_id for c in a.members} == {"a"}
        assert a.evaluations == 2

    def test_failed_eval_logged_not_member(self):
        a = ParetoArchive()
        a.insert(cand(1, None, "fail"))
        assert a.members == []
        assert a.evaluations == 1

    def test_random_insertions_match_brute_force(self):
        rng = np.random.default_rng(2)
        history = [cand(int(rng.integers(1, 1000)), round(float(rng.random()), 3), f"e{i}")
                   for i in range(5000)]
        a = insert_all(history)
        assert {c.eval_id for c in a.members} == brute_force_front(history)

    def test_replay_history_reproduces_archive(self):
        rng = np.random.default_rng(3)
        history = [cand(int(rng.integers(1, 100)), float(rng.random()), f"e{i}")
                   for i in range(500)]
        assert insert_all(history).members == insert_all(history).members

    def test_large_front_matches_brute_force_in_insertion_order(self):
        """On a front of thousands, with equal (FLOPS, score) pairs and
        failed candidates, the members after each batch of inserts are the
        inserted candidates that no other dominates, in insertion order:
        `select_parent` draws by position, so the order fixes the RNG
        stream of a seeded search."""
        rng = np.random.default_rng(7)
        flops = rng.choice(np.arange(1, 10**6), size=2200, replace=False)
        pairs = [(int(f), int(f) / 1e6) for f in flops]  # every pair a trade-off
        picks = rng.choice(len(pairs), size=500).tolist()
        pairs += [pairs[i] for i in picks[:200]]  # equal pairs: both stay
        pairs += [(pairs[i][0] + 1, pairs[i][1] - 0.001) for i in picks[200:400]]
        pairs += [(pairs[i][0], pairs[i][1] + 0.002) for i in picks[400:420]]
        pairs += [(pairs[i][0], None) for i in picks[420:]]  # failed
        history = [cand(f, s, f"e{n}") for n, (f, s) in
                   enumerate(pairs[i] for i in rng.permutation(len(pairs)))]

        def survivors(inserted):
            scored = [c for c in inserted if c.score is not None]
            f = np.array([c.flops for c in scored])
            s = np.array([c.score for c in scored])
            return [c.eval_id for c in scored
                    if not np.any((f <= c.flops) & (s >= c.score)
                                  & ((f < c.flops) | (s > c.score)))]

        a = ParetoArchive()
        for n, c in enumerate(history, start=1):
            a.insert(c)
            if n % 500 == 0 or n == len(history):
                assert [m.eval_id for m in a.members] == survivors(history[:n])
        assert a.evaluations == len(history)
        assert len(a.members) >= 2000
        assert len({(m.flops, m.score) for m in a.members}) < len(a.members)

    def test_never_contains_dominated_member(self):
        rng = np.random.default_rng(4)
        a = ParetoArchive()
        for i in range(1000):
            a.insert(cand(int(rng.integers(1, 50)), float(rng.random()), f"e{i}"))
            for m in a.members:
                assert not any(dominates(o, m) for o in a.members if o is not m)


class TestDominates:
    @settings(max_examples=300)
    @given(st.tuples(st.integers(1, 20), st.floats(0, 1)),
           st.tuples(st.integers(1, 20), st.floats(0, 1)),
           st.tuples(st.integers(1, 20), st.floats(0, 1)))
    def test_strict_partial_order(self, pa, pb, pc):
        a, b, c = (cand(f, s, n) for (f, s), n in zip((pa, pb, pc), "abc"))
        assert not dominates(a, a)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)
        assert not (dominates(a, b) and dominates(b, a))


class TestSelectParent:
    def test_singleton(self, rng):
        a = ParetoArchive()
        a.insert(cand(1, 0.5, "only"))
        assert a.select_parent(rng).eval_id == "only"

    def test_empty_raises(self, rng):
        with pytest.raises(EmptyArchiveError):
            ParetoArchive().select_parent(rng)

    def test_uniform_over_front(self):
        a = ParetoArchive()
        k = 5
        for i in range(k):
            a.insert(cand(i + 1, 0.5 + 0.1 * i, f"e{i}"))
        assert len(a.members) == k
        rng = np.random.default_rng(0)
        n = 10_000
        counts = Counter(a.select_parent(rng).eval_id for _ in range(n))
        p = 1 / k
        sigma = (n * p * (1 - p)) ** 0.5
        for i in range(k):
            assert abs(counts[f"e{i}"] - n * p) <= 3 * sigma

    def test_dominated_history_never_selected(self, rng):
        a = ParetoArchive()
        a.insert(cand(5, 0.5, "dominated"))
        a.insert(cand(1, 0.9, "front"))
        for _ in range(100):
            assert a.select_parent(rng).eval_id == "front"


REDUCED_SPACE = SpaceConfig(
    block_kinds=(BlockKind.BASIC,),
    base_channels=(48, 64),
    num_blocks_range=(10, 12),
    stage_list_lens=(2,),
)
FIXED_FUSION = FusionSpec(
    layers=(FusionLayer(1, 3, 1), FusionLayer(2, 3, 2)), heads_at=frozenset({1})
)


def reduced_config(**kw):
    defaults = dict(
        budget=100,
        init_population=8,
        workers=1,
        seed=0,
        space=REDUCED_SPACE,
        fixed_fusion=FIXED_FUSION,
    )
    defaults.update(kw)
    return SearchConfig(**defaults)


class TestRunSearch:
    def test_budget_zero_is_initial_front(self):
        archive, history = run_logged(reduced_config(budget=0), SyntheticEvaluator())
        assert len(history) == 8
        assert {c.eval_id for c in archive.members} == brute_force_front(history)

    def test_single_worker_deterministic(self):
        a, a_history = run_logged(reduced_config(), SyntheticEvaluator())
        b, b_history = run_logged(reduced_config(), SyntheticEvaluator())
        assert [(c.eval_id, c.flops, c.score) for c in a_history] == [
            (c.eval_id, c.flops, c.score) for c in b_history
        ]
        assert a.members == b.members

    def test_hypervolume_nondecreasing(self):
        hvs = []

        def on_eval(cand, archive):
            hvs.append(hypervolume(archive.members, ref_flops=10**13))

        run_search(reduced_config(budget=60), SyntheticEvaluator(), on_eval=on_eval)
        assert all(b >= a - 1e-9 for a, b in zip(hvs, hvs[1:]))

    def test_failing_evaluator_skipped(self):
        class Flaky:
            def __init__(self):
                self.n = 0
                self.inner = SyntheticEvaluator()

            def evaluate(self, arch, eval_id, cost):
                self.n += 1
                if self.n % 3 == 0:
                    raise RuntimeError("boom")
                return self.inner.evaluate(arch, eval_id, cost)

        archive, history = run_logged(reduced_config(budget=30), Flaky())
        failed = [c for c in history if c.score is None]
        assert failed
        assert archive.members
        assert all(m.score is not None for m in archive.members)
        assert all(c.error == "RuntimeError: boom" for c in failed)
        assert all(c.error is None for c in history if c.score is not None)

    def test_evaluator_receives_search_ids_and_cost(self):
        seen = []

        class Recorder(SyntheticEvaluator):
            def evaluate(self, arch, eval_id, cost):
                seen.append((eval_id, cost))
                return super().evaluate(arch, eval_id, cost)

        _, history = run_logged(reduced_config(budget=12), Recorder())
        assert [e for e, _ in seen] == [c.eval_id for c in history]
        for (_, cost), c in zip(seen, history):
            assert cost == candidate_cost(c.arch, (512, 288))

    def test_cost_computed_once_per_evaluation(self, monkeypatch):
        calls = []

        def counting_cost(*args, **kwargs):
            calls.append(args[0])
            return candidate_cost(*args, **kwargs)

        monkeypatch.setattr(search_engine, "candidate_cost", counting_cost)
        _, history = run_logged(reduced_config(budget=25), SyntheticEvaluator())
        assert len(history) == 8 + 25
        assert calls == [c.arch for c in history]

    def test_multi_worker_invariants_hold(self):
        archive, history = run_logged(reduced_config(budget=40, workers=4), SyntheticEvaluator())
        assert sorted(c.eval_id for c in history) == [f"e{n:06d}" for n in range(8 + 40)]
        assert {c.eval_id for c in archive.members} == brute_force_front(history)

    @pytest.mark.parametrize("workers", [2, 5])
    def test_threads_draw_each_child_once_an_evaluation_finishes(self, monkeypatch, workers):
        """Evaluations commit in eval_id order, and job n + 2N - 1 is drawn
        as job n commits: at every commit, the candidates priced so far
        exceed those committed by exactly min(2N - 2, jobs left). Of the
        evaluations, which finish out of order, N and never more run at
        once."""
        priced, ahead, committed = [], [], []
        lock, running = threading.Lock(), [0, 0]  # now, most at once

        class Concurrent(SyntheticEvaluator):
            def evaluate(self, arch, eval_id, cost):
                with lock:
                    running[0] += 1
                    running[1] = max(running)
                time.sleep(0.002 * (int(eval_id[1:]) * 7 % 5 + 1))  # 2-10 ms
                with lock:
                    running[0] -= 1
                return super().evaluate(arch, eval_id, cost)

        def counting_cost(*args, **kwargs):
            priced.append(args[0])
            return candidate_cost(*args, **kwargs)

        def on_eval(cand, archive):
            committed.append(cand.eval_id)
            ahead.append(len(priced) - archive.evaluations)

        monkeypatch.setattr(search_engine, "candidate_cost", counting_cost)
        jobs = 16 + 30
        archive = run_search(
            reduced_config(budget=30, init_population=16, workers=workers),
            Concurrent(), on_eval=on_eval,
        )
        assert archive.evaluations == len(priced) == jobs
        assert committed == [f"e{n:06d}" for n in range(jobs)]
        assert ahead == [min(2 * workers - 2, jobs - k) for k in range(1, jobs + 1)]
        assert running == [0, workers]

    def test_an_exception_cancels_the_jobs_not_yet_started(self):
        """`on_eval` raises at the 10th commit of a 4-worker search. Jobs
        e000010-e000013 hold the four threads until then, so e000014 and
        e000015, drawn and queued behind them, must be cancelled and never
        evaluated. e000000 finishes last of the first jobs, yet commits
        first."""
        workers, started, committed = 4, [], []
        raised = threading.Event()

        class Gated(SyntheticEvaluator):
            def evaluate(self, arch, eval_id, cost):
                started.append(eval_id)
                n = int(eval_id[1:])
                if n == 0:
                    time.sleep(0.05)
                elif n >= 10:
                    raised.wait(10)
                    time.sleep(0.1)  # time for the search to cancel its queue
                return super().evaluate(arch, eval_id, cost)

        def on_eval(cand, archive):
            committed.append(cand.eval_id)
            if archive.evaluations == 10:
                raised.set()
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            run_search(reduced_config(budget=30, workers=workers), Gated(), on_eval=on_eval)
        ids = [f"e{n:06d}" for n in range(16)]
        assert committed == ids[:10]
        assert sorted(started) == ids[: len(started)]
        assert 10 <= len(started) <= 10 + workers

    def test_flops_match_cost_model(self):
        _, history = run_logged(reduced_config(budget=10), SyntheticEvaluator())
        for c in history:
            assert c.flops == candidate_cost(c.arch, (512, 288)).total_flops


class TestGenomeKey:
    def test_equality_matches_json_key_equality(self):
        """The genome is the dedup key: `==` and `hash` on ArchEncoding
        agree with equality of its sorted JSON encoding."""

        def old_key(arch):
            return json.dumps(data_io.arch_to_json(arch), sort_keys=True)

        rng = np.random.default_rng(11)
        cfg = SearchConfig()
        genomes, n_equal = [], 0
        for _ in range(700):
            parent = search_engine._random_arch(rng, cfg)
            c1 = search_engine.mutate_arch(parent, rng, cfg)
            c2 = search_engine.mutate_arch(parent, rng, cfg)
            for a, b in ((parent, c1), (parent, c2), (c1, c2)):
                assert (a == b) == (old_key(a) == old_key(b))
                if a == b:
                    assert hash(a) == hash(b)
                    n_equal += 1
            genomes += [parent, c1, c2]
        assert n_equal > 0  # both outcomes were exercised
        by_key = {old_key(g): g for g in genomes}
        assert len(set(genomes)) == len(by_key)
        assert all(by_key[old_key(g)] == g for g in genomes)


def reference_list_moves(spec):
    """`_list_move_candidates` as a try-every-move filter."""
    moves = []
    for fld in ("downsample_at", "double_channels_at"):
        idxs = getattr(spec, fld)
        for pos in range(len(idxs)):
            for delta in (-1, 1):
                new = list(idxs)
                new[pos] += delta
                if new[pos] < 2 or new[pos] > spec.num_blocks:
                    continue
                if any(b <= a for a, b in zip(new, new[1:])):
                    continue
                moves.append((fld, pos, delta))
    return moves


def reference_mutate_backbone(spec, rng, cfg, p_extended=0.2):
    index_moves = reference_list_moves(spec)
    extended_moves = arch_space._extended_move_candidates(spec, cfg)
    use_extended = extended_moves and (not index_moves or rng.random() < p_extended)
    if use_extended:
        fld, value = extended_moves[rng.integers(len(extended_moves))]
        return replace(spec, **{fld: value})
    fld, pos, delta = index_moves[rng.integers(len(index_moves))]
    idxs = list(getattr(spec, fld))
    idxs[pos] += delta
    return replace(spec, **{fld: tuple(idxs)})


def reference_mutate_arch(arch, rng, cfg):
    """`mutate_arch` with its kind probabilities built on every call."""
    kinds = ["backbone"] if cfg.fixed_fusion is not None else ["backbone", "fusion"]
    weights = (0.4, 0.3)[: len(kinds)]
    probs = np.array(weights) / sum(weights)
    kind = kinds[int(rng.choice(len(kinds), p=probs))]
    if kind == "backbone":
        return replace(arch, backbone=reference_mutate_backbone(arch.backbone, rng, cfg.space))
    return replace(
        arch, fusion=arch_space.mutate_fusion(arch.fusion, arch.backbone.num_stages, rng)
    )


class TestMutationStream:
    """`mutate_arch` returns the same child as a move-by-move reference
    and consumes the same random draws, so seeded runs are unchanged."""

    @pytest.mark.parametrize("cfg", [SearchConfig(), reduced_config()],
                             ids=["full", "reduced-fixed-fusion"])
    def test_same_children_and_rng_state(self, cfg):
        parents = np.random.default_rng(77)
        for seed in range(1000):
            parent = search_engine._random_arch(parents, cfg)
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            # two generations: children of children are covered too
            for _ in range(2):
                child = search_engine.mutate_arch(parent, rng_new, cfg)
                assert child == reference_mutate_arch(parent, rng_ref, cfg)
                assert rng_new.bit_generator.state == rng_ref.bit_generator.state
                parent = child

    def test_move_list_matches_reference_over_small_space(self):
        small = SpaceConfig(
            block_kinds=(BlockKind.BASIC,), base_channels=(48,), num_blocks_range=(10, 11)
        )
        for spec in enumerate_backbones(small):
            assert arch_space._list_move_candidates(spec) == reference_list_moves(spec)


class TestKindDraw:
    """`_draw_kind` repeats `Generator.choice`'s draw without its checks;
    this pins that reading of numpy's internals."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_generator_choice(self, n):
        rng_new, rng_ref = np.random.default_rng(2024), np.random.default_rng(2024)
        for _ in range(100_000):
            assert search_engine._draw_kind(rng_new, n) == int(
                rng_ref.choice(n, p=search_engine._KIND_PROBS[n])
            )
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestSyntheticEvaluator:
    def test_score_in_unit_interval(self, rng):
        from lanenas.arch_space import random_backbone, random_fusion
        from lanenas.arch_space import ArchEncoding

        ev = SyntheticEvaluator()
        for _ in range(300):
            bb = random_backbone(rng)
            arch = ArchEncoding(bb, random_fusion(rng, bb.num_stages))
            assert 0.0 <= evaluate(ev, arch) <= 1.0

    def test_deeper_scores_higher_and_costs_more(self):
        ev = SyntheticEvaluator()
        a = make_arch("BB_64_13_[5,9]_[7,12]")
        b = make_arch("BB_64_14_[5,9]_[7,12]")
        assert evaluate(ev, b) > evaluate(ev, a)
        assert candidate_cost(b).total_flops > candidate_cost(a).total_flops

    def test_deterministic(self, arch):
        ev = SyntheticEvaluator()
        assert evaluate(ev, arch) == evaluate(ev, arch)


STUB_OK = (
    "import sys, json\n"
    "req = json.loads(sys.stdin.readline())\n"
    "print(json.dumps({'eval_id': req['eval_id'], 'score': 0.5}))\n"
)
STUB_FAIL = "import sys; sys.exit(3)\n"
STUB_SLEEP = "import time; time.sleep(30)\n"
STUB_GARBAGE = "print('not json at all')\n"
STUB_LOG_RESOLUTION = (
    "import sys, json\n"
    "req = json.loads(sys.stdin.readline())\n"
    "with open(sys.argv[1], 'a') as fh:\n"
    "    fh.write(json.dumps(req['resolution']) + '\\n')\n"
    "print(json.dumps({'eval_id': req['eval_id'], 'score': 0.5}))\n"
)


def stub_command(tmp_path, code, name):
    path = tmp_path / f"{name}.py"
    path.write_text(code)
    return f"{sys.executable} {path}"


class TestExternalEvaluator:
    def test_echo_stub(self, tmp_path, arch):
        ev = ExternalEvaluator(stub_command(tmp_path, STUB_OK, "ok"))
        assert evaluate(ev, arch) == 0.5

    def test_nonzero_exit(self, tmp_path, arch):
        ev = ExternalEvaluator(stub_command(tmp_path, STUB_FAIL, "fail"))
        with pytest.raises(ProtocolError):
            evaluate(ev, arch)

    def test_timeout(self, tmp_path, arch):
        ev = ExternalEvaluator(stub_command(tmp_path, STUB_SLEEP, "slow"), timeout=0.5)
        with pytest.raises(TimeoutError):
            evaluate(ev, arch)

    def test_garbage_output(self, tmp_path, arch):
        ev = ExternalEvaluator(stub_command(tmp_path, STUB_GARBAGE, "bad"))
        with pytest.raises(ProtocolError):
            evaluate(ev, arch)

    def test_missing_binary(self, arch):
        ev = ExternalEvaluator("/nonexistent/trainer-binary")
        with pytest.raises(SpawnError):
            evaluate(ev, arch)

    def test_request_resolution_is_the_priced_one(self, tmp_path):
        log = tmp_path / "resolutions.log"
        command = stub_command(tmp_path, STUB_LOG_RESOLUTION, "res") + f" {log}"
        cfg = reduced_config(budget=1, init_population=1, resolution=(256, 144))
        archive = run_search(cfg, ExternalEvaluator(command))
        logged = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(logged) == archive.evaluations == 2
        assert all(r == [256, 144] for r in logged)

    def test_search_continues_past_failures(self, tmp_path):
        ev = ExternalEvaluator(stub_command(tmp_path, STUB_FAIL, "fail2"))
        archive, history = run_logged(reduced_config(budget=5, init_population=3), ev)
        assert len(history) == 8
        assert all(c.score is None for c in history)
        assert all(c.error.startswith("ProtocolError: ") for c in history)
        assert archive.members == []


def blend_scenes(sigma, n=8, seed=0):
    cfg = SynthSceneConfig(num_scenes=n, remote_noise_sigma=sigma, seed=seed)
    return [(props, rec.gt_lanes) for props, rec in generate_synthetic_scenes(cfg)]


def default_params(**kw):
    kw.setdefault("score_threshold", 0.3)
    kw.setdefault("group_distance", 60.0)
    kw.setdefault("locality_sigma", 400.0)
    return BlendParamSet.identity([1, 2], **kw)


class TestBlendInnerSearch:
    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            run_blend_inner_search(
                [], BlendParamSpace(), InnerSearchConfig(), default_params()
            )

    def test_no_regression_on_perfect_default(self):
        scenes = blend_scenes(sigma=0.0, n=4)
        init = default_params()
        assert evaluate_blend_params(scenes, init) == 1.0
        best = run_blend_inner_search(
            scenes, BlendParamSpace(), InnerSearchConfig(budget=10), init
        )
        assert evaluate_blend_params(scenes, best) == 1.0

    def test_beats_weak_defaults_on_noisy_scenes(self):
        # defaults with near-plain locality leave remote corruption in
        # place; the inner search should find better parameters
        train = blend_scenes(sigma=20.0, n=8, seed=1)
        held_out = blend_scenes(sigma=20.0, n=10, seed=99)
        init = default_params(locality_sigma=400.0)
        best = run_blend_inner_search(
            train, BlendParamSpace(), InnerSearchConfig(budget=60, seed=5), init
        )
        improved = 0
        for scene in held_out:
            f_init = evaluate_blend_params([scene], init)
            f_best = evaluate_blend_params([scene], best)
            if f_best > f_init:
                improved += 1
        assert improved >= 6

    def test_deterministic(self):
        scenes = blend_scenes(sigma=20.0, n=4)
        init = default_params()
        a = run_blend_inner_search(
            scenes, BlendParamSpace(), InnerSearchConfig(budget=20, seed=2), init
        )
        b = run_blend_inner_search(
            scenes, BlendParamSpace(), InnerSearchConfig(budget=20, seed=2), init
        )
        assert a == b

    def test_evaluate_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            evaluate_blend_params([], default_params())

    def test_mixed_canvases_rejected(self):
        small = blend_scenes(sigma=20.0, n=2)
        cfg = SynthSceneConfig(num_scenes=2, remote_noise_sigma=20.0, image_size=(640, 360))
        large = [(props, rec.gt_lanes) for props, rec in generate_synthetic_scenes(cfg)]
        with pytest.raises(ValueError, match="canvas"):
            evaluate_blend_params(small + large, default_params())
        with pytest.raises(ValueError, match="canvas"):
            run_blend_inner_search(
                small + large, BlendParamSpace(), InnerSearchConfig(budget=1), default_params()
            )

    @pytest.mark.parametrize("seed, digest", [
        (4, "684adb169db40045bff0f91b31af0d2db0352eaa729e2297295bf0af156e37d4"),
        (9, "15ffb2c0f5aa857c24fd862f63cf9c5cfe806788a058cc896d9ec3cd0b1d5f33"),
    ])
    def test_result_matches_golden_digest(self, seed, digest):
        """The inner search returns the same parameters across code
        changes, not only between two runs of the same code."""
        scenes = blend_scenes(sigma=40.0, n=6, seed=3)
        init = default_params(locality_sigma=60.0)
        best = run_blend_inner_search(
            scenes, BlendParamSpace(), InnerSearchConfig(budget=40, seed=seed), init
        )
        assert best != init
        assert hashlib.sha256(repr(best).encode()).hexdigest() == digest


def unmemoized_inner_search(scenes, space, config, init_params):
    """The inner search without a shared scorer, lane tables or F1 memo:
    every step post-processes every scene with the object pipeline of
    `blend_oracle` and draws every lane again."""
    gts = [gt for _, gt in scenes]
    canvas = scenes[0][0].layout.image_size

    def f1(params):
        preds = [[line.points for line in oracle_postprocess(proposals, params)]
                 for proposals, _ in scenes]
        return match_and_score(preds, gts, width=config.lane_width, canvas=canvas).f1

    rng = np.random.default_rng(config.seed)
    best, best_score = init_params, f1(init_params)
    for _ in range(config.budget):
        cand = perturb(best, space, rng)
        score = f1(cand)
        if score > best_score:
            best, best_score = cand, score
    return best


@pytest.fixture(scope="module")
def noisy_scenes():
    return blend_scenes(sigma=40.0, n=4, seed=3)


class TestBlendScorer:
    def test_report_equals_per_scene_scoring_on_perturb_chains(self, noisy_scenes):
        gts = [gt for _, gt in noisy_scenes]
        canvas = noisy_scenes[0][0].layout.image_size
        scorer = SceneScorer(gts, width=30, canvas=canvas)
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = default_params(locality_sigma=60.0)
            for _ in range(int(rng.integers(1, 6))):
                params = perturb(params, BlendParamSpace(), rng)
            preds = [
                [points for _, points in postprocess(LaneTable(proposals), params)]
                for proposals, _ in noisy_scenes
            ]
            per_scene = tuple(
                score_scene(p, g, width=30, canvas=canvas) for p, g in zip(preds, gts)
            )
            report = scorer.report(preds)
            assert report.per_scene == per_scene
            assert report == match_and_score(preds, gts, width=30, canvas=canvas)

    @pytest.mark.parametrize("budget", [3, 40])
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_search_equals_unmemoized_search(self, noisy_scenes, seed, budget):
        init = default_params(locality_sigma=60.0)
        cfg = InnerSearchConfig(budget=budget, seed=seed)
        best = run_blend_inner_search(noisy_scenes, BlendParamSpace(), cfg, init)
        assert best == unmemoized_inner_search(noisy_scenes, BlendParamSpace(), cfg, init)

    def test_each_lane_drawn_once_per_search(self, noisy_scenes, monkeypatch):
        drawn = []
        draw = metrics.polyline_runs
        monkeypatch.setattr(
            metrics, "polyline_runs", lambda *a: drawn.append(1) or draw(*a)
        )
        seen = {}  # per scene's lane table, the coordinates of every lane it gave
        run = search_engine.postprocess

        def postprocess_logged(table, params):
            lanes = run(table, params)
            for _, points in lanes:
                xs, ys = metrics._as_xy(points)
                seen.setdefault(id(table), set()).add(xs.tobytes() + ys.tobytes())
            return lanes

        monkeypatch.setattr(search_engine, "postprocess", postprocess_logged)
        run_blend_inner_search(
            noisy_scenes, BlendParamSpace(), InnerSearchConfig(budget=30, seed=2),
            default_params(locality_sigma=60.0),
        )
        n_gt = sum(len(gt) for _, gt in noisy_scenes)
        assert len(seen) == len(noisy_scenes)
        assert len(drawn) == n_gt + sum(len(keys) for keys in seen.values())

    def test_repeated_step_draws_nothing(self, noisy_scenes, monkeypatch):
        drawn = []
        draw = metrics.polyline_runs
        monkeypatch.setattr(
            metrics, "polyline_runs", lambda *a: drawn.append(1) or draw(*a)
        )
        prepared = BlendScenes(noisy_scenes, 30)
        params = default_params(locality_sigma=60.0)
        first = evaluate_blend_params(noisy_scenes, params, 30, prepared)
        assert drawn
        drawn.clear()
        # a level no head has: another parameter value, the same lanes
        same_lanes = replace(params, per_level={**params.per_level, 3: BlendParams(beta1=1.0)})
        assert evaluate_blend_params(noisy_scenes, same_lanes, 30, prepared) == first
        assert drawn == []

    def test_equal_parameter_step_is_not_postprocessed(self, noisy_scenes, monkeypatch):
        calls = []
        run = search_engine.postprocess
        monkeypatch.setattr(search_engine, "postprocess", lambda *a: calls.append(1) or run(*a))
        prepared = BlendScenes(noisy_scenes, 30)
        params = BlendParamSet(
            per_level={1: BlendParams(0.01, -0.5, 0.0, (256.0, 0.0)), 2: BlendParams()},
            locality_sigma=60.0,
        )
        first = evaluate_blend_params(noisy_scenes, params, 30, prepared)
        assert len(calls) == len(noisy_scenes)
        # the same value built afresh, its levels in the other order
        equal = BlendParamSet(
            per_level={2: BlendParams(), 1: BlendParams(0.01, -0.5, 0.0, (256.0, 0.0))},
            locality_sigma=60.0,
        )
        assert evaluate_blend_params(noisy_scenes, equal, 30, prepared) == first
        assert len(calls) == len(noisy_scenes)
        assert first == evaluate_blend_params(noisy_scenes, params)

    def test_equal_parameter_sets_share_one_memo_entry(self, noisy_scenes):
        level = BlendParams(0.01, -0.5, 0.0, (256.0, 0.0))
        params = BlendParamSet(
            per_level={1: level, 2: BlendParams()}, score_threshold=0.0, locality_sigma=60.0
        )
        equal = [
            BlendParamSet(
                per_level={2: BlendParams(), 1: level}, score_threshold=0.0, locality_sigma=60.0
            ),
            BlendParamSet(
                per_level={1: level, 2: BlendParams(-0.0, -0.0, -0.0, (-0.0, -0.0))},
                score_threshold=-0.0,
                locality_sigma=60.0,
            ),
        ]
        unequal = [
            replace(params, locality_sigma=61.0),
            replace(params, per_level={1: level}),
            replace(params, per_level={1: level, 2: BlendParams(beta1=0.1)}),
        ]
        prepared = BlendScenes(noisy_scenes, 30)
        f1 = prepared.f1(params)
        for other in equal:
            assert other == params and hash(other) == hash(params)
            assert prepared.f1(other) == f1
        assert len(prepared._f1) == 1
        for other in unequal:
            assert other != params
            prepared.f1(other)
        assert len(prepared._f1) == 1 + len(unequal)

    def test_search_postprocesses_each_parameter_value_once(self, noisy_scenes, monkeypatch):
        evaluated, calls = [], []
        evaluate, run = search_engine.evaluate_blend_params, search_engine.postprocess
        monkeypatch.setattr(
            search_engine, "evaluate_blend_params",
            lambda scenes, params, *a: evaluated.append(params) or evaluate(scenes, params, *a),
        )
        monkeypatch.setattr(search_engine, "postprocess", lambda *a: calls.append(1) or run(*a))
        budget = 60
        run_blend_inner_search(
            noisy_scenes, BlendParamSpace(), InnerSearchConfig(budget=budget, seed=7),
            default_params(locality_sigma=60.0),
        )
        distinct = []
        for params in evaluated:
            if params not in distinct:
                distinct.append(params)
        assert len(evaluated) == budget + 1
        assert len(distinct) < len(evaluated)  # perturb clipped some steps onto a bound
        assert len(calls) == len(noisy_scenes) * len(distinct)
