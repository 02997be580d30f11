import json

from lanenas import data_io
from lanenas.metrics import match_and_score
from lanenas.point_blend import BlendParamSet, LaneTable, plain_nms_params, postprocess
from lanenas.synth import SynthSceneConfig, generate_synthetic_scenes


def corpus_bytes(cfg):
    scenes = generate_synthetic_scenes(cfg)
    return json.dumps(
        [data_io.proposals_to_json(rec.image_id, props) for props, rec in scenes]
    ).encode()


def eval_params():
    return BlendParamSet.identity(
        [1, 2], score_threshold=0.3, group_distance=60.0, locality_sigma=60.0
    )


def corpus_f1(scenes, params):
    canvas = scenes[0][0].layout.image_size
    preds = [[points for _, points in postprocess(LaneTable(props), params)] for props, _ in scenes]
    gts = [rec.gt_lanes for _, rec in scenes]
    return match_and_score(preds, gts, canvas=canvas)


class TestDeterminism:
    def test_fixed_seed_byte_identical(self):
        cfg = SynthSceneConfig(num_scenes=10, seed=77)
        assert corpus_bytes(cfg) == corpus_bytes(cfg)

    def test_different_seeds_differ(self):
        a = SynthSceneConfig(num_scenes=5, seed=1)
        b = SynthSceneConfig(num_scenes=5, seed=2)
        assert corpus_bytes(a) != corpus_bytes(b)


class TestCorpusShape:
    def test_counts(self):
        cfg = SynthSceneConfig(num_scenes=7, lanes_per_scene=3, seed=0)
        scenes = list(generate_synthetic_scenes(cfg))
        assert len(scenes) == 7
        for props, rec in scenes:
            assert len(rec.gt_lanes) == 3
            high = [h for h in props.heads if h.level == 2][0]
            assert len(high.score) == high.grid_w * high.grid_h == 3

    def test_gt_matches_anchor_rows(self):
        cfg = SynthSceneConfig(num_scenes=2, seed=0)
        for props, rec in generate_synthetic_scenes(cfg):
            for lane in rec.gt_lanes:
                assert [y for _, y in lane] == list(props.layout.rows)


class TestNoiseBehavior:
    def test_zero_noise_plain_nms_perfect(self):
        cfg = SynthSceneConfig(num_scenes=10, remote_noise_sigma=0.0, seed=4)
        scenes = list(generate_synthetic_scenes(cfg))
        report = corpus_f1(scenes, plain_nms_params(eval_params()))
        assert report.f1 == 1.0

    def test_noisy_corpus_blending_wins(self):
        cfg = SynthSceneConfig(num_scenes=20, remote_noise_sigma=20.0, seed=4)
        scenes = list(generate_synthetic_scenes(cfg))
        blended = corpus_f1(scenes, eval_params())
        plain = corpus_f1(scenes, plain_nms_params(eval_params()))
        assert blended.f1 > plain.f1
