"""The benchmark's tracer wraps package functions by name
(`perfbench/workloads.py`); renaming or deleting one breaks
`perfbench/run.py --trace 1`. Installing and restoring it here makes
that a test failure."""

import pytest

from lanenas import _kernels, cli, data_io, metrics, point_blend, search_engine, synth
from lanenas.point_blend import BlendParamSet, BlendParamSpace
from perfbench.spans import Tracer
from perfbench.workloads import install_tracing

MODULES = (_kernels, cli, data_io, metrics, point_blend, search_engine, synth,
           search_engine.ParetoArchive)


def test_install_tracing_wraps_names_that_exist_and_restores_them():
    before = [dict(vars(m)) for m in MODULES]
    tracer = Tracer()
    install_tracing(tracer)
    try:
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in MODULES] == before


# spans every post-processing call must open, whatever the stages' signatures
POSTPROCESS_SPANS = ("point_blend.postprocess", "point_blend.mask", "lane_model.decode_all",
                     "point_blend.group", "point_blend.blend_group")


def tiny_blend(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.main(["gen-synth", "--out", str(corpus), "--num-scenes", "2", "--noise", "40"]) == 0
    assert cli.main(["blend", "--proposals", str(corpus / "proposals.jsonl")]) == 0
    capsys.readouterr()


def tiny_inner_search(tmp_path, capsys):
    cfg = synth.SynthSceneConfig(num_scenes=2, remote_noise_sigma=40.0, seed=1)
    scenes = [(p, rec.gt_lanes) for p, rec in synth.generate_synthetic_scenes(cfg)]
    search_engine.run_blend_inner_search(
        scenes, BlendParamSpace(), search_engine.InnerSearchConfig(budget=2, seed=1),
        BlendParamSet.identity([1, 2], locality_sigma=60.0),
    )


@pytest.mark.parametrize("run", [tiny_blend, tiny_inner_search])
def test_traced_post_processing_opens_every_stage_span(tmp_path, capsys, run):
    tracer = Tracer()
    install_tracing(tracer)
    try:
        run(tmp_path, capsys)
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert {name: summary.get(name, {}).get("n", 0) >= 1 for name in POSTPROCESS_SPANS} \
        == dict.fromkeys(POSTPROCESS_SPANS, True)
