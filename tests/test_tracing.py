"""The benchmark's tracer wraps package functions by name
(`perfbench/workloads.py`); renaming or deleting one breaks
`perfbench/run.py --trace 1`. Installing and restoring it here makes
that a test failure."""

from lanenas import _kernels, cli, data_io, metrics, point_blend, search_engine, synth
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
