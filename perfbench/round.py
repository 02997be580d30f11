"""One round of one workload, in a fresh process.

    python3 -m perfbench.round --workload W --seed N --trace 0|1 --seconds S
        --check 0|1 --size full|tiny --work DIR [--trace-file PATH]

Times are CPU seconds of this process, its threads and its waited-for
children (see cpu_time). Set-up (interpreter start, imports, plus input
generation where the workload has it) is the CPU time from the start of
the process to the end of the workload's prepare(). The workload's
fixed work is then repeated, each repeat timed on its own after a
garbage collection, until the next repeat would end after S seconds of
wall time (at least two repeats). Wall times are recorded beside the CPU
times for reference. Peak resident memory is read after the last
repeat. Every repeat's output must be identical; with
--check 1 the last one is checked. The last line of stdout is one JSON object for
perfbench/run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_REPEATS = 2


def cpu_time():
    """CPU seconds used so far by this process, its threads and its
    waited-for children. The workloads run on one thread, so this is
    their wall time less the time the host gave the CPU to someone else
    (steal) or the process waited on the disk: on a shared virtual
    machine those waits come from the neighbours, not from the program."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench.round")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import numpy
    import lanenas

    if not os.path.abspath(lanenas.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lanenas imported from {lanenas.__file__}, not from {SRC}")
    from .spans import Tracer
    from .workloads import SIZES, WORKLOADS, install_tracing, layer_metrics, raster_path

    os.makedirs(args.work, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], args.work)
        workload.prepare()
        setup_s = cpu_time()
        setup_wall_s = time.perf_counter() - T0

        timed, wall, digests, layers = [], [], [], []
        start = time.perf_counter()
        while True:
            workload.reset()
            tracer = None
            if args.trace:
                tracer = Tracer()
                install_tracing(tracer)
            gc.collect()
            t, c = time.perf_counter(), cpu_time()
            try:
                workload.run(tracer)
            finally:
                timed.append(cpu_time() - c)
                wall.append(time.perf_counter() - t)
                if tracer is not None:
                    tracer.restore()
            digests.append(workload.digest())
            if tracer is not None:
                layers.append(layer_metrics(tracer, workload.history_bytes()))
            n = len(timed)
            if n >= MIN_REPEATS and (time.perf_counter() - start) * (n + 1) / n > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        failed, problems = workload.check() if args.check else (None, [])
        if len(set(digests)) != 1:
            problems.append("repeats of one round produced different outputs")
        doc = {
            "setup_s": setup_s,
            "timed_s": timed,
            "setup_wall_s": setup_wall_s,
            "wall_s": wall,
            "items": workload.items,
            "failed": failed,
            "peak_rss_mb": peak_rss_mb,
            "problems": problems,
            "digest": digests[-1],
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "raster_path": raster_path(),
            },
        }
        if args.trace:
            doc["layers"] = layers
            if args.trace_file:
                tracer.write(args.trace_file)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
