"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py [--seeds 1 2 ...] [--traced-seeds 1 2]
        [--seconds S] [--workloads search lanes blend-inner]

For each workload: untraced runs over the seeds give the median and
quartiles of every end-to-end metric; traced runs give the per-layer
baseline (median over the traced seeds) and the tracing overhead, the
relative drop of the traced rounds' items_per_s against the untraced
ones on the same seeds. --seconds defaults to BENCHMARK.json's
run_seconds. Prints Markdown tables; the raw results of every run go to
.perfbench/reference.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n{proc.stderr}")
    return info["info"], result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--traced-seeds", type=int, nargs="+", default=[1, 2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--workloads", nargs="+", default=["search", "lanes", "blend-inner"])
    args = ap.parse_args()

    e2e, layers, overhead, raw = {}, {}, {}, {}
    for w in args.workloads:
        runs = {s: bench(w, s, args.seconds, 0) for s in args.seeds}
        e2e[w] = {m: quartiles([r[1]["metrics"][m]["value"] for r in runs.values()])
                  for m in next(iter(runs.values()))[1]["metrics"]}
        traced = {s: bench(w, s, args.seconds, 1) for s in args.traced_seeds}
        layers[w] = {m: statistics.median(r[1]["metrics"][m]["value"] for r in traced.values())
                     for m in next(iter(traced.values()))[1]["metrics"]}
        drops = []
        for s, (info, _) in traced.items():
            plain = runs[s][0] if s in runs else bench(w, s, args.seconds, 0)[0]
            rate = lambda i: statistics.median(i["samples"]["items_per_s"])  # noqa: E731
            drops.append(1 - rate(info) / rate(plain))
        overhead[w] = statistics.median(drops)
        raw[w] = {"untraced": runs, "traced": traced}
        env = next(iter(runs.values()))[0]["env"]

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "reference.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    print(f"Environment: Python {env['python']}, numpy {env['numpy']}, "
          f"{env['nproc']} CPUs, raster path {env['raster_path']}; "
          f"seeds {args.seeds}, traced seeds {args.traced_seeds}, --seconds {args.seconds:g}.\n")
    print("| workload | metric | Q1 | median | Q3 | spread |\n|---|---|---|---|---|---|")
    for w, ms in e2e.items():
        for m, (q1, q2, q3) in ms.items():
            print(f"| {w} | {m} | {q1:.4g} | {q2:.4g} | {q3:.4g} | {(q3 - q1) / q2:.1%} |")
    print("\n| workload | tracing overhead (items_per_s drop) |\n|---|---|")
    for w, o in overhead.items():
        print(f"| {w} | {o:.1%} |")
    print("\n| metric | " + " | ".join(layers) + " |\n|---|" + "---|" * len(layers))
    for m in next(iter(layers.values())):
        print(f"| {m} | " + " | ".join(f"{layers[w][m]:.4g}" for w in layers) + " |")


if __name__ == "__main__":
    main()
