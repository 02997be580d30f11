"""lanenas repository benchmark.

    python3 perfbench/run.py --workload search|lanes|blend-inner --seed N
        --seconds S --trace 0|1

Runs four rounds, each in a fresh process with single-threaded BLAS and
a fixed hash seed (see perfbench/round.py). A round sets up once and
repeats the workload's fixed work for about S/4 seconds, timing each
repeat in CPU seconds. Prints a line with the environment and every
sample (the wall-clock ones too), then, as the last line, the result:
with --trace 0 the end-to-end metrics, each the median over its samples
(set-up and peak memory: one per round; items_per_s: one per repeat); with --trace 1 the per-layer metrics of traced repeats.
The first round's output is checked; `correct` is false if a check
fails or any repeat's output differs from another's, so every repeat is
checked by that one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("search", "lanes", "blend-inner")
ROUNDS = 4
DEADLINE_S = 170  # a run must end within 180 s
SINGLE_THREAD = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
ENV = {**SINGLE_THREAD, "PYTHONHASHSEED": "0"}


def run_round(args, k, timeout):
    tag = f"{args.workload}-seed{args.seed}"
    cmd = [sys.executable, "-m", "perfbench.round",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--seconds", str(args.seconds / ROUNDS),
           "--check", "1" if k == 0 else "0",
           "--size", args.size,
           "--work", os.path.join(OUT, f"work-{os.getpid()}-{k}")]
    if args.trace:
        cmd += ["--trace-file", os.path.join(OUT, f"trace-{tag}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"round {k} of {tag} did not end within the run's deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"round {k} of {tag} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lanenas", "__init__.py")):
        print(f"no lanenas sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    start = time.monotonic()
    rounds = [run_round(args, k, DEADLINE_S - (time.monotonic() - start))
              for k in range(ROUNDS)]
    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds of one invocation produced different outputs")
    layers = [rep for r in rounds for rep in r.get("layers", ())]
    if any(rep[m] != layers[0][m] for rep in layers for m in layers[0]
           if layers[0][m]["unit"] != "s"):
        problems.append("per-layer counts differ between repeats")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    repeats = sum(len(r["timed_s"]) for r in rounds)
    samples = {
        "setup_s": [r["setup_s"] for r in rounds],
        "items_per_s": [r["items"] / t for r in rounds for t in r["timed_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "wall_setup_s": [r["setup_wall_s"] for r in rounds],
        "wall_items_per_s": [r["items"] / t for r in rounds for t in r["wall_s"]],
    }
    if args.trace:
        # counts repeat exactly (checked above); times are medians
        metrics = {m: {"value": statistics.median(rep[m]["value"] for rep in layers)
                       if v["unit"] == "s" else v["value"], "unit": v["unit"]}
                   for m, v in layers[0].items()}
    else:
        metrics = {m: {"value": statistics.median(samples[m]), "unit": unit}
                   for m, unit in (("setup_s", "s"), ("items_per_s", "1/s"),
                                   ("peak_rss_mb", "MB"))}
    print(json.dumps({"info": {"workload": args.workload, "seed": args.seed,
                               "trace": args.trace, "env": rounds[0]["env"],
                               "samples": samples}}))
    print(json.dumps({"correct": not problems,
                      "attempted": rounds[0]["items"] * repeats,
                      "failed": rounds[0]["failed"] * repeats,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
