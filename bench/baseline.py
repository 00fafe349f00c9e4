"""Record the benchmark baseline: repeated runs on consecutive seeds.

    python3 bench/baseline.py --runs 10 --seconds 34

Run from the repository root.  For each workload this runs ``run.py`` once
per seed 0..runs-1 with tracing off and once per seed 0..traced-1 with
tracing on.  It stores in ``bench/baseline.json``, per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``), the sample count and
the spread ``(q3 - q1) / median``, and the digest of ``report.json`` plus
the SVGs for every seed.  The layer map and any other keys already in the
file are kept.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import THREADS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PATH = os.path.join(HERE, "baseline.json")


def invoke(workload: str, seed: int, seconds: int, trace: int):
    """Run the benchmark once; return (result JSON, digest)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.strip().startswith("digest "))
    return json.loads(lines[-1]), digest


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def collect(name: str, seeds, seconds: int, trace: int):
    """Run the seeds; return (values per metric, attempted, failed, digests)."""
    values, attempted, failed, digests = {}, 0, 0, {}
    for seed in seeds:
        result, digests[str(seed)] = invoke(name, seed, seconds, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
        print(name, seed, trace, {k: round(v[-1], 4) for k, v in values.items()
                                  if not trace or k.startswith("pipeline.")},
              file=sys.stderr, flush=True)
    return values, attempted, failed, digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced", type=int, default=3)
    p.add_argument("--seconds", type=int, default=34)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    if min(args.runs, args.traced) < 2:
        p.error("quartiles need --runs and --traced of at least 2")
    with open(PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    baseline["machine"] = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": THREADS,
                           "python": platform.python_version(),
                           "run_seconds": args.seconds}
    for name in args.workload or sorted(WORKLOADS):
        values, attempted, failed, digests = collect(name, range(args.runs),
                                                     args.seconds, 0)
        layers, t_attempted, t_failed, _ = collect(name, range(args.traced),
                                                   args.seconds, 1)
        baseline.setdefault("workloads", {})[name] = {
            "seeds": args.runs,
            "traced_seeds": args.traced,
            "attempted": attempted + t_attempted,
            "failed_frac": (failed + t_failed) / (attempted + t_attempted),
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "per_layer": {k: summarize(v) for k, v in layers.items()},
        }
        baseline.setdefault("digests", {})[name] = digests
        with open(PATH, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for name, w in sorted(baseline.get("workloads", {}).items()):
        for metric, s in w["end_to_end"].items():
            print(f"{name:14s} {metric:12s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.4f} n {s['n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
