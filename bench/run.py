"""xaibench benchmark: one workload, one seed, one measurement window.

    python3 bench/run.py --workload paper-default --seed 0 --seconds 34 --trace 0

Run from the repository root.  Each pipeline run happens in a fresh process
(``bench/worker.py``) with BLAS/OpenMP pinned to ``THREADS`` threads.  The
run repeats the workload's pipeline, one run at a time, while another run
fits in ``--seconds``, checks every run's outputs, and prints each metric
with its unit; the last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: medians of ``run_s``,
``peak_rss_mb`` and ``output_mb`` over the runs, and the median
``setup_s`` over every process started.  ``--trace 1`` alternates untraced
and traced runs and reports the per-layer metrics of the traced ones
(medians for times; counts must repeat exactly).

A run fails when its process exits non-zero, its outputs fail the check
in ``check.py``, or its digest of ``report.json`` and the SVGs differs
from the first run's in this invocation.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = 1
SETUP_REPS = 4  # setup-only processes per invocation, besides the runs
WORKER_TIMEOUT_S = 150
UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}


class Invocation:
    """Samples and outcomes of one invocation."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.workdir = os.path.join(".bench_run", workload)
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.samples = {name: [] for name in UNITS}
        self.layers = []
        self.attempted = self.failed = 0
        self.digest = None
        self.problems = []

    def spawn(self, mode: str):
        """Start one worker and return its JSON result, or None on failure."""
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), self.workload,
             str(self.seed), mode, self.workdir],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            self.problems.append(f"{mode} worker exited {proc.returncode}: "
                                 f"{proc.stderr.strip().splitlines()[-1:]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.samples["setup_s"].append(result["setup_done"] - t0)
        return result

    def run_once(self, mode: str) -> float:
        """One checked pipeline run; returns its wall time including process start."""
        t0 = time.monotonic()
        out_dir = os.path.join(ROOT, self.workdir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        result = self.spawn(mode)
        errors = (["worker failed"] if result is None
                  else check.check_outputs(out_dir, result))
        if not errors:
            d = check.digest(out_dir)
            if self.digest is None:
                self.digest = d
            elif d != self.digest:
                errors.append(f"{mode} digest {d[:12]} differs from {self.digest[:12]}")
        if errors:
            self.failed += 1
            self.problems.extend(errors)
        elif mode == "run":
            self.samples["run_s"].append(result["run_s"])
            self.samples["peak_rss_mb"].append(result["peak_rss_mb"])
            self.samples["output_mb"].append(check.tree_bytes(out_dir) / 1e6)
        else:
            self.layers.append(dict(result["layers"], run_s=result["run_s"]))
        return time.monotonic() - t0


def measure(s: Invocation, seconds: float, trace: bool) -> None:
    for _ in range(SETUP_REPS):
        if s.spawn("setup") is None:
            raise SystemExit("setup failed: " + "; ".join(s.problems))
    modes = ["run", "trace"] if trace else ["run"]
    start, durations = time.monotonic(), []
    while True:
        for mode in modes:
            durations.append(s.run_once(mode))
        elapsed = time.monotonic() - start
        if elapsed + len(modes) * statistics.median(durations) > seconds:
            break


def layer_summary(s: Invocation) -> dict:
    """Per-layer medians over the traced runs; counts must repeat exactly."""
    out = {}
    for name in s.layers[0]:
        values = [layers[name] for layers in s.layers]
        if layer_unit(name) != "s":
            if len(set(values)) != 1:
                s.failed += 1
                s.problems.append(f"count {name} differs between traced runs: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = out.pop("run_s") - statistics.median(s.samples["run_s"])
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def recorded_digest(workload: str, seed: int):
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh).get("digests", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "xaibench", "__init__.py")):
        print(f"xaibench sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    s = Invocation(args.workload, args.seed)
    shutil.rmtree(os.path.join(ROOT, s.workdir), ignore_errors=True)
    measure(s, args.seconds, bool(args.trace))
    for problem in s.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if not s.samples["run_s"] or (args.trace and not s.layers):
        print("no successful run to report", file=sys.stderr)
        return 1

    if args.trace:
        values = layer_summary(s)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": statistics.median(v), "unit": UNITS[k]}
                   for k, v in s.samples.items()}
    recorded = recorded_digest(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  threads {THREADS}  "
          f"nproc {len(os.sched_getaffinity(0))}  runs {len(s.samples['run_s'])}  "
          f"traced {len(s.layers)}  setups {len(s.samples['setup_s'])}")
    print("  run_s samples " + " ".join(f"{v:.3f}" for v in s.samples["run_s"]))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6f} {m['unit']}")
    print(f"  {'failed_frac':32s} {s.failed / s.attempted:14.6f} ratio")
    print(f"  digest {s.digest}  output_changed "
          f"{'unknown' if recorded is None else str(recorded != s.digest).lower()}")
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted,
                      "failed": s.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
