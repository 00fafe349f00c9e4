"""One benchmark process: set up a workload, optionally run the pipeline.

    python3 bench/worker.py WORKLOAD SEED {setup,run,trace} WORKDIR

Run from the repository root; WORKDIR is relative to it, so the paths
echoed into ``report.json`` are the same in every checkout.  Prints one
JSON object on stdout:

- ``setup_done``: ``time.monotonic()`` when xaibench is imported, the
  workload CSV is written and the ``RunConfig`` is built (the parent
  subtracts its own reading taken just before it started this process);
- ``features``, ``models``, ``levels``, ``explainers``: what the output
  check expects;
- for ``run`` and ``trace``: ``run_s``, the wall time of the seven stages,
  and ``peak_rss_mb``, this process's peak resident set;
- for ``trace``: ``layers``, the per-layer metrics; the spans and counts
  are written to WORKDIR/spans.json.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def main(argv) -> int:
    import json
    import resource

    import workloads
    from xaibench.data import save_csv
    from xaibench.pipeline import STAGES, run_stage
    from xaibench.report import level_key

    name, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    w = workloads.WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    dataset = workloads.make_dataset(w, seed)
    csv_path = os.path.join(workdir, "data.csv")
    save_csv(dataset, csv_path)
    cfg = workloads.make_config(w, seed, csv_path, os.path.join(workdir, "out"))
    result = {
        "setup_done": time.monotonic(),
        "features": list(dataset.feature_names),
        "models": list(cfg.models),
        "levels": [level_key(f) for f in cfg.fractions],
        "explainers": list(cfg.explainers),
    }
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        t0 = time.perf_counter()
        for stage in STAGES:
            if tracer is None:
                run_stage(cfg, stage)
            else:
                with tracer.span(f"pipeline.{stage}"):
                    run_stage(cfg, stage)
        result["run_s"] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux; report MB (1e6 bytes) like output_mb
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            tracer.dump(os.path.join(workdir, "spans.json"))
            result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
