"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into xaibench's public functions and
estimator methods.  Nothing inside ``src/`` is edited: :func:`install`
rebinds each traced name in the module where the caller looks it up
(``xaibench.pipeline`` and ``xaibench.explainers`` import their helpers by
name, so patching the defining module alone would miss those calls).

A span is ``(name, start, end, parent)`` where ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory until the run ends; the
caller writes them out with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

# Fixed here rather than imported from xaibench, so the metric names stay
# the ones listed in BENCHMARK.json.
MODEL_KINDS = ("gbt", "mlp", "cart", "knn")
EXPLAINERS = ("dalex", "eli5", "lofo", "shap", "skater", "exirt")
STAGES = ("train", "perturb", "explain", "irt", "stability", "stats", "report")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` may add
        work counts to :attr:`counts` after each call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> list:
    """Per-span self time: its duration minus the part of its interval that
    its direct children cover (overlapping children are merged)."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts) -> dict:
    """Fold spans and counts into the named per-layer metrics (values only).

    ``<name>_s`` is the summed duration of spans of that name, except for
    explainers and ``pipeline.self_s``, which are self time.
    """
    counts = Counter(counts)
    total, self_total = Counter(), Counter()
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        total[name] += end - start
        self_total[name] += own
    m = {}
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = total[f"pipeline.{stage}"]
    m["pipeline.self_s"] = sum(self_total[f"pipeline.{s}"] for s in STAGES)
    m["data.load_csv_s"] = total["data.load_csv"]
    m["data.load_csv_calls"] = counts["data.load_csv_calls"]
    m["data.save_csv_s"] = total["data.save_csv"]
    m["data.perturb_s"] = total["data.perturb"]
    m["models.train_s"] = total["models.train"]
    m["models.train_calls"] = counts["models.train_calls"]
    for kind in MODEL_KINDS:
        p = f"models.{kind}"
        m[f"{p}.fit_s"] = total[f"{p}.fit"]
        m[f"{p}.fit_calls"] = counts[f"{p}.fit_calls"]
        m[f"{p}.fit_rows"] = counts[f"{p}.fit_rows"]
        m[f"{p}.predict_s"] = total[f"{p}.predict"]
        m[f"{p}.predict_rows"] = counts[f"{p}.predict_rows"]
    m["metrics.roc_auc_s"] = total["metrics.roc_auc"]
    m["metrics.roc_auc_calls"] = counts["metrics.roc_auc_calls"]
    for e in EXPLAINERS:
        m[f"explainers.{e}_s"] = self_total[f"explainers.{e}"]
    m["irt.fit_3pl_s"] = total["irt.fit_3pl"]
    m["irt.fit_3pl_calls"] = counts["irt.fit_3pl_calls"]
    m["irt.iterations"] = counts["irt.iterations"]
    calls = counts["irt.fit_3pl_calls"]
    m["irt.converged_frac"] = counts["irt.converged"] / calls if calls else 0.0
    m["irt.response_cells"] = counts["irt.response_cells"]
    m["irt.icc_s"] = total["irt.icc"]
    m["stability.stability_sum_s"] = total["stability.stability_sum"]
    m["stats.friedman_s"] = total["stats.friedman"]
    m["stats.nemenyi_s"] = total["stats.nemenyi"]
    m["report.write_report_s"] = total["report.write_report"]
    m["report.render_icc_svg_s"] = total["report.render_icc_svg"]
    return m


def _calls(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _fit_count(kind):
    def count(counts, args, result):
        counts[f"models.{kind}.fit_calls"] += 1
        counts[f"models.{kind}.fit_rows"] += len(args[1])  # (self, x, y)
    return count


def _predict_count(kind):
    def count(counts, args, result):
        counts[f"models.{kind}.predict_rows"] += len(result)
    return count


def _fit_3pl_count(counts, args, result):
    r, n = args[0].entries.shape
    counts["irt.fit_3pl_calls"] += 1
    counts["irt.iterations"] += result.iterations
    counts["irt.converged"] += int(result.converged)
    counts["irt.response_cells"] += r * n


def install(tracer: Tracer) -> None:
    """Rebind xaibench's public functions and estimator methods to traced
    wrappers for the rest of the process."""
    import xaibench.data as data
    import xaibench.explainers as explainers
    import xaibench.metrics as metrics
    import xaibench.models.training as training
    import xaibench.pipeline as pipeline
    import xaibench.report as report

    def rebind(modules, attr, name, count=None):
        original = getattr(modules[0], attr)
        traced = tracer.wrap(name, original, count)
        for mod in modules:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not {name}; "
                                   f"the tracer's import map is stale")
            setattr(mod, attr, traced)

    rebind([pipeline], "load_csv", "data.load_csv", _calls("data.load_csv_calls"))
    rebind([pipeline], "save_csv", "data.save_csv")
    rebind([data], "perturb", "data.perturb")  # called as datamod.perturb
    rebind([pipeline], "train", "models.train", _calls("models.train_calls"))
    rebind([metrics, explainers, training], "roc_auc_score", "metrics.roc_auc",
           _calls("metrics.roc_auc_calls"))
    rebind([explainers], "fit_3pl", "irt.fit_3pl", _fit_3pl_count)
    rebind([pipeline], "icc", "irt.icc")
    rebind([pipeline], "stability_sum", "stability.stability_sum")
    rebind([pipeline], "friedman", "stats.friedman")
    rebind([pipeline], "nemenyi", "stats.nemenyi")
    rebind([pipeline], "write_report", "report.write_report")
    rebind([report], "render_icc_svg", "report.render_icc_svg")
    for fn, e in (("explain_dalex_style", "dalex"), ("explain_eli5_style", "eli5"),
                  ("explain_lofo_style", "lofo"), ("explain_kernel_shap", "shap"),
                  ("explain_skater_style", "skater"), ("explain_exirt", "exirt")):
        rebind([pipeline], fn, f"explainers.{e}")
    for kind, cls in training._ESTIMATORS.items():
        cls.fit = tracer.wrap(f"models.{kind}.fit", cls.fit, _fit_count(kind))
        cls.predict_proba = tracer.wrap(f"models.{kind}.predict", cls.predict_proba,
                                        _predict_count(kind))
