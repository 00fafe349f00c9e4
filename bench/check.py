"""Output check and output digest for one pipeline run.

The check reads only what the run wrote under ``out_dir`` and compares it
with what the benchmark asked for (feature names, models, levels and
explainers), independently of xaibench's own validation.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

CLASSIFICATION_METRICS = ("accuracy", "precision", "recall", "f1", "roc_auc")
HISTORY_TOLERANCE = 1e-9  # the same slack tests/test_irt.py allows


def level_key(fraction: float) -> str:
    return str(int(round(fraction * 100)))


def check_report(report: dict, expect: dict) -> list:
    """Problems with a parsed ``report.json``; an empty list means it passes.

    ``expect`` holds ``features``, ``models``, ``levels`` and ``explainers``.
    """
    errors = []
    features = sorted(expect["features"])
    want = {(e, k, lvl) for e in expect["explainers"] for k in expect["models"]
            for lvl in expect["levels"]}
    ranks = report.get("ranks", [])
    if len(ranks) != len(want):
        errors.append(f"{len(ranks)} ranks, expected {len(want)}")
    seen = set()
    for rk in ranks:
        key = (rk["explainer"], rk["model_kind"], level_key(rk["perturbation_fraction"]))
        if key not in want or key in seen:
            errors.append(f"unexpected or repeated rank {key}")
        seen.add(key)
        if sorted(rk["ordered_features"]) != features:
            errors.append(f"rank {key} is not a permutation of the features")
    for key in sorted(want - seen):
        errors.append(f"missing rank {key}")
    metrics = report.get("metrics", {})
    for kind in expect["models"]:
        for lvl in expect["levels"]:
            cell = metrics.get(kind, {}).get(lvl)
            if cell is None:
                errors.append(f"missing metrics {kind}:{lvl}")
                continue
            for name in CLASSIFICATION_METRICS:
                if not 0.0 <= cell[name] <= 1.0:
                    errors.append(f"{name} {kind}:{lvl} = {cell[name]} outside [0, 1]")
    for rec in report.get("stability", []):
        for lvl, rho in rec["rho_by_fraction"].items():
            if not -1.0 <= rho <= 1.0:
                errors.append(f"rho {rec['explainer']}/{rec['model_kind']}:{lvl} = {rho} "
                              f"outside [-1, 1]")
    return errors


def check_history(history) -> bool:
    return all(b >= a - HISTORY_TOLERANCE for a, b in zip(history, history[1:]))


def check_outputs(out_dir: str, expect: dict) -> list:
    """Check ``report.json`` and every ``irt/fit_*.json`` under ``out_dir``."""
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"report.json: {exc}"]
    errors = check_report(report, expect)
    for path in sorted(glob.glob(os.path.join(out_dir, "irt", "fit_*.json"))):
        with open(path, encoding="utf-8") as fh:
            if not check_history(json.load(fh)["history"]):
                errors.append(f"{os.path.basename(path)}: history decreases")
    return errors


def digest(out_dir: str) -> str:
    """sha256 over report.json and every SVG, by file name and content."""
    h = hashlib.sha256()
    names = ["report.json"] + sorted(n for n in os.listdir(out_dir) if n.endswith(".svg"))
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)
