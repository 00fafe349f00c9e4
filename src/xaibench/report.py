"""Deterministic artifact rendering: ICC plots, bump charts and p-value
heatmaps as standalone SVG, plus report.json, the one written copy of every
report table (metrics, reliability, how each eXirt fit ended, ranks,
stability, the post-hoc tests and the paper's two verdicts).

Rendering is a pure function of its inputs; equal inputs give byte-identical
documents.  Colors follow the ICC convention: green for positive
discrimination, red for negative, thick black for the pointwise average.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data import atomic_open, level_key, to_record
from .irt import ReliabilitySummary, reliability_compare
from .stability import stability_order
from .stats import PosthocMatrix

WIDTH = 800
HEIGHT = 600
GREEN = "#2ca02c"
RED = "#d62728"

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


class ReportError(ValueError):
    pass


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _svg_open(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{_esc(title)}</text>',
    ]


def _points(pairs) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in pairs)


def _polyline(pts: str, color, width=1.0, opacity=1.0) -> str:
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
            f'stroke-opacity="{opacity}" points="{pts}"/>')


def _text(x, y, s, size=12, anchor="start", color="#000000") -> str:
    return (f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" text-anchor="{anchor}" '
            f'fill="{color}" font-family="sans-serif">{_esc(s)}</text>')


def render_icc_svg(grid, curves, negative, summary: ReliabilitySummary,
                   title: str = "Item characteristic curves") -> str:
    """Per-item curves over ``grid`` from the (N, G) ``curves`` array, red
    where the ``negative`` mask flags a < 0 and green elsewhere, a thick
    black pointwise average, and the mean difficulty/discrimination/guessing
    annotation block."""
    if len(curves) == 0:
        raise ReportError("empty curve list")
    left, right, top, bottom = 70, 30, 50, 60
    x0, x1 = float(grid[0]), float(grid[-1])

    def px(theta):
        return left + (theta - x0) / (x1 - x0) * (WIDTH - left - right)

    def py(p):
        return HEIGHT - bottom - p * (HEIGHT - top - bottom)

    parts = _svg_open(title)
    # axes
    parts.append(_polyline(_points([(left, top), (left, HEIGHT - bottom),
                                    (WIDTH - right, HEIGHT - bottom)]), "#000000", 1.0))
    for t in np.linspace(x0, x1, 9):
        parts.append(_text(px(t), HEIGHT - bottom + 18, _fmt(t), 10, "middle"))
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(_text(left - 8, py(p) + 4, _fmt(p), 10, "end"))
    parts.append(_text(WIDTH / 2, HEIGHT - 16, "ability (theta)", 12, "middle"))
    parts.append(_text(16, HEIGHT / 2, "p(correct)", 12, "middle"))
    # every curve shares the grid: format its x coordinates once per chart
    xs = [f"{x:.2f}" for x in px(np.asarray(grid, dtype=float)).tolist()]

    def curve_points(ys):
        return " ".join(f"{x},{y:.2f}" for x, y in zip(xs, ys))

    for ys, neg in zip(py(np.asarray(curves, dtype=float)), negative):
        # one row of Python floats at a time keeps the peak memory flat
        parts.append(_polyline(curve_points(ys.tolist()), RED if neg else GREEN, 0.6,
                               opacity=0.5))
    avg = np.mean(curves, axis=0)  # pointwise average
    parts.append(_polyline(curve_points(py(avg).tolist()), "#000000", 3.0))
    annotation = (f"difficulty: {_fmt(summary.mean_difficulty)} "
                  f"discrimination: {_fmt(summary.mean_discrimination)} "
                  f"guessing: {_fmt(summary.mean_guessing)}")
    parts.append(_text(left + 10, top + 16, annotation, 12))
    parts.append("</svg>")
    return "\n".join(parts)


def render_bump_svg(ranks, record=None, title: str = "") -> str:
    """Rank positions per feature across perturbation levels.

    ``ranks`` are one (explainer, model) pair's ranks in ascending level
    order, as :func:`check_slots` returns them; ``record`` optionally
    supplies per-level Spearman annotations and the correlation sum for the
    title.
    """
    if not ranks:
        raise ReportError("no ranks to chart")
    positions = [rank.positions() for rank in ranks]
    n_pos = len(positions[0])
    left, right, top, bottom = 150, 40, 60, 70

    def px(i):
        if len(ranks) == 1:
            return left + (WIDTH - left - right) / 2
        return left + i / (len(ranks) - 1) * (WIDTH - left - right)

    def py(p):
        if n_pos == 1:
            return top + (HEIGHT - top - bottom) / 2
        return top + (p - 1) / (n_pos - 1) * (HEIGHT - top - bottom)

    full_title = title
    if record is not None:
        full_title = (title + " " if title else "") + f"sum = {record.sum:.2f}"
    parts = _svg_open(full_title)
    for i, rank in enumerate(ranks):
        f, lvl = rank.perturbation_fraction, level_key(rank.perturbation_fraction)
        parts.append(_text(px(i), HEIGHT - bottom + 24, f"{f * 100:g}%", 11, "middle"))
        if record is not None and lvl in record.rho_by_fraction:
            parts.append(_text(px(i), HEIGHT - bottom + 42,
                               f"rho={record.rho_by_fraction[lvl]:.2f}", 10, "middle"))
    for ci, feat in enumerate(sorted(positions[0])):
        color = _PALETTE[ci % len(_PALETTE)]
        pts = [(px(i), py(pos[feat])) for i, pos in enumerate(positions)]
        parts.append(_polyline(_points(pts), color, 2.0))
        parts.append(_text(left - 8, py(positions[0][feat]) + 4, feat, 10, "end", color))
    parts.append(_text(WIDTH / 2, HEIGHT - 12, "perturbation level", 12, "middle"))
    parts.append("</svg>")
    return "\n".join(parts)


def render_heatmap_svg(m: PosthocMatrix) -> str:
    """k x k colored grid, darker cells for smaller p, values to 2 decimals."""
    k = len(m.labels)
    left, right, top, bottom = 150, 30, 140, 30
    cell_w = (WIDTH - left - right) / k
    cell_h = (HEIGHT - top - bottom) / k
    parts = _svg_open("Pairwise post-hoc p-values")
    for i in range(k):
        for j in range(k):
            p = float(m.p[i, j])
            shade = int(round(40 + 215 * p))
            x = left + j * cell_w
            y = top + i * cell_h
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                         f'height="{cell_h:.2f}" fill="rgb({shade},{shade},{shade})" '
                         f'stroke="#ffffff" stroke-width="0.5"/>')
            text_color = "#ffffff" if p < 0.4 else "#000000"
            parts.append(_text(x + cell_w / 2, y + cell_h / 2 + 3, _fmt(p),
                               9, "middle", text_color))
    for i, label in enumerate(m.labels):
        parts.append(_text(left - 6, top + (i + 0.5) * cell_h + 3, label, 9, "end"))
        x = left + (i + 0.5) * cell_w
        parts.append(f'<text x="{x:.2f}" y="{top - 6:.2f}" font-size="9" '
                     f'text-anchor="start" font-family="sans-serif" '
                     f'transform="rotate(-60 {x:.2f} {top - 6:.2f})">'
                     f'{_esc(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


@dataclass
class RunReport:
    """Everything one pipeline run reports: its fields are report.json's
    sections."""

    dataset: dict
    config: dict
    models: dict  # kind -> {hyperparams, cv_score, seed}
    metrics: dict  # kind -> {level_key -> MetricReport}
    reliability: dict  # kind -> {level_key -> ReliabilitySummary}
    fits: dict  # kind -> {level_key -> {iterations, converged}} of each eXirt fit
    ranks: list  # RelevanceRank
    stability: list  # StabilityRecord
    friedman: dict | None
    nemenyi: PosthocMatrix | None
    verdicts: dict  # the paper's two answers; see verdicts()


def verdicts(kinds, reliability: dict, stability: list) -> dict:
    """The paper's two answers: ``reliability``, level -> x -> y ->
    ``reliability_compare`` of every pair of ``kinds`` with x first ({}
    without eXirt), and ``stability_order``, the explainers by their
    correlation sums."""
    levels = reliability[kinds[0]] if reliability else {}
    return {
        "reliability": {lvl: {x: {y: reliability_compare(reliability[x][lvl], reliability[y][lvl])
                                  for y in kinds[i + 1:]}
                              for i, x in enumerate(kinds[:-1])}
                        for lvl in levels},
        "stability_order": stability_order(stability),
    }


def check_slots(config: dict, ranks) -> dict:
    """Refuse ranks that lack a configured (explainer, model, level) slot,
    fill a slot twice or one the config lacks, or whose ranks of one pair
    cover different feature sets, naming the first such slot.  Returns each
    configured (explainer, model) pair's ranks in ascending level order."""
    kinds = config.get("models", [])
    levels = [level_key(f) for f in sorted(config.get("fractions", []))]
    explainers = config.get("explainers", [])
    slots = {}
    for rk in ranks:
        slot = (rk.explainer, rk.model_kind, level_key(rk.perturbation_fraction))
        if slot in slots:
            raise ReportError(f"repeated rank slot: {':'.join(slot)}")
        slots[slot] = rk
    pairs = {}
    for e in explainers:
        for kind in kinds:
            for lvl in levels:
                if (e, kind, lvl) not in slots:
                    raise ReportError(f"missing rank slot: {e}:{kind}:{lvl}")
            pair = pairs[e, kind] = [slots.pop((e, kind, lvl)) for lvl in levels]
            for lvl, rk in zip(levels, pair):
                if set(rk.ordered_features) != set(pair[0].ordered_features):
                    raise ReportError(f"rank slot {e}:{kind}:{lvl} covers other features "
                                      f"than {e}:{kind}:{levels[0]}")
    if slots:
        raise ReportError(f"unconfigured rank slot: {':'.join(next(iter(slots)))}")
    return pairs


def write_report(r: RunReport, icc: dict, bumps: dict, out_dir) -> None:
    """Emit report.json, the one human-facing file (``to_record(r)``,
    indented), and the SVG set: the heatmap, an ICC chart per ``icc`` entry
    ((kind, level) -> (grid, curves, negative)) and a bump chart per
    ``bumps`` entry ((explainer, kind) -> ranks in ascending level order,
    as :func:`check_slots` returns them).  Byte-identical across runs with
    equal config and seeds."""
    def path(name):
        return os.path.join(out_dir, name)

    with atomic_open(path("report.json")) as fh:
        json.dump(to_record(r), fh, sort_keys=True, indent=2)
        fh.write("\n")

    if r.nemenyi is not None:
        with atomic_open(path("heatmap.svg")) as fh:
            fh.write(render_heatmap_svg(r.nemenyi))

    for (kind, lvl), (grid, curves, negative) in sorted(icc.items()):
        with atomic_open(path(f"icc_{kind}_{lvl}.svg")) as fh:
            fh.write(render_icc_svg(grid, curves, negative, r.reliability[kind][lvl],
                                    title=f"{kind} at {lvl}% perturbation"))

    records = {(rec.explainer, rec.model_kind): rec for rec in r.stability}
    for (expl, kind), ranks in bumps.items():
        with atomic_open(path(f"bump_{expl}_{kind}.svg")) as fh:
            fh.write(render_bump_svg(ranks, records.get((expl, kind)),
                                     title=f"{expl} / {kind}"))
