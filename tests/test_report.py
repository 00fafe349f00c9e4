"""Deterministic SVG rendering and report serialization."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xaibench import report
from xaibench.data import level_key as data_level_key
from xaibench.explainers import RelevanceRank
from xaibench.irt import ItemParameters, ReliabilitySummary, default_theta_grid, icc
from xaibench.metrics import MetricReport
from xaibench.report import (
    GREEN,
    RED,
    ReportError,
    level_key,
    render_bump_svg,
    render_heatmap_svg,
    render_icc_svg,
)
from xaibench.stability import StabilityRecord, bump_chart_data
from xaibench.stats import PosthocMatrix


def summary():
    return ReliabilitySummary(mean_difficulty=-1.25, mean_discrimination=1.5,
                              mean_guessing=0.12, mean_ability=0.3,
                              negative_item_count=1)


def curves():
    """(grid, curves, negative) for one positive- and one negative-a item."""
    items = ItemParameters(np.array([1.2, -0.8]), np.array([0.0, 1.0]),
                           np.array([0.1, 0.2]))
    grid = np.linspace(-4, 4, 33)
    return grid, icc(items, grid), items.a < 0


def ref_render_icc_svg(grid, curves, negative, summary,
                      title="Item characteristic curves"):
    """The per-point ICC renderer: every coordinate is computed and formatted
    from its own numpy scalar."""
    left, right, top, bottom = 70, 30, 50, 60
    x0, x1 = float(grid[0]), float(grid[-1])

    def px(theta):
        return left + (theta - x0) / (x1 - x0) * (report.WIDTH - left - right)

    def py(p):
        return report.HEIGHT - bottom - p * (report.HEIGHT - top - bottom)

    def polyline(points, color, width=1.0, opacity=1.0):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
                f'stroke-opacity="{opacity}" points="{pts}"/>')

    h, w, text = report.HEIGHT, report.WIDTH, report._text
    parts = report._svg_open(title)
    parts.append(polyline([(left, top), (left, h - bottom), (w - right, h - bottom)],
                          "#000000", 1.0))
    for t in np.linspace(x0, x1, 9):
        parts.append(text(px(t), h - bottom + 18, f"{t:.2f}", 10, "middle"))
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(text(left - 8, py(p) + 4, f"{p:.2f}", 10, "end"))
    parts.append(text(w / 2, h - 16, "ability (theta)", 12, "middle"))
    parts.append(text(16, h / 2, "p(correct)", 12, "middle"))
    for row, neg in zip(curves, negative):
        parts.append(polyline([(px(t), py(p)) for t, p in zip(grid, row)],
                              RED if neg else GREEN, 0.6, opacity=0.5))
    avg = np.mean(curves, axis=0)
    parts.append(polyline([(px(t), py(p)) for t, p in zip(grid, avg)], "#000000", 3.0))
    parts.append(text(left + 10, top + 16,
                      f"difficulty: {summary.mean_difficulty:.2f} "
                      f"discrimination: {summary.mean_discrimination:.2f} "
                      f"guessing: {summary.mean_guessing:.2f}", 12))
    parts.append("</svg>")
    return "\n".join(parts)


class TestLevelKey:
    def test_percent_strings(self):
        assert level_key(0.0) == "0"
        assert level_key(0.04) == "4"
        assert level_key(0.06) == "6"
        assert level_key(0.10) == "10"

    def test_one_scheme(self):
        assert level_key is data_level_key


class TestIccSvg:
    def test_contains_colors_and_annotation(self):
        svg = render_icc_svg(*curves(), summary())
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert GREEN in svg  # positive-discrimination curve
        assert RED in svg  # negative-discrimination curve
        assert "difficulty: -1.25" in svg
        assert "discrimination: 1.50" in svg
        assert "guessing: 0.12" in svg

    @pytest.mark.parametrize("n_items, grid", [
        (1, np.linspace(-4, 4, 2)),
        (2, np.linspace(-4, 4, 33)),
        (173, default_theta_grid()),  # a tall-items chart
        (9, np.array([-3.0, -1.1, -0.2, 0.0, 0.35, 2.9])),  # uneven grid
    ])
    def test_equals_the_per_point_renderer(self, n_items, grid):
        rng = np.random.default_rng(n_items)
        items = ItemParameters(rng.uniform(-4, 4, n_items), rng.uniform(-6, 6, n_items),
                               rng.uniform(0, 0.5, n_items))
        args = (grid, icc(items, grid), items.a < 0, summary())
        assert render_icc_svg(*args, title="t") == ref_render_icc_svg(*args, title="t")

    def test_byte_identical_for_equal_inputs(self):
        assert render_icc_svg(*curves(), summary()) == render_icc_svg(*curves(), summary())

    def test_rejects_empty_curves(self):
        items = ItemParameters(np.array([]), np.array([]), np.array([]))
        grid = np.linspace(-4, 4, 33)
        with pytest.raises(ReportError):
            render_icc_svg(grid, icc(items, grid), items.a < 0, summary())

    def test_escapes_title(self):
        svg = render_icc_svg(*curves(), summary(), title="a<b&c")
        assert "a&lt;b&amp;c" in svg
        assert "a<b&c" not in svg


def ranks_for_bump():
    return [
        RelevanceRank(("x", "y"), (2.0, 1.0), "eli5", "gbt", 0.0),
        RelevanceRank(("y", "x"), (2.0, 1.0), "eli5", "gbt", 0.04),
    ]


class TestBumpSvg:
    def test_levels_features_and_rho_annotations(self):
        table = bump_chart_data(ranks_for_bump())
        record = StabilityRecord("eli5", "gbt", {0.04: 0.5}, 0.5)
        svg = render_bump_svg(table, record, title="eli5 / gbt")
        assert "0%" in svg and "4%" in svg
        assert ">x</text>" in svg and ">y</text>" in svg
        assert "rho=0.50" in svg
        assert "sum = 0.50" in svg

    def test_works_without_record(self):
        svg = render_bump_svg(bump_chart_data(ranks_for_bump()))
        assert "rho=" not in svg

    def test_rejects_empty_table(self):
        with pytest.raises(ReportError):
            render_bump_svg([])

    def test_deterministic(self):
        table = bump_chart_data(ranks_for_bump())
        assert render_bump_svg(table) == render_bump_svg(table)


class TestHeatmapSvg:
    def matrix(self):
        p = np.array([[1.0, 0.04, 0.8],
                      [0.04, 1.0, 0.3],
                      [0.8, 0.3, 1.0]])
        return PosthocMatrix(("m1", "m2", "m3"), p)

    def test_cells_and_labels(self):
        svg = render_heatmap_svg(self.matrix())
        assert svg.count("<rect") == 1 + 9  # background plus k*k cells
        assert "0.04" in svg
        assert "m1" in svg and "m3" in svg

    def test_shade_range_stays_in_rgb(self):
        svg = render_heatmap_svg(self.matrix())
        import re
        shades = [int(s) for s in re.findall(r"rgb\((\d+),", svg)]
        assert min(shades) >= 40
        assert max(shades) <= 255

    def test_deterministic(self):
        assert render_heatmap_svg(self.matrix()) == render_heatmap_svg(self.matrix())


def through_json(d):
    return json.loads(json.dumps(d, sort_keys=True))


finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(min_size=1, max_size=8)


class TestRecordRoundTrips:
    """Each record type has one serializer, and what it writes survives the
    JSON text of report.json; RelevanceRank and MetricReport, which the
    report stage reads back from ranks.json and metrics.json, also
    round-trip."""

    @given(finite, finite, finite, finite, finite)
    def test_metric_report(self, accuracy, precision, recall, f1, roc_auc):
        m = MetricReport(accuracy, precision, recall, f1, roc_auc)
        d = m.as_dict()
        assert list(d) == ["accuracy", "precision", "recall", "f1", "roc_auc"]
        assert MetricReport(**through_json(d)) == m

    @given(st.lists(names, min_size=1, max_size=6, unique=True), st.data(),
           names, names, st.floats(0.0, 1.0), st.booleans())
    def test_relevance_rank(self, features, data, explainer, kind, fraction, with_std):
        n = len(features)
        scores = sorted(data.draw(st.lists(finite, min_size=n, max_size=n)), reverse=True)
        std = data.draw(st.lists(finite, min_size=n, max_size=n)) if with_std else None
        rank = RelevanceRank(tuple(features), tuple(scores), explainer, kind, fraction,
                             None if std is None else tuple(std))
        d = rank.as_dict()
        assert ("score_std" in d) == with_std
        assert RelevanceRank.from_dict(through_json(d)) == rank

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique_by=data_level_key),
           st.data(), names, names)
    def test_stability_record(self, fractions, data, explainer, kind):
        rhos = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(fractions),
                                  max_size=len(fractions)))
        rec = StabilityRecord(explainer, kind, dict(zip(fractions, rhos)), float(sum(rhos)))
        d = through_json(rec.as_dict())
        assert sorted(d["rho_by_fraction"]) == sorted(data_level_key(f) for f in fractions)
        assert d == {"explainer": explainer, "model_kind": kind, "sum": rec.sum,
                     "rho_by_fraction": {data_level_key(f): r for f, r in zip(fractions, rhos)}}

    @given(finite, finite, finite, finite, st.integers(0, 10_000))
    def test_reliability_summary(self, difficulty, discrimination, guessing, ability, neg):
        s = ReliabilitySummary(difficulty, discrimination, guessing, ability, neg)
        assert ReliabilitySummary(**through_json(asdict(s))) == s
