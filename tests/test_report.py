"""Deterministic SVG rendering and report serialization."""

import functools
import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xaibench import report
from xaibench.data import RecordError, from_record, to_record
from xaibench.data import level_key as data_level_key
from xaibench.explainers import RelevanceRank
from xaibench.irt import (A_BOUNDS, B_BOUNDS, C_BOUNDS, THETA_BOUNDS, IrtFit,
                          ReliabilitySummary, default_theta_grid, icc)
from xaibench.metrics import MetricReport
from xaibench.models import (DecisionTreeClassifier, GradientBoostedTrees, KNearestNeighbors,
                             MultilayerPerceptron)
from xaibench.models.training import TrainedModel
from xaibench.report import (
    GREEN,
    RED,
    ReportError,
    check_slots,
    level_key,
    render_bump_svg,
    render_heatmap_svg,
    render_icc_svg,
)
from xaibench.stability import StabilityError, StabilityRecord, spearman, stability_sum
from xaibench.stats import PosthocMatrix


def summary():
    return ReliabilitySummary(mean_difficulty=-1.25, mean_discrimination=1.5,
                              mean_guessing=0.12, mean_ability=0.3,
                              negative_item_count=1)


def curves():
    """(grid, curves, negative) for one positive- and one negative-a item."""
    a, b, c = np.array([1.2, -0.8]), np.array([0.0, 1.0]), np.array([0.1, 0.2])
    grid = np.linspace(-4, 4, 33)
    return grid, icc(a, b, c, grid), a < 0


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
        a, b, c = rng.uniform(-4, 4, n_items), rng.uniform(-6, 6, n_items), \
            rng.uniform(0, 0.5, n_items)
        args = (grid, icc(a, b, c, grid), a < 0, summary())
        assert render_icc_svg(*args, title="t") == ref_render_icc_svg(*args, title="t")

    def test_byte_identical_for_equal_inputs(self):
        assert render_icc_svg(*curves(), summary()) == render_icc_svg(*curves(), summary())

    def test_rejects_empty_curves(self):
        a = b = c = np.array([])
        grid = np.linspace(-4, 4, 33)
        with pytest.raises(ReportError):
            render_icc_svg(grid, icc(a, b, c, grid), a < 0, summary())

    def test_escapes_title(self):
        svg = render_icc_svg(*curves(), summary(), title="a<b&c")
        assert "a&lt;b&amp;c" in svg
        assert "a<b&c" not in svg


def ranks_for_bump():
    return [
        RelevanceRank(("x", "y"), (2.0, 1.0), "eli5", "gbt", 0.0),
        RelevanceRank(("y", "x"), (2.0, 1.0), "eli5", "gbt", 0.04),
    ]


def ref_bump_chart_data(records) -> list:
    """Long-form (fraction, feature, position) rows for one explainer/model,
    ordered by fraction then position: the table the bump chart was once
    drawn from."""
    rows = []
    feature_set = None
    for rank in sorted(records, key=lambda r: r.perturbation_fraction):
        if feature_set is None:
            feature_set = set(rank.ordered_features)
        elif set(rank.ordered_features) != feature_set:
            raise StabilityError("inconsistent feature sets across ranks")
        for pos, feat in enumerate(rank.ordered_features, start=1):
            rows.append((rank.perturbation_fraction, feat, pos))
    return rows


def ref_render_bump_svg(table, record=None, title=""):
    """The bump chart drawn from the long-form table."""
    fractions = sorted({row[0] for row in table})
    features = sorted({row[1] for row in table})
    if not fractions:
        raise ReportError("empty bump table")
    pos = {(f, feat): p for f, feat, p in table}
    n_pos = max(p for _, _, p in table)
    left, right, top, bottom = 150, 40, 60, 70
    w, h, text = report.WIDTH, report.HEIGHT, report._text

    def px(i):
        if len(fractions) == 1:
            return left + (w - left - right) / 2
        return left + i / (len(fractions) - 1) * (w - left - right)

    def py(p):
        if n_pos == 1:
            return top + (h - top - bottom) / 2
        return top + (p - 1) / (n_pos - 1) * (h - top - bottom)

    full_title = title
    if record is not None:
        full_title = (title + " " if title else "") + f"sum = {record.sum:.2f}"
    parts = report._svg_open(full_title)
    for i, f in enumerate(fractions):
        parts.append(text(px(i), h - bottom + 24, f"{f * 100:g}%", 11, "middle"))
        if record is not None and level_key(f) in record.rho_by_fraction:
            parts.append(text(px(i), h - bottom + 42,
                              f"rho={record.rho_by_fraction[level_key(f)]:.2f}", 10, "middle"))
    for ci, feat in enumerate(features):
        color = report._PALETTE[ci % len(report._PALETTE)]
        pts = [(px(i), py(pos[(f, feat)])) for i, f in enumerate(fractions)
               if (f, feat) in pos]
        parts.append(report._polyline(report._points(pts), color, 2.0))
        first_f = fractions[0]
        if (first_f, feat) in pos:
            parts.append(text(left - 8, py(pos[(first_f, feat)]) + 4, feat, 10,
                              "end", color))
    parts.append(text(w / 2, h - 12, "perturbation level", 12, "middle"))
    parts.append("</svg>")
    return "\n".join(parts)


def ref_stability_sum(baseline, perturbed, fractions):
    """Rho against a separately passed baseline per named nonzero fraction,
    looked up by fraction among the perturbed ranks, plus their sum."""
    by_fraction = {}
    for rank in perturbed:
        f = rank.perturbation_fraction
        if f in by_fraction:
            raise StabilityError(f"duplicate rank for fraction {f}")
        by_fraction[f] = rank
    missing = [f for f in fractions if f not in by_fraction]
    if missing:
        raise StabilityError(f"missing perturbation fractions: {missing}")
    rho = {level_key(f): spearman(baseline, by_fraction[f]) for f in sorted(fractions)}
    return StabilityRecord(baseline.explainer, baseline.model_kind, rho,
                           float(sum(rho.values())))


@st.composite
def shuffled_pair_ranks(draw):
    """One (explainer, model) pair's ranks over 1-4 levels and 1-12
    features, in shuffled order, with the config fractions in shuffled
    order too."""
    nonzero = draw(st.lists(st.floats(0.006, 1.0), max_size=3, unique_by=level_key))
    fractions = draw(st.permutations([0.0] + nonzero))
    features = draw(st.lists(st.text("abxyz<&", min_size=1, max_size=3), min_size=1,
                             max_size=12, unique=True))
    n = len(features)
    ranks = [RelevanceRank(tuple(draw(st.permutations(features))),
                           tuple(float(n - i) for i in range(n)), "eli5", "gbt", f)
             for f in fractions]
    return fractions, draw(st.permutations(ranks))


class TestBumpSvg:
    def test_levels_features_and_rho_annotations(self):
        record = StabilityRecord("eli5", "gbt", {"4": 0.5}, 0.5)
        svg = render_bump_svg(ranks_for_bump(), record, title="eli5 / gbt")
        assert "0%" in svg and "4%" in svg
        assert ">x</text>" in svg and ">y</text>" in svg
        assert "rho=0.50" in svg
        assert "sum = 0.50" in svg

    def test_works_without_record(self):
        svg = render_bump_svg(ranks_for_bump())
        assert "rho=" not in svg

    def test_rejects_empty_table(self):
        with pytest.raises(ReportError):
            render_bump_svg([])

    def test_deterministic(self):
        assert render_bump_svg(ranks_for_bump()) == render_bump_svg(ranks_for_bump())

    @settings(max_examples=200, deadline=None)
    @given(shuffled_pair_ranks(), st.booleans())
    def test_equals_the_long_form_renderer(self, drawn, with_record):
        """The pair ranks check_slots returns give the stability record and
        the chart that the by-fraction lookup and the long-form table gave."""
        fractions, ranks = drawn
        config = {"models": ["gbt"], "explainers": ["eli5"], "fractions": fractions}
        pair = check_slots(config, ranks)["eli5", "gbt"]
        record = StabilityRecord("eli5", "gbt", {}, 0.0)
        if len(pair) > 1:
            baseline = next(r for r in ranks if r.perturbation_fraction == 0.0)
            record = stability_sum(pair)
            assert record == ref_stability_sum(
                baseline, [r for r in ranks if r.perturbation_fraction > 0],
                tuple(f for f in fractions if f > 0))
            assert list(record.rho_by_fraction) == [level_key(f) for f in sorted(fractions)
                                                    if f > 0]
        record = record if with_record else None
        assert (render_bump_svg(pair, record, title="eli5 / gbt")
                == ref_render_bump_svg(ref_bump_chart_data(ranks), record, title="eli5 / gbt"))


class TestCheckSlots:
    CONFIG = {"models": ["gbt", "cart"], "explainers": ["shap", "eli5"],
              "fractions": [0.0, 0.1, 0.04]}

    def ranks(self, fractions, pairs=(("shap", "gbt"), ("shap", "cart"),
                                      ("eli5", "gbt"), ("eli5", "cart"))):
        return [RelevanceRank(("x", "y"), (2.0, 1.0), e, kind, f)
                for f in fractions for e, kind in pairs]

    def test_pairs_come_in_ascending_level_order(self):
        pairs = check_slots(self.CONFIG, self.ranks([0.1, 0.0, 0.04]))
        assert list(pairs) == [("shap", "gbt"), ("shap", "cart"),
                               ("eli5", "gbt"), ("eli5", "cart")]
        for (e, kind), ranks in pairs.items():
            assert [(r.explainer, r.model_kind) for r in ranks] == [(e, kind)] * 3
            assert [r.perturbation_fraction for r in ranks] == [0.0, 0.04, 0.1]

    def test_missing_fraction_rejected(self):
        ranks = self.ranks([0.0, 0.1]) + self.ranks([0.04], pairs=[("shap", "gbt")])
        with pytest.raises(ReportError, match="missing rank slot: shap:cart:4"):
            check_slots(self.CONFIG, ranks)

    def test_duplicate_fraction_rejected(self):
        ranks = self.ranks([0.0, 0.04, 0.1]) + self.ranks([0.04], pairs=[("eli5", "cart")])
        with pytest.raises(ReportError, match="repeated rank slot: eli5:cart:4"):
            check_slots(self.CONFIG, ranks)

    def test_unconfigured_slot_rejected(self):
        for extra in (("lofo", "gbt"), ("eli5", "knn")):
            ranks = self.ranks([0.0, 0.04, 0.1]) + self.ranks([0.1], pairs=[extra])
            with pytest.raises(ReportError, match=f"unconfigured rank slot: {':'.join(extra)}:10"):
                check_slots(self.CONFIG, ranks)

    def test_pair_covering_other_features_rejected(self):
        ranks = self.ranks([0.0, 0.04, 0.1], pairs=[("shap", "gbt"), ("shap", "cart"),
                                                     ("eli5", "gbt")])
        ranks += self.ranks([0.0, 0.04], pairs=[("eli5", "cart")])
        ranks.append(RelevanceRank(("x", "z"), (2.0, 1.0), "eli5", "cart", 0.1))
        with pytest.raises(ReportError,
                           match="rank slot eli5:cart:10 covers other features than eli5:cart:0"):
            check_slots(self.CONFIG, ranks)


class TestVerdicts:
    @staticmethod
    def cell(difficulty):
        return ReliabilitySummary(mean_difficulty=difficulty, mean_discrimination=1.0,
                                  mean_guessing=0.1, mean_ability=0.0,
                                  negative_item_count=0)

    def test_every_pair_in_kind_order_at_every_level(self):
        # lower difficulty alone carries the vote
        reliability = {"gbt": {"0": self.cell(0.5), "10": self.cell(-0.5)},
                       "mlp": {"0": self.cell(0.0), "10": self.cell(0.0)},
                       "cart": {"0": self.cell(1.0), "10": self.cell(1.0)}}
        stability = [StabilityRecord("shap", "gbt", {}, 1.0),
                     StabilityRecord("eli5", "gbt", {}, 2.0)]
        got = report.verdicts(("gbt", "mlp", "cart"), reliability, stability)
        assert got == {
            "reliability": {
                "0": {"gbt": {"mlp": "y_more_reliable", "cart": "x_more_reliable"},
                      "mlp": {"cart": "x_more_reliable"}},
                "10": {"gbt": {"mlp": "x_more_reliable", "cart": "x_more_reliable"},
                       "mlp": {"cart": "x_more_reliable"}},
            },
            "stability_order": ["eli5", "shap"],
        }

    def test_no_reliability_without_exirt(self):
        stability = [StabilityRecord("shap", "gbt", {}, 1.0)]
        assert report.verdicts(("gbt", "mlp"), {}, stability) == {
            "reliability": {}, "stability_order": ["shap"]}
        # one kind has no pair to compare
        assert report.verdicts(("gbt",), {"gbt": {"0": self.cell(0.0)}}, [])["reliability"] \
            == {"0": {}}


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


finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(min_size=1, max_size=8)


@st.composite
def relevance_ranks(draw):
    features = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    n = len(features)
    scores = sorted(draw(st.lists(finite, min_size=n, max_size=n)), reverse=True)
    std = draw(st.none() | st.lists(finite, min_size=n, max_size=n))
    return RelevanceRank(features, scores, draw(names), draw(names), draw(st.floats(0.0, 1.0)),
                         std)


@st.composite
def posthoc_matrices(draw):
    labels = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    p = np.eye(len(labels))
    for i, j in zip(*np.triu_indices(len(labels), 1)):
        p[i, j] = p[j, i] = draw(st.floats(0.0, 1.0))
    return PosthocMatrix(labels, p)


@st.composite
def irt_fits(draw):
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a, b, c, theta = (draw(st.lists(st.floats(*bounds), min_size=k, max_size=k))
                      for bounds, k in ((A_BOUNDS, n), (B_BOUNDS, n), (C_BOUNDS, n),
                                        (THETA_BOUNDS, r)))
    return IrtFit(a, b, c, theta, draw(st.lists(finite, max_size=4)),
                  draw(st.integers(0, 50)), draw(st.booleans()))


def vectors(n, elements=finite):
    return st.lists(elements, min_size=n, max_size=n)


# a tree as DecisionTreeClassifier and GradientBoostedTrees store it
tree_nodes = st.recursive(
    st.builds(lambda v: {"value": v}, finite),
    lambda nodes: st.builds(lambda j, t, left, right: {"feature": j, "threshold": t,
                                                        "left": left, "right": right},
                            st.integers(0, 5), finite, nodes, nodes),
    max_leaves=6)


@st.composite
def perceptrons(draw):
    m, h = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return MultilayerPerceptron(h, draw(finite), draw(st.integers(1, 200)),
                                draw(st.integers(1, 64)), draw(vectors(m, vectors(h))),
                                draw(vectors(h)), draw(vectors(h)), draw(finite))


@st.composite
def neighbour_sets(draw, m=None):
    m, rows = m or draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return KNearestNeighbors(draw(st.integers(1, rows)), draw(vectors(rows, vectors(m))),
                             draw(vectors(rows, st.sampled_from([0.0, 1.0]))))


@st.composite
def trained_models(draw):
    features = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    estimator = draw(neighbour_sets(len(features)))
    return TrainedModel("knn", estimator, len(features), features, draw(st.integers(0, 99)),
                        {"k": estimator.k}, draw(finite))


# record type -> (strategy, encoder, decoder); the pipeline writes each of
# these records through its encoder and reads it back through its decoder
RECORDS = {
    MetricReport: (st.builds(MetricReport, finite, finite, finite, finite, finite),
                   to_record, functools.partial(from_record, MetricReport)),
    RelevanceRank: (relevance_ranks(), to_record, functools.partial(from_record, RelevanceRank)),
    StabilityRecord: (st.builds(StabilityRecord, names, names,
                                st.dictionaries(st.integers(1, 100).map(str),
                                                st.floats(-1.0, 1.0)), finite),
                      to_record, functools.partial(from_record, StabilityRecord)),
    ReliabilitySummary: (st.builds(ReliabilitySummary, finite, finite, finite, finite,
                                   st.integers(0, 10_000)),
                         to_record, functools.partial(from_record, ReliabilitySummary)),
    PosthocMatrix: (posthoc_matrices(), to_record, functools.partial(from_record, PosthocMatrix)),
    IrtFit: (irt_fits(), to_record, functools.partial(from_record, IrtFit)),
    TrainedModel: (trained_models(), to_record, functools.partial(from_record, TrainedModel)),
    GradientBoostedTrees: (st.builds(GradientBoostedTrees, st.integers(1, 200), finite,
                                     st.integers(1, 5), st.integers(1, 9), finite,
                                     st.lists(tree_nodes, max_size=3)),
                           to_record, functools.partial(from_record, GradientBoostedTrees)),
    MultilayerPerceptron: (perceptrons(), to_record,
                           functools.partial(from_record, MultilayerPerceptron)),
    DecisionTreeClassifier: (st.builds(DecisionTreeClassifier, st.none() | st.integers(1, 9),
                                       st.integers(1, 9), tree_nodes),
                             to_record, functools.partial(from_record, DecisionTreeClassifier)),
    KNearestNeighbors: (neighbour_sets(), to_record,
                        functools.partial(from_record, KNearestNeighbors)),
}

# the fields a record may omit, when None; every other field is required,
# a fitted estimator's state and a None tree depth included
OPTIONAL = {RelevanceRank: ["score_std"]}


class TestRecordCodec:
    """Every persisted record type goes through the one codec: what it
    writes survives the JSON text of its file, its keys come in field order,
    and a record with a missing or an unknown key is refused by name."""

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_field_order_and_key_refusals(self, cls, data):
        strategy, encode, decode = RECORDS[cls]
        record = data.draw(strategy)
        d = encode(record)
        text = json.dumps(d)
        assert json.dumps(encode(decode(json.loads(text)))) == text
        field_names = [f.name for f in fields(cls)]
        assert list(d) == [n for n in field_names if n in d]
        optional = OPTIONAL.get(cls, [])
        assert [f.name for f in fields(cls) if f.default is None] == optional
        assert [n for n in field_names if n not in d] == [n for n in optional
                                                          if getattr(record, n) is None]
        key = data.draw(st.sampled_from([n for n in field_names if n not in optional]))
        with pytest.raises(RecordError, match=re.escape(
                f"{cls.__name__} record keys: missing ['{key}'], unknown []")):
            decode({k: v for k, v in d.items() if k != key})
        with pytest.raises(RecordError, match=re.escape(
                f"{cls.__name__} record keys: missing [], unknown ['extra']")):
            decode(dict(d, extra=1))
