"""Dataset I/O with atomic writes, z-score standardization, stratified splitting,
level keys, the perturbation engine for the 0/4/6/10% test-set variants, and
the one codec of every persisted record: :func:`to_record`, which recurses
into nested records, and :func:`from_record`, which refuses a record whose
keys are not its fields."""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

EPSILON = 1e-12  # guard for constant columns in z-scoring

PERTURBATION_KINDS = ("noise", "permutation")


class DatasetError(ValueError):
    """Raised for malformed input data or invalid dataset operations."""


class RecordError(ValueError):
    """Raised for a persisted record whose keys are not its type's fields."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with binary labels.

    ``features`` is N x M, ``labels`` is length N with values in {0, 1}.
    Instances are immutable after construction.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        feats = _frozen(np.asarray(self.features, dtype=float))
        labs = _frozen(np.asarray(self.labels, dtype=int))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if feats.ndim != 2:
            raise DatasetError("features must be a 2-D matrix")
        n, m = feats.shape
        if m < 1:
            raise DatasetError("need at least one feature column")
        if n < 2:
            raise DatasetError("need at least two rows")
        if labs.shape != (n,):
            raise DatasetError("labels length must match the number of rows")
        if not np.all(np.isfinite(feats)):
            raise DatasetError("features contain non-finite entries")
        if not np.all((labs == 0) | (labs == 1)):
            raise DatasetError("labels must contain only 0 and 1")
        if len(set(self.feature_names)) != m:
            raise DatasetError("feature names must be unique and match M")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict:
        return {0: int(np.sum(self.labels == 0)), 1: int(np.sum(self.labels == 1))}

    def with_features(self, features: np.ndarray) -> "Dataset":
        """Same labels/names, new feature values."""
        return Dataset(features, self.labels, self.feature_names)

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)


@dataclass(frozen=True)
class PerturbationSpec:
    """How to damage a test set: gaussian noise or instance-value permutation."""

    kind: str
    fraction: float
    noise_scale: float = 1.0  # ignored for the permutation kind
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise DatasetError(f"unknown perturbation kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise DatasetError("fraction must lie in [0, 1]")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise DatasetError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")


def level_key(fraction: float) -> str:
    """The percent label of a perturbation level: 0.04 -> "4"."""
    return str(int(round(fraction * 100)))


@contextmanager
def atomic_open(path, newline=None):
    """Open ``path`` for writing text through a same-directory temp file that
    replaces it only once the block completes: never half a file.  The
    parent directory is created if missing."""
    tmp = os.fspath(path) + ".tmp"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def require_type(value, top, what: str):
    """``value``, refused with a RecordError naming ``what`` unless it is a ``top``."""
    if not isinstance(value, top):
        raise RecordError(f"{what} must be a {top.__name__}, got {type(value).__name__}")
    return value


def to_record(obj):
    """``obj`` made JSON-ready, recursively: a record dataclass becomes its
    fields in declaration order, less an optional field left at None; a
    dict's values and a list's or tuple's items are converted in turn, and
    arrays and tuples become lists."""
    if is_dataclass(obj):
        return {f.name: to_record(getattr(obj, f.name)) for f in fields(obj)
                if not (f.default is None and getattr(obj, f.name) is None)}
    if isinstance(obj, dict):
        return {k: to_record(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_record(v) for v in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def from_record(cls, d):
    """The ``cls`` record that :func:`to_record` wrote.  A record with a
    missing key (other than an omitted optional one) or an unknown key is
    refused with both lists; ``cls.__post_init__`` restores its own types,
    and a value it cannot take (a ``TypeError``) is refused too."""
    require_type(d, dict, f"{cls.__name__} record")
    names = {f.name for f in fields(cls)}
    missing = sorted(names - d.keys() - {f.name for f in fields(cls) if f.default is None})
    unknown = sorted(d.keys() - names)
    if missing or unknown:
        raise RecordError(f"{cls.__name__} record keys: missing {missing}, unknown {unknown}")
    try:
        return cls(**d)
    except TypeError as exc:
        raise RecordError(f"{cls.__name__} record: {exc}") from exc


def load_csv(path) -> Dataset:
    """Read a header-bearing numeric CSV whose last column is the 0/1 class."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DatasetError(f"dataset file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"empty file: {path}")
        if len(header) < 2:
            raise DatasetError("need at least 2 columns (one feature plus the class)")
        names = tuple(h.strip() for h in header[:-1])
        rows, labels = [], []
        for r, row in enumerate(reader, start=2):  # 1-based, header is line 1
            if len(row) != len(header):
                raise DatasetError(f"row {r} has {len(row)} cells, expected {len(header)}")
            vals = []
            for c, cell in enumerate(row):
                try:
                    v = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"non-numeric cell at row {r}, column {c + 1} ({header[c]!r}): {cell!r}")
                if not math.isfinite(v):
                    what = "missing" if math.isnan(v) else "infinite"
                    raise DatasetError(f"{what} value at row {r}, column {c + 1} ({header[c]!r})")
                vals.append(v)
            label = vals[-1]
            if label not in (0.0, 1.0):
                raise DatasetError(f"label outside {{0,1}} at row {r}: {label}")
            rows.append(vals[:-1])
            labels.append(int(label))
    if not rows:
        raise DatasetError(f"no data rows in {path}")
    return Dataset(np.array(rows, dtype=float), np.array(labels, dtype=int), names)


def save_csv(data: Dataset, path) -> None:
    """Write a dataset back out with the same schema load_csv expects."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.feature_names) + ["class"])
        for x, y in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


def zscore(train: Dataset, *others: Dataset) -> list:
    """``train`` and each of ``others`` z-scored by ``train``'s per-feature
    sample mean and stddev; a constant column's stddev is epsilon."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0, ddof=1)
    std = np.where(std < EPSILON, EPSILON, std)
    return [d.with_features((d.features - mean) / std) for d in (train, *others)]


def split(data: Dataset, train_fraction: float, seed: int):
    """Stratified train/test split.

    Train size is round(train_fraction * N); per-class counts differ from
    exact stratification by at most one.  Deterministic given the seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError("train_fraction must lie strictly between 0 and 1")
    n = data.n_rows
    n_train = int(round(train_fraction * n))
    classes = [0, 1]
    idx_by_class = {c: np.flatnonzero(data.labels == c) for c in classes}
    for c, idx in idx_by_class.items():
        if len(idx) < 2:
            raise DatasetError(f"class {c} has fewer than 2 members; cannot stratify")
    # largest-remainder allocation of the train budget across classes
    exact = {c: train_fraction * len(idx_by_class[c]) for c in classes}
    alloc = {c: int(math.floor(exact[c])) for c in classes}
    leftover = n_train - sum(alloc.values())
    order = sorted(classes, key=lambda c: (-(exact[c] - alloc[c]), c))
    for c in order[:max(leftover, 0)]:
        alloc[c] += 1
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in classes:
        perm = rng.permutation(idx_by_class[c])
        train_idx.extend(perm[:alloc[c]].tolist())
        test_idx.extend(perm[alloc[c]:].tolist())
    train_idx.sort()
    test_idx.sort()
    return data.take(train_idx), data.take(test_idx)


def perturb(test: Dataset, spec: PerturbationSpec) -> Dataset:
    """Apply the configured perturbation to a test set.

    permutation: pick ceil(fraction * N) rows, then shuffle each feature
    column independently among the picked rows (marginals preserved).
    noise: add gaussian noise of sd fraction * noise_scale * column_stddev
    to every cell.  fraction = 0 is the identity for both kinds.
    """
    if spec.fraction == 0.0:
        return test.with_features(test.features)
    rng = np.random.default_rng(spec.seed)
    x = np.array(test.features, copy=True)
    if spec.kind == "permutation":
        k = int(math.ceil(spec.fraction * test.n_rows))
        chosen = rng.choice(test.n_rows, size=k, replace=False)
        for j in range(test.n_features):
            x[chosen, j] = x[rng.permutation(chosen), j]
    else:
        col_sd = test.features.std(axis=0, ddof=1)
        sd = spec.fraction * spec.noise_scale * col_sd
        x = x + rng.normal(0.0, 1.0, size=x.shape) * sd
    return test.with_features(x)
