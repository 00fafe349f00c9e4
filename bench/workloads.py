"""Benchmark workloads: seeded input generators and the run configuration.

Every workload is a closed loop of one pipeline run at a time from a single
process.  ``--seed`` n selects dataset seed ``101 + n`` and master seed
``7 + n``, so seed 0 uses the seeds of the paper run.

The paper's full default run (768 rows, 4 models x 4 levels x 6
explainers, 4 CV folds) takes about 100 s on a 2-core machine, longer than
the whole measurement window of one benchmark run.  Below a few hundred
rows most of the time is a fixed cost per model fit and per 3PL iteration,
so fewer rows alone do not make it short enough.  Each workload therefore
keeps the models, explainers and perturbation that stress its layers, and
cuts the number of cells (levels 0 and 10% only; 3 CV folds in
paper-default, which lofo uses for its refits too), so that one run fits
the measurement window.  paper-default uses 3 folds, not 2, because with 2
the tuned gbt setting flips between seeds among settings whose fits differ
2x in cost, and run_s would measure the seed more than the code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# xaibench is imported inside the functions below: run.py imports this
# module before it has checked that the xaibench sources are present.

DATASET_SEED = 101
MASTER_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    n_rows: int
    n_positive: int
    models: tuple
    explainers: tuple
    fractions: tuple
    perturbation_kind: str = "permutation"
    coalition_budget: int = 2048
    cv_folds: int = 4
    extra_columns: bool = False  # append 4 noisy copies and 4 noise columns


ALL_MODELS = ("gbt", "mlp", "cart", "knn")
ALL_EXPLAINERS = ("dalex", "eli5", "exirt", "lofo", "shap", "skater")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-default",
        n_rows=192, n_positive=67,
        models=ALL_MODELS, explainers=ALL_EXPLAINERS, fractions=(0.0, 0.10), cv_folds=3,
    ),
    Workload(
        name="tall-items",
        n_rows=576, n_positive=201,
        models=("cart", "gbt"), explainers=("exirt", "dalex", "eli5", "skater"),
        fractions=(0.0, 0.10),
    ),
    Workload(
        name="wide-features",
        n_rows=256, n_positive=89,
        models=("mlp", "knn"), explainers=("lofo", "shap", "eli5"),
        fractions=(0.0, 0.10), perturbation_kind="noise", coalition_budget=512,
        extra_columns=True,
    ),
)}

NOISY_COPIES = ("glucose", "bmi", "age", "insulin")


def seeds(seed: int) -> tuple:
    """(dataset seed, master seed) for a workload seed."""
    return DATASET_SEED + seed, MASTER_SEED + seed


def widen(data, seed: int):
    """Append noisy copies of four real features (noise sd = half the
    column's sd) and four standard-normal noise columns: M = 16."""
    from xaibench.data import Dataset

    rng = np.random.default_rng([seed, 16])
    names = list(data.feature_names)
    cols = [data.features[:, j] for j in range(data.n_features)]
    for name in NOISY_COPIES:
        col = data.features[:, names.index(name)]
        cols.append(col + rng.normal(0.0, 0.5 * col.std(), data.n_rows))
    cols.extend(rng.normal(0.0, 1.0, data.n_rows) for _ in range(4))
    names += [f"{n}_noisy" for n in NOISY_COPIES] + [f"noise_{i}" for i in range(4)]
    return Dataset(np.column_stack(cols), data.labels, tuple(names))


def make_dataset(w: Workload, seed: int):
    """The workload's input table for ``seed``; deterministic."""
    from xaibench.datasets import make_synthetic_diabetes

    dataset_seed, _ = seeds(seed)
    data = make_synthetic_diabetes(dataset_seed, n_rows=w.n_rows, n_positive=w.n_positive)
    return widen(data, dataset_seed) if w.extra_columns else data


def make_config(w: Workload, seed: int, dataset: str, out_dir: str):
    from xaibench.pipeline import RunConfig

    _, master = seeds(seed)
    return RunConfig(dataset=dataset, out_dir=out_dir, models=w.models,
                     explainers=w.explainers, fractions=w.fractions,
                     perturbation_kind=w.perturbation_kind,
                     coalition_budget=w.coalition_budget, cv_folds=w.cv_folds,
                     master_seed=master)
