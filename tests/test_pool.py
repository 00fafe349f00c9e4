"""The fit pool: independent fits on a ``fork`` process pool give the same
bits as in this process, and no worker outlives its stage.

``models.training.fit_pool`` opens one worker per CPU in
``os.sched_getaffinity``; patching that to one CPU runs every job here.
Patching it to two CPUs makes the pool run on any machine.
"""

import multiprocessing
import multiprocessing.pool
import os
import pathlib

import numpy as np
import pytest

from xaibench import cli, pipeline
from xaibench.data import save_csv, to_record
from xaibench.datasets import make_synthetic_diabetes
from xaibench.explainers import ExplainerConfig, lofo_refits
from xaibench.models import (MODEL_KINDS, DecisionTreeClassifier, GradientBoostedTrees,
                             KNearestNeighbors, fit_pool, train)
from xaibench.models.training import fit_each
from xaibench.pipeline import PipelineError, RunConfig, run_all

from conftest import make_signal_noise_dataset


@pytest.fixture
def pool_maps(monkeypatch):
    """The job counts of every ``Pool.map`` call, recorded in this process."""
    sizes, original = [], multiprocessing.pool.Pool.map

    def counted(self, func, jobs, chunksize=None):
        sizes.append(len(jobs))
        return original(self, func, jobs, chunksize)
    monkeypatch.setattr(multiprocessing.pool.Pool, "map", counted)
    return sizes


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in pathlib.Path(root).rglob("*") if p.is_file()}


def test_output_does_not_depend_on_worker_count(tmp_path, monkeypatch, pool_maps):
    path = tmp_path / "data.csv"
    save_csv(make_synthetic_diabetes(seed=29, n_rows=160, n_positive=56), path)
    machine = len(os.sched_getaffinity(0))
    outputs = {}
    for workers in (1, max(machine, 2)):  # two on a one-CPU machine, so the pool runs
        cpus(monkeypatch, workers)
        cfg = RunConfig(dataset=str(path), out_dir=str(tmp_path / str(workers)),
                        explainers=("eli5", "exirt", "lofo"), fractions=(0.0, 0.1),
                        cv_folds=2)
        run_all(cfg)
        assert multiprocessing.active_children() == []
        outputs[workers] = tree(cfg.out_dir)
        if workers == 1:
            assert pool_maps == []
    # every kind's tuning grid and lofo refits went through the pool
    assert len(pool_maps) == 2 * len(MODEL_KINDS)
    one, many = outputs.values()
    assert sorted(one) == sorted(many)
    assert {name for name in one if one[name] != many[name]} == set()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_pooled_fits_equal_in_process_fits(kind, monkeypatch, pool_maps):
    cpus(monkeypatch, 2)
    data = make_signal_noise_dataset(n_rows=120)
    cfg = ExplainerConfig(seed=5, cv_folds=3)
    here = train(kind, data, 3, 11)
    with fit_pool() as pool:
        pooled = train(kind, data, 3, 11, pool)
        assert to_record(pooled) == to_record(here)
        got = lofo_refits(pooled, data, cfg, pool)
    want = lofo_refits(here, data, cfg)
    assert len(pool_maps) == 2
    assert len(got) == len(want) == 3
    for (base, without), (want_base, want_without) in zip(got, want):
        assert to_record(base) == to_record(want_base)
        assert [to_record(e) for e in without] == [to_record(e) for e in want_without]
    assert multiprocessing.active_children() == []


def test_fewer_than_two_jobs_or_workers_fit_here(monkeypatch, pool_maps):
    x, y = np.arange(8.0)[:, None], np.array([0, 0, 1, 1, 0, 1, 1, 1])
    for workers, n in ((1, 3), (2, 1)):
        cpus(monkeypatch, workers)
        jobs = [(KNearestNeighbors(3), x, y, None) for _ in range(n)]
        with fit_pool() as pool:
            fitted = pool(jobs)
        assert [est for est, *_ in jobs] == fitted  # fitted in place, in this process
    assert pool_maps == []


def broken_jobs():
    """Two jobs whose first fit fails: 5 rows but 4 labels."""
    x = np.arange(10.0).reshape(5, 2)
    return [(GradientBoostedTrees(n_rounds=2), x, np.array([0.0, 1.0, 0.0, 1.0]), None),
            (KNearestNeighbors(3), x, np.array([0.0, 1.0, 0.0, 1.0, 1.0]), None)]


def test_a_job_error_reaches_the_caller(monkeypatch, pool_maps):
    with pytest.raises(Exception) as here:
        fit_each(broken_jobs())
    cpus(monkeypatch, 2)
    with pytest.raises(Exception) as pooled:
        with fit_pool() as pool:
            pool(broken_jobs())
    assert pool_maps == [2]
    assert type(pooled.value) is type(here.value) is ValueError
    assert str(pooled.value) == str(here.value)
    assert multiprocessing.active_children() == []


def test_a_runtime_warning_in_a_worker_fails(monkeypatch, pool_maps):
    """pyproject.toml turns a RuntimeWarning raised inside xaibench into an
    error; a forked worker keeps that filter."""
    x, y = np.arange(4.0)[:, None], np.array([0.0, 0.0, 1e200, 1e200])  # y * y overflows
    jobs = [(DecisionTreeClassifier(1), x, y, None) for _ in range(2)]
    with pytest.raises(RuntimeWarning, match="overflow"):
        fit_each(jobs)
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeWarning, match="overflow"):
        with fit_pool() as pool:
            pool(jobs)
    assert pool_maps == [2]
    assert multiprocessing.active_children() == []


def failing_fit(self, x, y, rng=None):
    raise ValueError("this fit fails")


def stops_the_explain_stage(*args):
    raise PipelineError("explain", "stopped after the refits")


@pytest.mark.parametrize("target, name, replacement, line", [
    (KNearestNeighbors, "fit", failing_fit, "error: this fit fails\n"),
    (pipeline, "explain_eli5_style", stops_the_explain_stage,
     "error: [explain] stopped after the refits\n"),
], ids=["a-fit-in-a-worker", "a-stage-with-the-pool-open"])
def test_a_failing_run_prints_one_line(tmp_path, monkeypatch, capfd, pool_maps, target,
                                       name, replacement, line):
    """A fit that fails in a worker, or a stage that fails in this process
    while the pool is open, ends the CLI run with one error line; neither
    this process nor a worker prints a traceback."""
    cpus(monkeypatch, 2)
    path = tmp_path / "data.csv"
    save_csv(make_synthetic_diabetes(seed=29, n_rows=160, n_positive=56), path)
    monkeypatch.setattr(target, name, replacement)
    code = cli.main(["run", "--dataset", str(path), "--out", str(tmp_path / "out"),
                     "--models", "knn", "--explainers", "lofo,eli5", "--cv-folds", "2"])
    out, err = capfd.readouterr()
    assert (code, out, err) == (1, "", line)
    assert pool_maps
    assert multiprocessing.active_children() == []
