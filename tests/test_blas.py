from contextlib import contextmanager
from dataclasses import asdict

import pytest

import evopower.blas as blas
import evopower.evolution as evolution
from evopower.blas import blas_threads, one_blas_thread
from evopower.data import SplitSpec, split, synthetic_dataset
from evopower.evolution import EvolutionConfig, TaskData, run_es, run_experiment
from evopower.grammar import load_packaged_grammar

needs_openblas = pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS is not OpenBLAS")


@needs_openblas
def test_one_blas_thread_sets_one_and_restores_the_count():
    before = blas_threads()
    with one_blas_thread():
        assert blas_threads() == 1
    assert blas_threads() == before
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError("inside")
    assert blas_threads() == before


@needs_openblas
def test_run_es_trains_on_one_blas_thread(monkeypatch):
    seen = []
    generation = evolution._generation

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return generation(*args, **kwargs)

    monkeypatch.setattr(evolution, "_generation", spy)
    ds = synthetic_dataset(classes=3, samples_per_class=20, dimensions=4, separation=3.0, seed=1)
    before = blas_threads()
    run_es(EvolutionConfig(runs=1, generations=1, population_size=2),
           load_packaged_grammar("dense_only"), TaskData(*split(ds, SplitSpec((0.6, 0.2, 0.2), seed=0))))
    assert seen == [1, 1]  # generations 0 and 1
    assert blas_threads() == before


@contextmanager
def blas_thread_count(n):
    get, set_ = blas._THREAD_CONTROL
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


def task_784():
    """784 inputs, where OpenBLAS sums deep GEMMs in an order that depends
    on its thread count."""
    ds = synthetic_dataset(classes=3, samples_per_class=40, dimensions=784, separation=3.0, seed=2)
    return TaskData(*split(ds, SplitSpec((0.6, 0.2, 0.2), seed=0)))


def run_records(run):
    """Every record of a short run on 784 inputs."""
    cfg = EvolutionConfig(runs=1, generations=2, population_size=3, seed=5)
    result = run(cfg, load_packaged_grammar("dense_only"), task_784())
    return [asdict(r) for log in result.logs for r in log.records]


@needs_openblas
def test_run_es_results_do_not_depend_on_the_blas_thread_count():
    with blas_thread_count(2):
        two = run_records(run_es)
    with blas_thread_count(1):
        one = run_records(run_es)
    assert one == two


@needs_openblas
def test_run_experiment_weight_dump_does_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = EvolutionConfig(runs=1, generations=1, population_size=2, seed=5)
    dumps = []
    for threads in (2, 1):
        out = tmp_path / f"threads_{threads}"
        with blas_thread_count(threads):
            run_experiment(cfg, "baseline", load_packaged_grammar("dense_only"), task_784(), out)
        dumps.append((out / "best_weights.bin").read_bytes())
    assert dumps[0] == dumps[1]
