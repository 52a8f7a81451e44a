import copy
import dataclasses
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from evopower.analysis import best_per_run_generation, final_best_per_run, load_experiment_rows
from evopower.config import AppConfig
from evopower.data import SplitSpec, split, synthetic_dataset
from evopower.errors import (
    CheckpointError,
    ConfigError,
    MeasurementError,
    TrainingDivergedError,
)
from evopower.evolution import (
    EvaluationRecord,
    EvolutionConfig,
    Member,
    TaskData,
    best_slot,
    evaluation_record,
    measure_individual,
    mode_config,
    rank,
    read_rows,
    run_es,
    run_experiment,
    select_parent,
)
from evopower.fitness import WORST_FITNESS, FitnessConfig, evaluate_fitness
from evopower.genome import GenomeConfig, LayerSpec, PhenotypeSpec, init_individual, load_typed
from evopower.grammar import load_packaged_grammar
from evopower.mutation import MutationRates
from evopower.network import DTYPE, Network, build, load_weights, save_weights, train
from evopower.power import AnalyticMeter, AnalyticMeterConfig, ScriptedMeter

GRAMMAR = load_packaged_grammar("dense_only")


def tiny_data(seed=1):
    ds = synthetic_dataset(classes=3, samples_per_class=30, dimensions=6,
                           separation=3.0, seed=seed)
    train, validation, test = split(ds, SplitSpec((0.6, 0.2, 0.2), seed=0))
    return TaskData(train, validation, test)


DATA = tiny_data()


def tiny_config(**overrides):
    base = dict(
        runs=2,
        generations=3,
        population_size=4,
        default_train_budget=2.0,
        train_longer_increment=1.0,
        max_train_budget=6.0,
        n_measures=3,
        seed=11,
        genome=GenomeConfig(min_layers=2, max_layers=4, init_layers_min=2, init_layers_max=3),
    )
    base.update(overrides)
    return EvolutionConfig(**base)


def zero_rates(**overrides):
    base = dict(add_layer=0.0, reuse_layer=0.0, remove_layer=0.0, reuse_module=0.0,
                remove_module=0.0, dsge_level=0.0, macro_layer=0.0, train_longer=0.0)
    base.update(overrides)
    return MutationRates(**base)


def rec(individual=0, fitness=1.0, power=50.0):
    return EvaluationRecord(individual, fitness, 0.8, 0.7, power, 40.0, 2, 0, 2.0)


def evaluate_individual(ind, meter, cfg, rng):
    """``ind``'s measured outcome on DATA and the record a live run builds from it."""
    outcome = measure_individual(ind, GRAMMAR, DATA, meter, cfg, rng)
    return outcome, evaluation_record(ind, outcome, GRAMMAR, cfg, len(DATA.validation))


def test_config_round_trip_and_validation():
    cfg = tiny_config()
    again = AppConfig.from_flat(AppConfig(evolution=cfg).to_flat()).evolution
    assert dataclasses.asdict(again) == dataclasses.asdict(cfg)
    assert cfg.offspring == 3

    with pytest.raises(ConfigError):
        tiny_config(population_size=1).validate()
    with pytest.raises(ConfigError):
        tiny_config(generations=0).validate()
    with pytest.raises(ConfigError):
        tiny_config(max_train_budget=1.0).validate()
    with pytest.raises(ConfigError, match="unknown config keys"):
        AppConfig.from_flat({"evolution.rates.bogus": "1"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        AppConfig.from_flat({"fitness.bogus": "1"})


def test_fingerprint_ignores_scale_knobs():
    fp = tiny_config().fingerprint()
    assert tiny_config().fingerprint() == fp
    assert tiny_config(runs=7).fingerprint() == fp
    assert tiny_config(generations=9).fingerprint() == fp
    assert tiny_config(seed=12).fingerprint() != fp
    assert tiny_config(rates=zero_rates()).fingerprint() != fp


def test_best_slot_and_select_parent():
    assert best_slot([rec(0, 1.2), rec(1, 1.9), rec(2, 1.5)]) == 1
    assert best_slot([rec(0, 1.5, power=70.0), rec(1, 1.5, power=60.0)]) == 1
    assert best_slot([rec(5, 1.5), rec(2, 1.5)]) == 1
    assert best_slot([rec(0, WORST_FITNESS), rec(1, 0.1)]) == 1
    ind = init_individual(GRAMMAR, tiny_config().genome, np.random.default_rng(0))
    population = [Member(ind, rec(0, 1.0), (0, 0)), Member(ind, rec(1, 2.0), (0, 1))]
    assert select_parent(population) is population[1]
    with pytest.raises(ValueError):
        best_slot([])


def test_rank_orders_fitness_then_left_power_then_ids():
    assert rank(2.0, 90.0, 9) < rank(1.0, 10.0, 0)
    assert rank(1.0, 10.0, 9) < rank(1.0, 20.0, 0)
    assert rank(1.0, 10.0, 0, 9) < rank(1.0, 10.0, 1, 0)  # run before individual
    assert rank(1.0, 10.0, 1, 0) < rank(1.0, 10.0, 1, 2)


@pytest.mark.parametrize("order", itertools.permutations(range(4)))
def test_best_slot_and_analyze_break_ties_alike(order):
    # two ties on fitness and left power, one broken by power, one by id
    pool = [rec(7, 1.5, power=60.0), rec(3, 1.5, power=60.0), rec(1, 1.5, power=70.0),
            rec(0, 1.4, power=10.0)]
    records = [pool[i] for i in order]
    rows = [{"run": 0, "generation": 0, **dataclasses.asdict(r)} for r in records]
    picked = best_per_run_generation(rows)[(0, 0)]["individual"]
    assert records[best_slot(records)].individual == picked == 3


def journal_lines(run_dir):
    text = (run_dir / "checkpoints" / "journal.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def write_journal(run_dir, lines):
    path = run_dir / "checkpoints" / "journal.jsonl"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def test_evaluate_individual_deterministic_and_consistent():
    cfg = tiny_config()
    ind = init_individual(GRAMMAR, cfg.genome, np.random.default_rng(3), id=0,
                          train_budget=2.0)
    o1, r1 = evaluate_individual(ind, AnalyticMeter(cfg.meter), cfg, np.random.default_rng(7))
    o2, r2 = evaluate_individual(ind, AnalyticMeter(cfg.meter), cfg, np.random.default_rng(7))
    assert r1 == r2 and o1 == o2
    assert type(o1.correct_left) is type(o1.correct_right) is int
    n = len(DATA.validation)
    assert (r1.acc_left, r1.acc_right) == (o1.correct_left / n, o1.correct_right / n)
    assert not r1.diverged
    assert 0.0 <= r1.acc_left <= 1.0 and 0.0 <= r1.acc_right <= 1.0
    assert 30.0 <= r1.power_right_w <= r1.power_left_w <= 100.0
    assert r1.fitness_consistent(cfg.fitness)


def test_power_metered_on_validation_inference_only():
    cfg = tiny_config()
    meter = ScriptedMeter([(5000.0, 0.5)], cycle=True)
    ind = init_individual(GRAMMAR, cfg.genome, np.random.default_rng(3))
    _, record = evaluate_individual(ind, meter, cfg, np.random.default_rng(7))
    # two partitions, n_measures windows each; training touched no meter
    assert meter.start_count == 2 * cfg.n_measures
    assert record.power_left_w == 10.0
    assert record.power_right_w == 10.0
    assert record.fitness == evaluate_fitness(cfg.fitness, record.acc_left,
                                              record.acc_right, 10.0)


def test_task_data_holds_its_splits_in_the_network_dtype():
    ds = synthetic_dataset(classes=3, samples_per_class=10, dimensions=4, separation=3.0)
    parts = split(ds, SplitSpec((0.6, 0.2, 0.2), seed=0))
    assert all(part.samples.dtype == np.float64 for part in parts)
    data = TaskData(*parts)
    for part, held in zip(parts, (data.train, data.validation, data.test)):
        assert held.samples.dtype == DTYPE
        assert held.samples.tobytes() == part.samples.astype(DTYPE).tobytes()
        assert part.samples.dtype == np.float64  # the caller's datasets are left as they were
    # float32 splits are kept, not copied
    again = TaskData(data.train, data.validation, data.test)
    assert again.train.samples is data.train.samples


def test_train_on_task_data_allocates_no_copy_of_the_training_split():
    ds = synthetic_dataset(classes=10, samples_per_class=60, dimensions=784, separation=3.0)
    data = TaskData(*split(ds, SplitSpec((0.6, 0.2, 0.2), seed=0)))
    x = data.train.samples
    assert x.dtype == DTYPE and x.nbytes > 1_000_000
    spec = PhenotypeSpec((LayerSpec("dense", units=16, activation="relu"),), 0, 0.05, 32)
    net = build(spec, 784, 10, np.random.default_rng(0))
    tracemalloc.start()
    try:
        train(net, x, data.train.labels, 1, 0.05, 32, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # batches, activations and steps are a few hundred kB; a cast of the
    # split would be all of it
    assert peak < x.nbytes / 2


def test_divergence_maps_to_worst_fitness(monkeypatch):
    import evopower.evolution as evo

    def explode(*args, **kwargs):
        raise TrainingDivergedError("boom")

    monkeypatch.setattr(evo, "train", explode)
    cfg = tiny_config()
    ind = init_individual(GRAMMAR, cfg.genome, np.random.default_rng(3))
    outcome, record = evaluate_individual(ind, AnalyticMeter(cfg.meter), cfg,
                                          np.random.default_rng(7))
    assert json.dumps(outcome) == "[0, 0, 0.0, 0.0, NaN]"
    assert record.diverged and record.epochs_run == 0
    assert record.fitness == WORST_FITNESS
    assert record.acc_left == 0.0 and record.power_left_w == 0.0
    assert record.fitness_consistent(cfg.fitness)


def test_run_es_accounting_elitism_and_csv(tmp_path):
    cfg = tiny_config(runs=1, generations=4)
    result = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r0")
    assert len(result.logs) == cfg.generations + 1
    assert result.evaluations == (cfg.population_size
                                  + cfg.offspring * cfg.generations
                                  + result.parent_retrains)
    best_series = [log.best_record.fitness for log in result.logs]
    assert all(b >= a for a, b in zip(best_series, best_series[1:]))
    assert result.best_record.fitness == best_series[-1]
    for log in result.logs:
        assert log.best_slot == best_slot(log.records)
        assert len(log.records) == cfg.population_size

    rows = read_rows(tmp_path / "r0" / "generations.csv")
    assert len(rows) == (cfg.generations + 1) * cfg.population_size
    for row in rows:
        if row["fitness"] != WORST_FITNESS:
            assert row["fitness"] == evaluate_fitness(cfg.fitness, row["acc_left"],
                                                      row["acc_right"],
                                                      row["power_left_w"])
    best_payload = json.loads((tmp_path / "r0" / "best.json").read_text())
    assert best_payload["record"]["fitness"] == result.best_record.fitness


def test_scripted_meter_measurement_accounting():
    cfg = tiny_config(runs=1, generations=3, n_measures=2,
                      rates=MutationRates(reuse_module=0.0))
    meter = ScriptedMeter([(60000.0, 1.0)], cycle=True)
    result = run_es(cfg, GRAMMAR, DATA, meter=meter)
    assert result.evaluations == (cfg.population_size
                                  + cfg.offspring * cfg.generations
                                  + result.parent_retrains)
    assert meter.start_count == 2 * cfg.n_measures * result.evaluations


def test_zero_rates_keep_population_constant(tmp_path, monkeypatch):
    import evopower.evolution as evo

    evaluated = []
    plain = evo.measure_individual
    monkeypatch.setattr(evo, "measure_individual",
                        lambda ind, *args: evaluated.append(ind) or plain(ind, *args))
    cfg = tiny_config(runs=1, generations=3, rates=zero_rates())
    result = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r0")
    assert result.parent_retrains == 0
    for prev, cur in zip(result.logs, result.logs[1:]):
        assert cur.records[0] == prev.best_record  # parent carried forward
        assert cur.best_record.fitness >= prev.best_record.fitness
    # every offspring is a copy of the first parent, and only offspring are scored
    assert len(evaluated) == cfg.population_size + cfg.offspring * cfg.generations
    later = {ind.genotype_key() for ind in evaluated[cfg.population_size:]}
    assert later == {result.best.genotype_key()}
    lines = journal_lines(tmp_path / "r0")
    assert [len(line[1]) for line in lines[2:]] == [cfg.offspring] * cfg.generations


def test_byte_identical_reruns(tmp_path):
    cfg = tiny_config(runs=1, generations=3, seed=5)
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "a")
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "b", resume=False)
    bytes_a = (tmp_path / "a" / "generations.csv").read_bytes()
    assert bytes_a == (tmp_path / "b" / "generations.csv").read_bytes()

    # measurement noise comes from per-slot streams, so it reruns exactly too
    noisy = tiny_config(runs=1, generations=2, seed=5,
                        meter=AnalyticMeterConfig(noise_sigma=2.0))
    run_es(noisy, GRAMMAR, DATA, out_dir=tmp_path / "d")
    run_es(noisy, GRAMMAR, DATA, out_dir=tmp_path / "e", resume=False)
    assert ((tmp_path / "d" / "generations.csv").read_bytes()
            == (tmp_path / "e" / "generations.csv").read_bytes())


def tree_bytes(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_two_fresh_experiments_write_identical_trees(tmp_path):
    # every file, journals and best files included: measurement noise comes
    # from keyed streams, and nothing that a run writes is timed
    cfg = tiny_config(runs=2, generations=2, seed=5, meter=AnalyticMeterConfig(noise_sigma=0.5))
    for name in ("a", "b"):
        run_experiment(cfg, "proposed", GRAMMAR, DATA, tmp_path / name)
    first = tree_bytes(tmp_path / "a")
    assert {"best_genotype.json", "best_weights.bin", "run_1/best.json",
            "run_1/checkpoints/journal.jsonl"} <= set(first)
    assert tree_bytes(tmp_path / "b") == first


def test_skipping_analytic_workload_keeps_results_identical(tmp_path, monkeypatch):
    forwards = []
    plain_forward = Network.forward

    def counting_forward(self, *args, **kwargs):
        forwards.append(kwargs.get("tape") is not None)
        return plain_forward(self, *args, **kwargs)

    monkeypatch.setattr(Network, "forward", counting_forward)
    cfg = mode_config(tiny_config(runs=1, generations=3, seed=5,
                                  meter=AnalyticMeterConfig(noise_sigma=2.0)), "proposed")
    stock = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "stock")
    stock_inference = forwards.count(False)
    assert stock.archive.entries  # probing ran

    # the engine builds a fresh AnalyticMeter per measurement, so force the
    # workload on the class rather than through a subclass passed as meter=
    forwards.clear()
    monkeypatch.setattr(AnalyticMeter, "runs_workload", True)
    forced = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "forced")
    assert forwards.count(False) > stock_inference  # the workload really ran

    assert ((tmp_path / "stock" / "generations.csv").read_bytes()
            == (tmp_path / "forced" / "generations.csv").read_bytes())
    assert ([e.power_watts for e in stock.archive.entries]
            == [e.power_watts for e in forced.archive.entries])


def test_resume_completes_to_identical_csv(tmp_path):
    cfg = tiny_config(runs=1, generations=4, seed=9)
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "full")

    shorter = dataclasses.replace(cfg, generations=2)
    run_es(shorter, GRAMMAR, DATA, out_dir=tmp_path / "resumed")
    assert len(read_rows(tmp_path / "resumed" / "generations.csv")) == 3 * 4

    resumed = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "resumed")
    assert ((tmp_path / "full" / "generations.csv").read_bytes()
            == (tmp_path / "resumed" / "generations.csv").read_bytes())
    assert resumed.evaluations == (cfg.population_size
                                   + cfg.offspring * cfg.generations
                                   + resumed.parent_retrains)
    # resuming a finished run re-evaluates nothing and reproduces the result
    again = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "resumed")
    assert again.best_record == resumed.best_record


def test_resuming_with_fewer_generations_matches_a_fresh_run(tmp_path):
    # replay stops after the configured generation and leaves the later
    # lines for a longer run
    longer = tiny_config(runs=1, generations=4, seed=9)
    shorter = dataclasses.replace(longer, generations=2)
    run_experiment(longer, "proposed", GRAMMAR, DATA, tmp_path / "resumed")
    journal = tmp_path / "resumed" / "run_0" / "checkpoints" / "journal.jsonl"
    kept = journal.read_bytes()
    resumed = run_experiment(shorter, "proposed", GRAMMAR, DATA, tmp_path / "resumed")
    fresh = run_experiment(shorter, "proposed", GRAMMAR, DATA, tmp_path / "fresh")

    assert journal.read_bytes() == kept
    for name in ("run_0/generations.csv", "aggregate.csv"):
        assert ((tmp_path / "resumed" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes())
    assert len(resumed.runs[0].logs) == shorter.generations + 1

    assert ((tmp_path / "resumed" / "best_genotype.json").read_bytes()
            == (tmp_path / "fresh" / "best_genotype.json").read_bytes())
    assert resumed.best_record == fresh.best_record
    again = run_experiment(longer, "proposed", GRAMMAR, DATA, tmp_path / "resumed")
    assert journal.read_bytes() == kept
    assert len(again.runs[0].logs) == longer.generations + 1


def test_genotype_digest_tells_every_field_and_type_apart():
    import evopower.evolution as evo

    ind = init_individual(GRAMMAR, tiny_config().genome, np.random.default_rng(4), id=3,
                          train_budget=2.0)
    ind.macro.middle_point = 1

    def float_units(i):
        group = i.modules[0].layer_genes[0].values["units"][0]
        group[0] = float(group[0])

    digests = {evo._genotypes_digest([(0, ind)])}
    changes = [
        lambda i: setattr(i, "id", 4),
        lambda i: setattr(i, "train_budget", 3.0),
        lambda i: setattr(i.macro, "middle_point", 0),
        lambda i: i.modules[0].layer_genes[0].choices["activation"].append(0),
        lambda i: i.macro.genes["learning"].values["batch"][0].append(32),
        lambda i: i.modules.append(i.modules[0].copy()),
        # equal values of another type
        lambda i: setattr(i.macro, "middle_point", True),
        float_units,
    ]
    for change in changes:
        variant = ind.copy()
        change(variant)
        digests.add(evo._genotypes_digest([(0, variant)]))
    assert len(digests) == 1 + len(changes)


def log_digest(result):
    """The run's logs; json so that nan equals nan."""
    return json.dumps([(log.generation, log.best_slot, [dataclasses.asdict(r) for r in log.records])
                       for log in result.logs])


def archive_digest(result):
    return [(e.module.genotype_key(), e.power_watts) for e in result.archive.entries]


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("stale", ["other_seed", "other_data", "other_data_cut_short"])
def test_fresh_start_replaces_a_stale_journal(tmp_path, monkeypatch, stale):
    import evopower.evolution as evo

    cfg = tiny_config(runs=1, generations=2, seed=6)
    data = tiny_data(seed=2)
    reference = run_es(cfg, GRAMMAR, data, out_dir=tmp_path / "reference")

    # a longer run of another seed, or of the same config on other data
    older_cfg, older_data = ((tiny_config(runs=1, generations=3, seed=5), data)
                             if stale == "other_seed"
                             else (dataclasses.replace(cfg, generations=3), DATA))
    run_es(older_cfg, GRAMMAR, older_data, out_dir=tmp_path / "r")
    if stale == "other_data_cut_short":
        # the fresh start dies before it finishes generation 0
        def interrupt(*args, **kwargs):
            raise Interrupted

        monkeypatch.setattr(evo, "train", interrupt)
        with pytest.raises(Interrupted):
            run_es(cfg, GRAMMAR, data, out_dir=tmp_path / "r", resume=False)
        monkeypatch.undo()
    else:
        run_es(dataclasses.replace(cfg, generations=1), GRAMMAR, data,
               out_dir=tmp_path / "r", resume=False)
    resumed = run_es(cfg, GRAMMAR, data, out_dir=tmp_path / "r")

    assert log_digest(resumed) == log_digest(reference)
    assert ((tmp_path / "r" / "generations.csv").read_bytes()
            == (tmp_path / "reference" / "generations.csv").read_bytes())


@pytest.mark.parametrize("torn", [False, True])
def test_resume_after_an_interruption_at_every_generation(tmp_path, monkeypatch, torn):
    import evopower.evolution as evo

    cfg = tiny_config(runs=1, generations=3, seed=9, meter=AnalyticMeterConfig(noise_sigma=2.0))
    full = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "full")
    expected = (tmp_path / "full" / "generations.csv").read_bytes()
    append_rows = evo._append_rows_csv
    for cut in range(cfg.generations + 1):
        out = tmp_path / f"cut_{cut}"

        def interrupt(path, rows):
            # generation `cut` is in the journal, but its rows are not in the CSV
            if rows[0]["generation"] == cut:
                raise Interrupted
            append_rows(path, rows)

        monkeypatch.setattr(evo, "_append_rows_csv", interrupt)
        with pytest.raises(Interrupted):
            run_es(cfg, GRAMMAR, DATA, out_dir=out)
        monkeypatch.setattr(evo, "_append_rows_csv", append_rows)
        journal = out / "checkpoints" / "journal.jsonl"
        if torn:
            # as if the interruption hit halfway through writing that line
            lines = journal.read_text().splitlines(keepends=True)
            journal.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        resumed = run_es(cfg, GRAMMAR, DATA, out_dir=out)
        assert (out / "generations.csv").read_bytes() == expected
        assert journal.read_text().endswith("\n")
        assert [line[0] for line in journal_lines(out)[1:]] == [0, 1, 2, 3]
        assert log_digest(resumed) == log_digest(full)
        assert archive_digest(resumed) == archive_digest(full)
        assert (resumed.evaluations, resumed.parent_retrains) == (full.evaluations,
                                                                  full.parent_retrains)


def test_checkpoint_corruption_and_mismatches(tmp_path):
    cfg = tiny_config(runs=1, generations=2, seed=5)
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")
    journal = tmp_path / "r" / "checkpoints" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)

    journal.write_text("".join(lines[:2]) + "{broken\n")
    with pytest.raises(CheckpointError, match="unreadable checkpoint"):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")

    journal.write_text("".join(lines[:2]) + '[1]\n')
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")

    journal.write_text("".join([lines[0], lines[2]]))
    with pytest.raises(CheckpointError, match="not generation 0"):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")

    journal.write_text(json.dumps({"version": 99}) + "\n")
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")

    # a fresh start ignores the damage and rewrites the checkpoints
    result = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r", resume=False)
    assert result.best_record.fitness >= WORST_FITNESS

    other_seed = tiny_config(runs=1, generations=2, seed=6)
    with pytest.raises(CheckpointError, match="does not match"):
        run_es(other_seed, GRAMMAR, DATA, out_dir=tmp_path / "r")
    with pytest.raises(CheckpointError, match="belongs to run"):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r", run_index=1)


def test_journal_of_another_grammar_is_a_checkpoint_error(tmp_path):
    # the fingerprint does not cover the grammar; the genotype digest of the
    # first line does, since another grammar draws other initial individuals
    cfg = tiny_config(runs=1, generations=2, seed=5)
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")
    other = load_packaged_grammar("default")
    with pytest.raises(CheckpointError,
                       match=r"journal\.jsonl line 2: in genotypes: '[0-9a-f]{16}' is not the digest"):
        run_es(cfg, other, DATA, out_dir=tmp_path / "r")


def test_resuming_a_finished_run_trains_probes_and_meters_nothing(tmp_path, monkeypatch):
    import evopower.evolution as evo

    cfg = mode_config(tiny_config(runs=1, generations=3, seed=10,
                                  meter=AnalyticMeterConfig(noise_sigma=2.0)), "proposed")
    full = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)
    assert full.archive.entries and full.parent_retrains  # probes and retrains replay too
    csv_bytes = (tmp_path / "generations.csv").read_bytes()

    def forbidden(*args, **kwargs):
        raise AssertionError("a finished run was evaluated again")

    for name in ("train", "probe_module_power", "measure_mean"):
        monkeypatch.setattr(evo, name, forbidden)
    for name in ("observe", "start", "stop", "read"):
        monkeypatch.setattr(AnalyticMeter, name, forbidden)
    again = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)
    assert log_digest(again) == log_digest(full)
    assert archive_digest(again) == archive_digest(full)
    assert (again.evaluations, again.parent_retrains) == (full.evaluations, full.parent_retrains)
    assert (again.best, again.best_record, again.best_eval_key) == (
        full.best, full.best_record, full.best_eval_key)
    assert (tmp_path / "generations.csv").read_bytes() == csv_bytes


@pytest.mark.parametrize("watts", [math.nan, math.inf, -1.0])
def test_journal_archive_insert_that_is_unusable_is_a_checkpoint_error(tmp_path, watts):
    # resume rebuilds the archive from the regenerated members' modules and
    # the journaled watts; a NaN power would poison every roulette draw
    cfg = tiny_config(runs=1, generations=2, seed=5)
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")
    journal = tmp_path / "r" / "checkpoints" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    first = json.loads(lines[1])
    assert first[2]
    first[2][0] = watts
    message = r"in probe_watts\[0\] \(member 0, module 0\): power must be finite"
    journal.write_text(lines[0] + json.dumps(first) + "\n" + "".join(lines[2:]))
    with pytest.raises(CheckpointError, match=r"journal\.jsonl line 2: " + message):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")


def test_journal_lines_are_the_positional_serialization(tmp_path):
    # a line holds only outcomes: one 5-value row per evaluation, a
    # rejected retrain's included, the probes' watts and a genotype digest
    import evopower.evolution as evo

    cfg = mode_config(tiny_config(runs=1, generations=4, seed=10,
                                  meter=AnalyticMeterConfig(noise_sigma=2.0)), "proposed")
    result = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)
    header, *written = (tmp_path / "checkpoints" / "journal.jsonl").read_text().splitlines()
    n = len(DATA.validation)
    assert header == json.dumps({"version": 8, "fingerprint": cfg.fingerprint(), "run": 0,
                                 "validation": n}, separators=(",", ":"))
    raw = [json.loads(text) for text in written]
    lines = [load_typed(evo._JournalLine, doc) for doc in raw]
    for text, doc, line in zip(written, raw, lines):
        assert len(doc) == 4
        # the counts are ints; an accuracy k / n is never written
        assert all(len(row) == 5 and type(row[0]) is type(row[1]) is int for row in doc[1])
        assert text == json.dumps(line, separators=(",", ":"))
    assert [line.generation for line in lines] == list(range(cfg.generations + 1))
    assert sum(len(line.outcomes) for line in lines) == result.evaluations
    retrains = sum(len(line.outcomes) > cfg.offspring for line in lines[1:])
    assert retrains == result.parent_retrains > 0
    # every logged record is built from a journaled row, its accuracies
    # the row's counts over the validation size
    def measured(row):
        return json.dumps([row[0] / n, row[1] / n, *row[2:]])

    def recorded(rec):
        return json.dumps([rec.acc_left, rec.acc_right, rec.power_left_w, rec.power_right_w,
                           rec.final_loss])

    rows = {measured(row) for doc in raw for row in doc[1]}
    assert all(recorded(rec) in rows for log in result.logs for rec in log.records)
    # a rejected retrain is journaled, though the log keeps the parent's record
    assert any(len(line.outcomes) > cfg.offspring
               and measured(line.outcomes[0]) != recorded(log.records[0])
               for line, log in zip(lines[1:], result.logs[1:]))
    assert sum(len(line.probe_watts) for line in lines) > 0


# a generation line is [generation, outcomes, probe_watts, genotypes]
def _null_record(lines):
    lines[1][1][2] = None
    return r"line 2: _JournalLine\.outcomes\[2\]: expected a list of 5 values, got None"


def _extra_record(lines):
    lines[1][1].append(lines[1][1][0])
    return r"line 2: in outcomes: 5 rows for 4 evaluations"


def _missing_record(lines):
    lines[2][1].pop()
    return r"line 3: in outcomes: \d rows for \d evaluations"


def _other_genotypes(lines):
    lines[2][3] = "0" * 16
    return r"line 3: in genotypes: '0{16}' is not the digest [0-9a-f]{16}"


def _extra_probe_watts(lines):
    lines[1][2].append(1.0)
    return r"line 2: in probe_watts: \d+ values for \d+ unprobed modules"


def _missing_probe_watts(lines):
    lines[1][2].pop()
    return r"line 2: in probe_watts: \d+ values for \d+ unprobed modules"


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    cfg = tiny_config(runs=1, generations=3, seed=5)
    out = tmp_path_factory.mktemp("journal")
    run_es(cfg, GRAMMAR, DATA, out_dir=out)
    lines = journal_lines(out)
    assert lines[0]["version"] == 8 and lines[0]["validation"] == 18 and lines[1][2]
    return cfg, lines


@pytest.mark.parametrize("damage", [
    _null_record, _extra_record, _missing_record, _other_genotypes, _extra_probe_watts,
    _missing_probe_watts,
])
def test_journal_slot_faults_are_checkpoint_errors(tmp_path, journal, damage):
    cfg, lines = journal
    lines = copy.deepcopy(lines)
    message = damage(lines)
    write_journal(tmp_path, lines)
    with pytest.raises(CheckpointError, match=r"journal\.jsonl " + message):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)


def _set(field, value):
    def damage(row):
        row[field] = value
    return damage


_NOT_A_DIVERGENCE = r"in outcomes\[1\]\.final_loss: a nan loss marks a divergence, which holds zeros"


@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda row: row.pop(),
                 r"outcomes\[1\]: expected a list of 5 values", id="short_row"),
    pytest.param(lambda row: row.append(0.0),
                 r"outcomes\[1\]: expected a list of 5 values", id="long_row"),
    pytest.param(_set(0, 3.0),
                 r"outcomes\[1\]\.correct_left: expected <class 'int'>", id="count_as_float"),
    pytest.param(_set(1, True),
                 r"outcomes\[1\]\.correct_right: expected <class 'int'>", id="count_as_bool"),
    pytest.param(_set(0, "3"),
                 r"outcomes\[1\]\.correct_left: expected <class 'int'>", id="count_as_text"),
    pytest.param(_set(3, None),
                 r"outcomes\[1\]\.power_right_w: expected <class 'float'>", id="null_power"),
    pytest.param(_set(0, 19),
                 r"in outcomes\[1\]\.correct_left: count must be in \[0, 18\], got 19",
                 id="count_above_n"),
    pytest.param(_set(1, -1),
                 r"in outcomes\[1\]\.correct_right: count must be in \[0, 18\], got -1",
                 id="count_below_0"),
    pytest.param(_set(2, 0.0),
                 r"in outcomes\[1\]\.power_left_w: power must be finite and > 0, got 0\.0",
                 id="power_zero"),
    pytest.param(_set(2, -3.0),
                 r"in outcomes\[1\]\.power_left_w: power must be finite and > 0",
                 id="power_negative"),
    pytest.param(_set(3, math.inf),
                 r"in outcomes\[1\]\.power_right_w: power must be finite and > 0", id="power_inf"),
    pytest.param(_set(3, math.nan),
                 r"in outcomes\[1\]\.power_right_w: power must be finite and > 0", id="power_nan"),
    pytest.param(_set(4, math.inf),
                 r"in outcomes\[1\]\.final_loss: loss must be finite, or nan for a divergence",
                 id="loss_inf"),
    pytest.param(_set(4, -math.inf),
                 r"in outcomes\[1\]\.final_loss: loss must be finite, or nan for a divergence",
                 id="loss_minus_inf"),
    # a nan loss marks a divergence, which journals zeros; any other row
    # with one would be replayed into the logs, the CSV and best.json
    pytest.param(_set(4, math.nan), _NOT_A_DIVERGENCE, id="nan_loss_with_measurements"),
    pytest.param(lambda row: row.__setitem__(slice(None), [0, 3, 0.0, 0.0, math.nan]),
                 _NOT_A_DIVERGENCE, id="nan_loss_with_a_count"),
    pytest.param(lambda row: row.__setitem__(slice(None), [0, 0, 0.0, 12.0, math.nan]),
                 _NOT_A_DIVERGENCE, id="nan_loss_with_a_power"),
])
def test_journal_rows_no_evaluation_makes_are_checkpoint_errors(tmp_path, journal, damage,
                                                                  message):
    # refused before the fitness, which raises ValueError on a power <= 0
    cfg, lines = journal
    lines = copy.deepcopy(lines)
    assert not math.isnan(lines[3][1][1][4])
    damage(lines[3][1][1])
    write_journal(tmp_path, lines)
    with pytest.raises(CheckpointError, match=r"journal\.jsonl line 4: .*" + message):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)


def test_a_diverged_row_is_replayed_at_the_worst_fitness(tmp_path, journal):
    # a diverged row scores the worst; the last slot of the last line, so
    # that no later line depends on it
    cfg, lines = journal
    write_journal(tmp_path, lines)
    intact = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path).logs[-1].records[-1]
    # a finished training ran its whole epoch budget
    assert not intact.diverged and intact.epochs_run == round(intact.train_budget_epochs) >= 1
    lines = copy.deepcopy(lines)
    lines[-1][1][-1] = [0, 0, 0.0, 0.0, math.nan]
    write_journal(tmp_path, lines)
    record = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path).logs[-1].records[-1]
    assert record.diverged and record.fitness == WORST_FITNESS
    assert (record.acc_left, record.acc_right, record.power_left_w, record.power_right_w,
            record.epochs_run) == (0.0, 0.0, 0.0, 0.0, 0)
    assert math.isnan(record.final_loss)
    for name in ("individual", "hidden_layers", "middle_point", "train_budget_epochs"):
        assert getattr(record, name) == getattr(intact, name)


@pytest.mark.parametrize("mode", ["baseline", "proposed"])
def test_a_zero_watt_measurement_is_refused_live_as_on_replay(tmp_path, mode):
    # replay refuses a 0 W row, so a live run must not journal one, even
    # where the fitness ignores power (baseline mode)
    cfg = mode_config(tiny_config(runs=1, generations=1), mode)
    dead = ScriptedMeter([(0.0, 1.0)], cycle=True)
    with pytest.raises(MeasurementError, match=r"power_left_w: power must be finite and > 0"):
        run_es(cfg, GRAMMAR, DATA, meter=dead, out_dir=tmp_path)
    assert len(journal_lines(tmp_path)) == 1  # the header alone
    # the resume finds no finished generation and runs afresh
    meter = ScriptedMeter([(5000.0, 0.5)], cycle=True)
    resumed = run_es(cfg, GRAMMAR, DATA, meter=meter, out_dir=tmp_path)
    assert len(resumed.logs) == cfg.generations + 1
    fresh = run_es(cfg, GRAMMAR, DATA, meter=ScriptedMeter([(5000.0, 0.5)], cycle=True),
                   out_dir=tmp_path / "fresh")
    assert ([r for log in resumed.logs for r in log.records]
            == [r for log in fresh.logs for r in log.records])
    assert run_es(cfg, GRAMMAR, DATA, meter=dead, out_dir=tmp_path).best == resumed.best


@pytest.mark.parametrize("header", [4, [4], None, "x"])
def test_journal_header_that_is_not_an_object_is_a_checkpoint_error(tmp_path, header):
    cfg = tiny_config(runs=1, generations=1)
    journal = tmp_path / "checkpoints" / "journal.jsonl"
    journal.parent.mkdir()
    journal.write_text(json.dumps(header) + "\n")
    with pytest.raises(CheckpointError, match="header is not an object"):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)


def earlier_journal_body(version, cfg, lines):
    """The generation lines of a version-``version`` journal."""
    generation, outcomes, probe_watts, genotypes = lines[1]
    if version == 5:
        # version 5 stored a 13-key record per evaluation
        record = dataclasses.asdict(rec())
        return [{"generation": 0, "records": [record] * cfg.population_size,
                 "probe_watts": probe_watts, "genotypes": genotypes}]
    if version in (6, 7):
        # version 7 lines had four keys, and their rows held 7 values: the
        # accuracies, the powers, the epochs run, the loss and diverged;
        # version 6 rows also held the evaluation's wall time before diverged
        n = lines[0]["validation"]
        rows = [[left / n, right / n, power_left, power_right, 2, loss, False]
                for left, right, power_left, power_right, loss in outcomes]
        if version == 6:
            rows = [[*row[:6], 0.25, row[6]] for row in rows]
        return [{"generation": generation, "outcomes": rows, "probe_watts": probe_watts,
                 "genotypes": genotypes}]
    return []  # versions 3 and 4 (which stored genotypes) are refused on the header alone


@pytest.mark.parametrize("version", [3, 4, 5, 6, 7])
def test_earlier_version_journal_is_refused(tmp_path, journal, version):
    cfg, lines = journal
    header = {key: value for key, value in lines[0].items() if key != "validation"}
    write_journal(tmp_path, [{**header, "version": version},
                             *earlier_journal_body(version, cfg, lines)])
    with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)
    # a fresh start replaces it
    fresh = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path, resume=False)
    assert journal_lines(tmp_path)[0]["version"] == 8
    assert len(fresh.logs) == cfg.generations + 1


@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda header: header.pop("validation"),
                 r"names no validation size: None", id="no_validation"),
    pytest.param(lambda header: header.update(validation=18.0),
                 r"names no validation size: 18\.0", id="float_validation"),
    pytest.param(lambda header: header.update(validation=0),
                 r"names no validation size: 0", id="zero_validation"),
    pytest.param(lambda header: header.update(validation=19),
                 r"counts answers out of 19 validation samples, the current data holds 18",
                 id="other_validation"),
])
def test_journal_header_must_name_the_validation_size_of_the_data(tmp_path, journal, damage,
                                                            message):
    # each row's counts are out of the header's size, which replay divides by
    cfg, lines = journal
    lines = copy.deepcopy(lines)
    damage(lines[0])
    write_journal(tmp_path, lines)
    with pytest.raises(CheckpointError, match=r"journal\.jsonl " + message):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)


def test_resuming_over_data_of_another_validation_size_is_refused(tmp_path):
    # the fingerprint covers the configuration, not the data
    cfg = tiny_config(runs=1, generations=1, seed=5)
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)
    ds = synthetic_dataset(classes=3, samples_per_class=30, dimensions=6, separation=3.0, seed=1)
    other = TaskData(*split(ds, SplitSpec((0.5, 0.3, 0.2), seed=0)))
    assert (len(DATA.validation), len(other.validation)) == (18, 27)
    with pytest.raises(CheckpointError,
                       match="counts answers out of 18 validation samples, the current data holds 27"):
        run_es(cfg, GRAMMAR, other, out_dir=tmp_path)
    fresh = run_es(cfg, GRAMMAR, other, out_dir=tmp_path, resume=False)
    assert journal_lines(tmp_path)[0]["validation"] == 27
    assert run_es(cfg, GRAMMAR, other, out_dir=tmp_path).best_record == fresh.best_record


def test_mode_config_gating():
    cfg = tiny_config()
    baseline = mode_config(cfg, "baseline")
    assert baseline.rates.reuse_module == 0.0
    assert baseline.rates.remove_module == 0.0
    assert baseline.fitness.kind == "accuracy"
    proposed = mode_config(cfg, "proposed")
    assert proposed.fitness.kind == "f3"
    assert proposed.rates.reuse_module == cfg.rates.reuse_module
    # the input config is never modified
    assert cfg.fitness.kind == "f3" and cfg.rates.remove_module == 0.25
    with pytest.raises(ConfigError, match="mode"):
        mode_config(cfg, "turbo")
    # the proposed mode keeps every configured fitness; the baseline forces accuracy
    for kind in ("accuracy", "f1", "f2", "f3"):
        chosen = tiny_config(fitness=FitnessConfig(kind=kind))
        assert mode_config(chosen, "proposed").fitness.kind == kind
        assert mode_config(chosen, "baseline").fitness.kind == "accuracy"


def test_proposed_run_scores_by_the_configured_fitness(tmp_path):
    f2 = FitnessConfig(kind="f2")
    result = run_experiment(tiny_config(runs=1, generations=2, fitness=f2), "proposed",
                            GRAMMAR, DATA, tmp_path)
    records = [r for log in result.runs[0].logs for r in log.records if not r.diverged]
    assert records and all(r.fitness_consistent(f2) for r in records)
    # f2 caps the accuracies where f3 does not, so the two kinds disagree here
    assert not all(r.fitness_consistent(FitnessConfig(kind="f3")) for r in records)


def test_one_trained_network_is_alive_at_a_time(tmp_path, monkeypatch):
    import evopower.evolution as evo

    built = []  # weak references to every network the engine built, in order
    overlaps = []  # per train call, how many earlier networks were still alive
    plain_build, plain_train = evo.build, evo.train

    def tracking_build(*args, **kwargs):
        net = plain_build(*args, **kwargs)
        built.append(weakref.ref(net))
        return net

    def checking_train(net, *args, **kwargs):
        overlaps.append(sum(ref() is not None for ref in built[:-1]))
        return plain_train(net, *args, **kwargs)

    monkeypatch.setattr(evo, "build", tracking_build)
    monkeypatch.setattr(evo, "train", checking_train)
    result = run_experiment(tiny_config(runs=2, generations=3), "proposed", GRAMMAR, DATA,
                            tmp_path)
    # every evaluation, then the winner's retrain, trained beside no other network
    assert len(overlaps) == sum(run.evaluations for run in result.runs) + 1
    assert overlaps == [0] * len(overlaps)


def test_baseline_mode_scores_by_main_accuracy(tmp_path):
    cfg = tiny_config(runs=1, generations=2)
    result = run_experiment(cfg, "baseline", GRAMMAR, DATA, tmp_path / "b")
    rows = read_rows(result.aggregate_csv)
    for row in rows:
        if row["fitness"] != WORST_FITNESS:
            assert row["fitness"] == row["acc_left"]
            assert row["power_left_w"] > 0.0  # power still measured and logged
    assert all(len(run.archive) == 0 for run in result.runs)


def test_run_experiment_layout_and_winner(tmp_path):
    cfg = tiny_config(runs=2, generations=2)
    out = tmp_path / "exp"
    result = run_experiment(cfg, "proposed", GRAMMAR, DATA, out)

    assert (out / "config.json").is_file()
    assert (out / "aggregate.csv").is_file()
    assert (out / "best_genotype.json").is_file()
    assert (out / "best_weights.bin").is_file()
    for r in range(cfg.runs):
        assert (out / f"run_{r}" / "generations.csv").is_file()
        checkpoints = out / f"run_{r}" / "checkpoints"
        assert [p.name for p in checkpoints.iterdir()] == ["journal.jsonl"]
        assert len(journal_lines(out / f"run_{r}")) == 1 + cfg.generations + 1

    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["mode"] == "proposed"
    assert snapshot["config"]["fitness"]["kind"] == "f3"

    rows = load_experiment_rows(out)
    assert len(rows) == cfg.runs * (cfg.generations + 1) * cfg.population_size
    final_fitness = [r["fitness"] for r in rows if r["generation"] == cfg.generations]
    assert result.best_record.fitness == max(final_fitness)

    payload = json.loads((out / "best_genotype.json").read_text())
    assert payload["record"]["fitness"] == result.best_record.fitness
    assert payload["run"] == result.best_run

    arrays = load_weights(out / "best_weights.bin")
    assert len(arrays) == 2 * result.best_record.hidden_layers + 4
    assert arrays[0].shape[0] == DATA.input_dim
    assert all(len(run.archive) >= 1 for run in result.runs)


def test_three_run_experiment_reports_each_runs_best_and_the_rank_minimal_winner(
    tmp_path, monkeypatch
):
    import evopower.evolution as evo

    trained = []  # the weight dump of every network trained, evaluations then the retrain
    plain = evo._train_network

    def dumping(ind, *args):
        net, report = plain(ind, *args)
        path = tmp_path / f"net_{len(trained)}.bin"
        save_weights(net, path)
        trained.append(path.read_bytes())
        return net, report

    monkeypatch.setattr(evo, "_train_network", dumping)
    out = tmp_path / "exp"
    result = run_experiment(tiny_config(runs=3, generations=2), "proposed", GRAMMAR, DATA, out)

    finals = final_best_per_run(read_rows(out / "aggregate.csv"))
    assert sorted(finals) == [0, 1, 2]
    for res in result.runs:
        row = finals[res.run]
        assert (row["individual"], row["fitness"], row["power_left_w"]) == (
            res.best_record.individual, res.best_record.fitness, res.best_record.power_left_w)

    keys = {res.run: rank(res.best_record.fitness, res.best_record.power_left_w, res.run,
                          res.best_record.individual) for res in result.runs}
    winner = min(keys, key=keys.get)
    assert json.loads((out / "best_genotype.json").read_text())["run"] == winner
    # the retrain repeats the winner's evaluation, so its dump is one of theirs
    assert len(trained) == sum(res.evaluations for res in result.runs) + 1
    assert trained[-1] == (out / "best_weights.bin").read_bytes()
    assert trained[-1] in trained[:-1]


def test_experiment_winner_ties_go_to_the_lower_run(tmp_path, monkeypatch):
    import evopower.evolution as evo

    plain = evo.run_es

    def same_run(cfg, grammar, data, meter=None, out_dir=None, run_index=0, resume=True):
        # every run repeats run 0, so all bests tie on fitness and left
        # power; the later runs get the lower ids, which rank after the run
        res = plain(cfg, grammar, data, meter, out_dir, 0, resume)
        best = dataclasses.replace(res.best_record, individual=cfg.runs - run_index)
        return dataclasses.replace(res, run=run_index, best_record=best)

    monkeypatch.setattr(evo, "run_es", same_run)
    result = run_experiment(tiny_config(runs=3, generations=1), "proposed", GRAMMAR, DATA,
                            tmp_path)
    assert result.best_run == 0
    assert json.loads((tmp_path / "best_genotype.json").read_text())["run"] == 0
