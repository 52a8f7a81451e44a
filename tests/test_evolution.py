import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from evopower.analysis import load_experiment_rows
from evopower.config import AppConfig
from evopower.data import SplitSpec, split, synthetic_dataset
from evopower.errors import CheckpointError, ConfigError, TrainingDivergedError
from evopower.evolution import (
    EvaluationRecord,
    EvolutionConfig,
    Member,
    TaskData,
    best_slot,
    evaluate_individual,
    mode_config,
    read_rows,
    run_es,
    run_experiment,
    select_parent,
)
from evopower.fitness import WORST_FITNESS, FitnessConfig, evaluate_fitness
from evopower.genome import GenomeConfig, init_individual
from evopower.grammar import load_packaged_grammar
from evopower.mutation import MutationRates
from evopower.network import Network, load_weights
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


def strip_wall(record):
    d = dataclasses.asdict(record)
    d.pop("wall_time_s")
    return d


def journal_lines(run_dir):
    text = (run_dir / "checkpoints" / "journal.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def test_evaluate_individual_deterministic_and_consistent():
    cfg = tiny_config()
    ind = init_individual(GRAMMAR, cfg.genome, np.random.default_rng(3), id=0,
                          train_budget=2.0)
    r1 = evaluate_individual(ind, GRAMMAR, DATA, None, cfg, np.random.default_rng(7))
    r2 = evaluate_individual(ind, GRAMMAR, DATA, None, cfg, np.random.default_rng(7))
    assert strip_wall(r1) == strip_wall(r2)
    assert not r1.diverged
    assert 0.0 <= r1.acc_left <= 1.0 and 0.0 <= r1.acc_right <= 1.0
    assert 30.0 <= r1.power_right_w <= r1.power_left_w <= 100.0
    assert r1.fitness_consistent(cfg.fitness)


def test_power_metered_on_validation_inference_only():
    cfg = tiny_config()
    meter = ScriptedMeter([(5000.0, 0.5)], cycle=True)
    ind = init_individual(GRAMMAR, cfg.genome, np.random.default_rng(3))
    record = evaluate_individual(ind, GRAMMAR, DATA, meter, cfg, np.random.default_rng(7))
    # two partitions, n_measures windows each; training touched no meter
    assert meter.start_count == 2 * cfg.n_measures
    assert record.power_left_w == 10.0
    assert record.power_right_w == 10.0
    assert record.fitness == evaluate_fitness(cfg.fitness, record.acc_left,
                                              record.acc_right, 10.0)


def test_divergence_maps_to_worst_fitness(monkeypatch):
    import evopower.evolution as evo

    def explode(*args, **kwargs):
        raise TrainingDivergedError("boom")

    monkeypatch.setattr(evo, "train", explode)
    cfg = tiny_config()
    ind = init_individual(GRAMMAR, cfg.genome, np.random.default_rng(3))
    record = evaluate_individual(ind, GRAMMAR, DATA, None, cfg, np.random.default_rng(7))
    assert record.diverged
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


def test_zero_rates_keep_population_constant(tmp_path):
    cfg = tiny_config(runs=1, generations=3, rates=zero_rates())
    result = run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r0")
    assert result.parent_retrains == 0
    for prev, cur in zip(result.logs, result.logs[1:]):
        assert cur.records[0] == prev.best_record  # parent carried forward
        assert cur.best_record.fitness >= prev.best_record.fitness
    final = journal_lines(tmp_path / "r0")[-1]
    assert final["generation"] == cfg.generations
    genotypes = {
        json.dumps({k: v for k, v in ind.items() if k != "id"}, sort_keys=True)
        for ind in final["individuals"]
    }
    assert len(genotypes) == 1


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


def test_skipping_analytic_workload_keeps_results_identical(tmp_path, monkeypatch):
    forwards = []
    plain_forward = Network.forward

    def counting_forward(self, *args, **kwargs):
        forwards.append(kwargs.get("train", False))
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


def log_digest(result):
    """The run's logs without wall times; json so that nan equals nan."""
    return json.dumps([(log.generation, log.best_slot, [strip_wall(r) for r in log.records])
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
        assert [line.get("generation") for line in journal_lines(out)[1:]] == [0, 1, 2, 3]
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

    journal.write_text("".join(lines[:2]) + '{"generation": 1}\n')
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


def test_journal_member_that_does_not_decode_is_a_checkpoint_error(tmp_path):
    cfg = tiny_config(runs=1, generations=2, seed=5)
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")
    journal = tmp_path / "r" / "checkpoints" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    last = json.loads(lines[-1])
    for member in last["individuals"]:
        member["modules"] = []
    journal.write_text("".join(lines[:-1]) + json.dumps(last) + "\n")
    longer = dataclasses.replace(cfg, generations=3)
    with pytest.raises(CheckpointError,
                       match=r"journal\.jsonl line 4: member 0: individual has no modules"):
        run_es(longer, GRAMMAR, DATA, out_dir=tmp_path / "r")


def _undecodable(entry):
    entry["module"]["layer_genes"][0]["choices"]["layer"] = [99]


def _too_long(entry):
    entry["module"]["layer_genes"] *= 5


@pytest.mark.parametrize("damage, message", [
    (_undecodable, "inserted module 0: expansion index 99 out of range"),
    (_too_long, r"inserted module 0: module has \d+ layers, outside \[2, 4\]"),
    (lambda entry: entry.update(power_watts=math.nan), "inserted module 0: power must be finite"),
    (lambda entry: entry.update(power_watts=math.inf), "inserted module 0: power must be finite"),
    (lambda entry: entry.update(power_watts=-1.0), "inserted module 0: power must be finite"),
])
def test_journal_archive_insert_that_is_unusable_is_a_checkpoint_error(tmp_path, damage, message):
    # an archived module is only decoded when reuse_module picks it, and a
    # NaN power would poison every roulette draw, so resume checks both
    cfg = tiny_config(runs=1, generations=2, seed=5)
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")
    journal = tmp_path / "r" / "checkpoints" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    first = json.loads(lines[1])
    assert first["inserted"]
    damage(first["inserted"][0])
    journal.write_text(lines[0] + json.dumps(first) + "\n" + "".join(lines[2:]))
    with pytest.raises(CheckpointError, match=r"journal\.jsonl line 2: " + message):
        run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path / "r")


def test_journal_lines_are_the_asdict_serialization(tmp_path, monkeypatch):
    # the writer serializes through vars instead of asdict's deep copy;
    # the bytes must stay those of json.dumps(asdict(line))
    import evopower.evolution as evo

    plain = evo._finish_generation
    inserts = []

    def checking(state, inserted, out):
        plain(state, inserted, out)
        log = state.logs[-1]
        line = evo._JournalLine(
            log.generation, log.best_slot, log.records,
            [m.individual for m in state.members], [m.eval_key for m in state.members],
            inserted, state.next_id, state.evaluations, state.parent_retrains,
        )
        written = (out / "checkpoints" / "journal.jsonl").read_text().splitlines()[-1]
        assert written == json.dumps(dataclasses.asdict(line))
        inserts.append(len(inserted))

    monkeypatch.setattr(evo, "_finish_generation", checking)
    cfg = mode_config(tiny_config(runs=1, generations=4, seed=5,
                                  meter=AnalyticMeterConfig(noise_sigma=2.0)), "proposed")
    run_es(cfg, GRAMMAR, DATA, out_dir=tmp_path)
    assert len(inserts) == cfg.generations + 1 and sum(inserts) > 0


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
