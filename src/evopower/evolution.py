"""(1+lambda) evolution engine: evaluate, select, mutate, log, checkpoint.

Three rules keep runs reproducible:

* every stochastic decision draws from a stream keyed by
  (seed, run, generation, slot, purpose), so outcomes cannot depend on
  evaluation order;
* power measurement happens after a generation's training, in slot
  order, so stateful meters stay deterministic;
* checkpoints carry the population, archive, counters and logs, and a
  resumed run rebuilds the uninterrupted CSV byte for byte.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .analysis import CSV_COLUMNS
from .data import Dataset
from .errors import (
    CheckpointError,
    ConfigError,
    InvalidGenotypeError,
    TrainingDivergedError,
)
from .fitness import WORST_FITNESS, FitnessConfig, evaluate_fitness
from .genome import (
    GenomeConfig,
    Individual,
    count_hidden_layers,
    init_individual,
    to_phenotype,
)
from .grammar import Grammar
from .mutation import ModuleArchive, MutationRates, archive_insert, mutate
from .network import build, evaluate_accuracy, save_weights, split, train
from .power import (
    DEFAULT_N_MEASURES,
    AnalyticMeter,
    AnalyticMeterConfig,
    Meter,
    measure_mean,
    probe_module_power,
)

CHECKPOINT_VERSION = 1
MODES = ("baseline", "proposed")

# rng stream purposes
_MUT, _EVAL, _METER, _PROBE = 0, 1, 2, 3

_INT_COLUMNS = {"run", "generation", "individual", "hidden_layers", "middle_point"}


def _stream(*parts) -> np.random.Generator:
    return np.random.default_rng([int(p) for p in parts])


@dataclass
class EvolutionConfig:
    """Everything a run needs besides the grammar, data and meter."""

    runs: int = 5
    generations: int = 150
    population_size: int = 5
    rates: MutationRates = field(default_factory=MutationRates)
    default_train_budget: float = 3.0
    train_longer_increment: float = 1.0
    max_train_budget: float = 50.0
    fitness: FitnessConfig = field(default_factory=FitnessConfig)
    meter: AnalyticMeterConfig = field(default_factory=AnalyticMeterConfig)
    genome: GenomeConfig = field(default_factory=GenomeConfig)
    n_measures: int = DEFAULT_N_MEASURES
    archive_capacity: int = 256
    seed: int = 0

    @property
    def offspring(self) -> int:
        return self.population_size - 1

    def validate(self) -> None:
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        # written as "not in range" so that nan fails every check
        if not self.default_train_budget >= 1:
            raise ConfigError(f"default_train_budget must be >= 1, got {self.default_train_budget}")
        if not self.train_longer_increment > 0:
            raise ConfigError(f"train_longer_increment must be > 0, got {self.train_longer_increment}")
        if not self.max_train_budget >= self.default_train_budget:
            raise ConfigError(
                f"max_train_budget {self.max_train_budget} below "
                f"default_train_budget {self.default_train_budget}"
            )
        if self.n_measures < 1:
            raise ConfigError(f"n_measures must be >= 1, got {self.n_measures}")
        if self.archive_capacity < 1:
            raise ConfigError(f"archive_capacity must be >= 1, got {self.archive_capacity}")
        self.rates.validate()
        self.fitness.validate()
        self.meter.validate()
        self.genome.validate()

    def fingerprint(self) -> str:
        """Digest of everything that shapes a run's trajectory.

        runs and generations are excluded: extending a run keeps existing
        checkpoints valid.
        """
        payload = asdict(self)
        del payload["runs"], payload["generations"]
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class TaskData:
    train: Dataset
    validation: Dataset
    test: Dataset | None = None

    @property
    def input_dim(self) -> int:
        return int(self.train.samples.shape[1])

    @property
    def class_count(self) -> int:
        return int(self.train.class_count)

    def validate(self) -> None:
        if len(self.train) == 0 or len(self.validation) == 0:
            raise ConfigError("train and validation splits must be nonempty")
        if self.validation.samples.shape[1] != self.train.samples.shape[1]:
            raise ConfigError("train and validation feature dimensions differ")
        if self.validation.class_count != self.train.class_count:
            raise ConfigError("train and validation class counts differ")


@dataclass
class EvaluationRecord:
    individual: int
    fitness: float
    acc_left: float
    acc_right: float
    power_left_w: float
    power_right_w: float
    hidden_layers: int
    middle_point: int
    train_budget_epochs: float
    epochs_run: int = 0
    final_loss: float = float("nan")
    wall_time_s: float = 0.0
    diverged: bool = False

    def fitness_consistent(self, fitness_cfg: FitnessConfig) -> bool:
        """The stored fitness must be re-derivable from its own inputs."""
        if self.diverged:
            return self.fitness == WORST_FITNESS
        return self.fitness == evaluate_fitness(
            fitness_cfg, self.acc_left, self.acc_right, self.power_left_w
        )

    def to_dict(self) -> dict:
        return dict(vars(self))

    @staticmethod
    def from_dict(d: dict) -> "EvaluationRecord":
        return EvaluationRecord(
            individual=int(d["individual"]),
            fitness=float(d["fitness"]),
            acc_left=float(d["acc_left"]),
            acc_right=float(d["acc_right"]),
            power_left_w=float(d["power_left_w"]),
            power_right_w=float(d["power_right_w"]),
            hidden_layers=int(d["hidden_layers"]),
            middle_point=int(d["middle_point"]),
            train_budget_epochs=float(d["train_budget_epochs"]),
            epochs_run=int(d["epochs_run"]),
            final_loss=float(d["final_loss"]),
            wall_time_s=float(d["wall_time_s"]),
            diverged=bool(d["diverged"]),
        )


@dataclass
class Member:
    """One population slot: a genotype plus the evaluation it carries."""

    individual: Individual
    record: EvaluationRecord
    eval_key: tuple[int, int]  # (generation, slot) that produced the record


@dataclass
class GenerationLog:
    generation: int
    records: list[EvaluationRecord]
    best_slot: int

    @property
    def best_record(self) -> EvaluationRecord:
        return self.records[self.best_slot]


def best_slot(records: list[EvaluationRecord]) -> int:
    """Highest fitness; ties go to lower left power, then lower id."""
    if not records:
        raise ValueError("empty record list")
    return min(
        range(len(records)),
        key=lambda i: (-records[i].fitness, records[i].power_left_w, records[i].individual),
    )


def select_parent(population: list[Member]) -> Member:
    return population[best_slot([m.record for m in population])]


@dataclass
class _Trained:
    individual: Individual
    net: object
    left: object
    right: object
    acc_left: float
    acc_right: float
    epochs_run: int
    final_loss: float
    wall_time_s: float
    diverged: bool


def _train_phase(
    ind: Individual,
    grammar: Grammar,
    data: TaskData,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
) -> _Trained:
    t0 = time.perf_counter()
    spec = to_phenotype(ind, grammar)
    net = build(spec, data.input_dim, data.class_count, rng)
    epochs = max(1, int(round(min(ind.train_budget, cfg.max_train_budget))))
    try:
        report = train(
            net,
            data.train.samples,
            data.train.labels,
            epochs,
            spec.learning_rate,
            spec.batch_size,
            rng,
        )
    except TrainingDivergedError:
        wall = time.perf_counter() - t0
        return _Trained(ind, None, None, None, 0.0, 0.0, 0, float("nan"), wall, True)
    left, right = split(net)
    acc_left = evaluate_accuracy(left, data.validation.samples, data.validation.labels)
    acc_right = evaluate_accuracy(right, data.validation.samples, data.validation.labels)
    wall = time.perf_counter() - t0
    return _Trained(
        ind, net, left, right, acc_left, acc_right,
        report.epochs_run, report.final_loss, wall, False,
    )


def _measure_phase(
    trained: _Trained,
    data: TaskData,
    meter: Meter,
    cfg: EvolutionConfig,
    grammar: Grammar,
) -> EvaluationRecord:
    ind = trained.individual
    hidden = count_hidden_layers(ind, grammar)
    budget = float(min(ind.train_budget, cfg.max_train_budget))
    if trained.diverged:
        return EvaluationRecord(
            ind.id, WORST_FITNESS, 0.0, 0.0, 0.0, 0.0,
            hidden, ind.macro.middle_point, budget,
            0, float("nan"), trained.wall_time_s, True,
        )
    t0 = time.perf_counter()
    vx = data.validation.samples
    meter.observe(trained.left)
    power_left = measure_mean(meter, lambda: trained.left.forward(vx), cfg.n_measures).mean_watts
    meter.observe(trained.right)
    power_right = measure_mean(meter, lambda: trained.right.forward(vx), cfg.n_measures).mean_watts
    fit = evaluate_fitness(cfg.fitness, trained.acc_left, trained.acc_right, power_left)
    wall = trained.wall_time_s + (time.perf_counter() - t0)
    return EvaluationRecord(
        ind.id, fit, trained.acc_left, trained.acc_right,
        power_left, power_right, hidden, ind.macro.middle_point, budget,
        trained.epochs_run, trained.final_loss, wall, False,
    )


def _meter_for(base: Meter | None, cfg: EvolutionConfig, key: tuple) -> Meter:
    """Per-measurement meters for the analytic model, shared otherwise.

    Keying an analytic meter's noise stream by (run, generation, slot)
    decouples measurements from each other, so resume points cannot
    shift them.
    """
    if base is None:
        return AnalyticMeter(cfg.meter, rng=_stream(*key))
    if isinstance(base, AnalyticMeter):
        return AnalyticMeter(base.cfg, rng=_stream(*key))
    return base


def evaluate_individual(
    ind: Individual,
    grammar: Grammar,
    data: TaskData,
    meter: Meter | None,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
) -> EvaluationRecord:
    """Full pipeline: phenotype, train on the joint loss, split, score
    both partitions on the validation set, meter inference power, apply
    the configured fitness.  Divergence maps to the worst fitness."""
    if meter is None:
        meter = AnalyticMeter(cfg.meter)
    return _measure_phase(_train_phase(ind, grammar, data, cfg, rng), data, meter, cfg, grammar)


class _RunState:
    def __init__(self, run: int, cfg: EvolutionConfig):
        self.run = run
        self.members: list[Member] = []
        self.archive = ModuleArchive(capacity=cfg.archive_capacity)
        self.probed: set[str] = set()
        self.logs: list[GenerationLog] = []
        self.next_id = 0
        self.evaluations = 0
        self.parent_retrains = 0
        self.generation = -1  # last completed generation


def _module_key(module) -> str:
    return json.dumps(module.genotype_key())


def _probe_new_modules(
    state: _RunState,
    grammar: Grammar,
    data: TaskData,
    meter: Meter | None,
    cfg: EvolutionConfig,
    generation: int,
) -> None:
    # the archive only feeds reuse_module, so skip the probing cost when
    # that operator is disabled (baseline mode)
    if cfg.rates.reuse_module <= 0:
        return
    for slot, member in enumerate(state.members):
        for mi, module in enumerate(member.individual.modules):
            key = _module_key(module)
            if key in state.probed:
                continue
            probe_meter = _meter_for(
                meter, cfg, (cfg.seed, state.run, generation, slot, _PROBE, mi)
            )
            watts = probe_module_power(
                module,
                grammar,
                probe_meter,
                (data.input_dim, data.class_count),
                n_measures=cfg.n_measures,
                seed=cfg.seed,
            )
            archive_insert(state.archive, module, watts)
            state.probed.add(key)


def _record_row(run: int, generation: int, rec: EvaluationRecord) -> dict:
    return {
        "run": run,
        "generation": generation,
        "individual": rec.individual,
        "fitness": rec.fitness,
        "acc_left": rec.acc_left,
        "acc_right": rec.acc_right,
        "power_left_w": rec.power_left_w,
        "power_right_w": rec.power_right_w,
        "hidden_layers": rec.hidden_layers,
        "middle_point": rec.middle_point,
        "train_budget_epochs": rec.train_budget_epochs,
    }


def _format_cell(column: str, value) -> str:
    if column in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


def write_rows_csv(path, rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(col, row[col]) for col in CSV_COLUMNS])


def _checkpoint_path(ckpt_dir: Path, generation: int) -> Path:
    return ckpt_dir / f"gen_{generation:04d}.json"


def _write_checkpoint(ckpt_dir: Path, state: _RunState, fingerprint: str) -> None:
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "run": state.run,
        "generation": state.generation,
        "next_id": state.next_id,
        "evaluations": state.evaluations,
        "parent_retrains": state.parent_retrains,
        "population": [
            {
                "individual": m.individual.to_dict(),
                "record": m.record.to_dict(),
                "eval_key": list(m.eval_key),
            }
            for m in state.members
        ],
        "archive": state.archive.to_dict(),
        "probed": sorted(state.probed),
        "logs": [
            {
                "generation": log.generation,
                "best_slot": log.best_slot,
                "records": [r.to_dict() for r in log.records],
            }
            for log in state.logs
        ],
    }
    path = _checkpoint_path(ckpt_dir, state.generation)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def _load_latest_checkpoint(
    ckpt_dir: Path, fingerprint: str, cfg: EvolutionConfig
) -> _RunState | None:
    if not ckpt_dir.is_dir():
        return None
    files = sorted(ckpt_dir.glob("gen_*.json"))
    if not files:
        return None
    path = files[-1]
    try:
        d = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
    if not isinstance(d, dict) or d.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {d.get('version') if isinstance(d, dict) else d!r} in {path}"
        )
    if d.get("fingerprint") != fingerprint:
        raise CheckpointError(f"checkpoint {path} does not match the current configuration")
    try:
        state = _RunState(int(d["run"]), cfg)
        state.generation = int(d["generation"])
        state.next_id = int(d["next_id"])
        state.evaluations = int(d["evaluations"])
        state.parent_retrains = int(d["parent_retrains"])
        state.members = [
            Member(
                Individual.from_dict(p["individual"]),
                EvaluationRecord.from_dict(p["record"]),
                tuple(p["eval_key"]),
            )
            for p in d["population"]
        ]
        state.archive = ModuleArchive.from_dict(d["archive"])
        state.probed = set(d["probed"])
        state.logs = [
            GenerationLog(
                int(entry["generation"]),
                [EvaluationRecord.from_dict(r) for r in entry["records"]],
                int(entry["best_slot"]),
            )
            for entry in d["logs"]
        ]
    except (KeyError, TypeError, ValueError, InvalidGenotypeError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}")
    return state


@dataclass
class RunResult:
    run: int
    logs: list[GenerationLog]
    best: Individual
    best_record: EvaluationRecord
    best_eval_key: tuple[int, int, int]  # (run, generation, slot)
    evaluations: int
    parent_retrains: int
    archive: ModuleArchive

    def rows(self) -> list[dict]:
        return [
            _record_row(self.run, log.generation, rec)
            for log in self.logs
            for rec in log.records
        ]


def _initial_generation(
    state: _RunState,
    cfg: EvolutionConfig,
    grammar: Grammar,
    data: TaskData,
    meter: Meter | None,
) -> None:
    inds = []
    for slot in range(cfg.population_size):
        ind = init_individual(
            grammar,
            cfg.genome,
            _stream(cfg.seed, state.run, 0, slot, _MUT),
            id=state.next_id,
            train_budget=cfg.default_train_budget,
        )
        state.next_id += 1
        inds.append(ind)
    trained = [
        _train_phase(ind, grammar, data, cfg, _stream(cfg.seed, state.run, 0, slot, _EVAL))
        for slot, ind in enumerate(inds)
    ]
    members = []
    for slot, t in enumerate(trained):
        m = _meter_for(meter, cfg, (cfg.seed, state.run, 0, slot, _METER))
        rec = _measure_phase(t, data, m, cfg, grammar)
        state.evaluations += 1
        members.append(Member(t.individual, rec, (0, slot)))
    state.members = members
    state.generation = 0
    _probe_new_modules(state, grammar, data, meter, cfg, 0)
    records = [m.record for m in members]
    state.logs.append(GenerationLog(0, records, best_slot(records)))


def _next_generation(
    state: _RunState,
    g: int,
    cfg: EvolutionConfig,
    grammar: Grammar,
    data: TaskData,
    meter: Meter | None,
) -> None:
    parent = select_parent(state.members)

    # slot 0 carries the parent; a train_longer draw may grant it a
    # bigger budget, in which case it retrains from scratch and keeps
    # the new evaluation only if that did not hurt
    gate = _stream(cfg.seed, state.run, g, 0, _MUT)
    jobs: list[tuple[int, Individual]] = []
    if gate.random() < cfg.rates.train_longer:
        candidate = parent.individual.copy()
        candidate.train_budget = min(
            parent.individual.train_budget + cfg.train_longer_increment,
            cfg.max_train_budget,
        )
        jobs.append((0, candidate))
    for slot in range(1, cfg.population_size):
        rng = _stream(cfg.seed, state.run, g, slot, _MUT)
        child = mutate(
            parent.individual,
            cfg.rates,
            state.archive,
            grammar,
            rng,
            new_id=state.next_id,
            train_increment=cfg.train_longer_increment,
            middle_point_symbol=cfg.genome.middle_point_symbol,
        )
        state.next_id += 1
        child.train_budget = min(child.train_budget, cfg.max_train_budget)
        jobs.append((slot, child))

    results = [
        (slot, _train_phase(ind, grammar, data, cfg, _stream(cfg.seed, state.run, g, slot, _EVAL)))
        for slot, ind in jobs
    ]

    new_members = {0: parent}
    for slot, trained in results:
        m = _meter_for(meter, cfg, (cfg.seed, state.run, g, slot, _METER))
        rec = _measure_phase(trained, data, m, cfg, grammar)
        state.evaluations += 1
        if slot == 0:
            state.parent_retrains += 1
            if rec.fitness >= parent.record.fitness:
                new_members[0] = Member(trained.individual, rec, (g, 0))
        else:
            new_members[slot] = Member(trained.individual, rec, (g, slot))
    state.members = [new_members[slot] for slot in range(cfg.population_size)]
    state.generation = g
    _probe_new_modules(state, grammar, data, meter, cfg, g)
    records = [m.record for m in state.members]
    state.logs.append(GenerationLog(g, records, best_slot(records)))


def _finish_generation(state: _RunState, out: Path | None, fingerprint: str) -> None:
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        _record_row(state.run, log.generation, rec)
        for log in state.logs
        for rec in log.records
    ]
    write_rows_csv(out / "generations.csv", rows)
    _write_checkpoint(out / "checkpoints", state, fingerprint)


def run_es(
    cfg: EvolutionConfig,
    grammar: Grammar,
    data: TaskData,
    meter: Meter | None = None,
    out_dir=None,
    run_index: int = 0,
    resume: bool = True,
) -> RunResult:
    """One seeded run: initial population, then per generation the
    parent plus offspring mutants, with logs, CSV and checkpoints."""
    cfg.validate()
    data.validate()
    fingerprint = cfg.fingerprint()
    out = Path(out_dir) if out_dir is not None else None

    state = None
    if out is not None and resume:
        state = _load_latest_checkpoint(out / "checkpoints", fingerprint, cfg)
        if state is not None and state.run != run_index:
            raise CheckpointError(
                f"checkpoint in {out} belongs to run {state.run}, expected {run_index}"
            )
    if state is None:
        state = _RunState(run_index, cfg)
        _initial_generation(state, cfg, grammar, data, meter)
        _finish_generation(state, out, fingerprint)
    for g in range(state.generation + 1, cfg.generations + 1):
        _next_generation(state, g, cfg, grammar, data, meter)
        _finish_generation(state, out, fingerprint)

    best = select_parent(state.members)
    result = RunResult(
        run_index,
        state.logs,
        best.individual,
        best.record,
        (run_index,) + tuple(best.eval_key),
        state.evaluations,
        state.parent_retrains,
        state.archive,
    )
    if out is not None:
        payload = {
            "run": run_index,
            "individual": best.individual.to_dict(),
            "record": best.record.to_dict(),
        }
        (out / "best.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return result


def mode_config(cfg: EvolutionConfig, mode: str) -> EvolutionConfig:
    """The baseline disables the module archive operators and scores by
    main-head accuracy; the proposed mode uses the thresholded
    power-aware fitness with the full operator suite."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    adjusted = copy.deepcopy(cfg)
    if mode == "baseline":
        adjusted.rates.reuse_module = 0.0
        adjusted.rates.remove_module = 0.0
        adjusted.fitness.kind = "accuracy"
    else:
        adjusted.fitness.kind = "f3"
    adjusted.validate()
    return adjusted


@dataclass
class ExperimentResult:
    mode: str
    out_dir: Path
    runs: list[RunResult]
    aggregate_csv: Path
    best_run: int
    best: Individual
    best_record: EvaluationRecord


def run_experiment(
    cfg: EvolutionConfig,
    mode: str,
    grammar: Grammar,
    data: TaskData,
    out_dir,
    meter: Meter | None = None,
    resume: bool = True,
) -> ExperimentResult:
    """cfg.runs independent seeded runs of the given mode, with per-run
    subdirectories, an aggregate CSV, the winning genotype and its
    weight dump."""
    adjusted = mode_config(cfg, mode)
    data.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshot = {"mode": mode, "config": asdict(adjusted)}
    (out / "config.json").write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    results = []
    for r in range(adjusted.runs):
        results.append(
            run_es(
                adjusted,
                grammar,
                data,
                meter=meter,
                out_dir=out / f"run_{r}",
                run_index=r,
                resume=resume,
            )
        )
    rows = [row for res in results for row in res.rows()]
    aggregate = out / "aggregate.csv"
    write_rows_csv(aggregate, rows)

    winner = min(
        results,
        key=lambda res: (
            -res.best_record.fitness,
            res.best_record.power_left_w,
            res.run,
            res.best_record.individual,
        ),
    )
    payload = {
        "mode": mode,
        "run": winner.run,
        "individual": winner.best.to_dict(),
        "record": winner.best_record.to_dict(),
    }
    (out / "best_genotype.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if not winner.best_record.diverged:
        run_i, gen, slot = winner.best_eval_key
        trained = _train_phase(
            winner.best, grammar, data, adjusted,
            _stream(adjusted.seed, run_i, gen, slot, _EVAL),
        )
        if not trained.diverged:
            save_weights(trained.net, out / "best_weights.bin")
    return ExperimentResult(
        mode, out, results, aggregate, winner.run, winner.best, winner.best_record
    )
