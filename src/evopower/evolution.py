"""(1+lambda) evolution engine: evaluate, select, mutate, log, checkpoint.

Three rules keep runs reproducible:

* every stochastic decision draws from a stream keyed by
  (seed, run, generation, slot, purpose), so outcomes cannot depend on
  evaluation order;
* evaluations finish one at a time, in slot order: each offspring is
  trained, scored and metered before the next is built, so a shared
  stateful meter reads in a fixed order and one trained network is
  alive at a time;
* each run appends one line per finished generation to
  ``checkpoints/journal.jsonl``: its records, population, archive
  inserts and counters.  A resumed run replays the lines, so it rebuilds
  the uninterrupted logs, archive and CSV byte for byte.

``generations.csv`` grows by appended rows too; a fresh start rewrites
both files, and a resume rewrites the CSV once from the replayed logs.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .blas import one_blas_thread
from .data import Dataset
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    GrammarError,
    InvalidGenotypeError,
    TrainingDivergedError,
)
from .fitness import WORST_FITNESS, FitnessConfig, evaluate_fitness
from .genome import (
    GenomeConfig,
    Individual,
    PhenotypeSpec,
    genotype_payload,
    init_individual,
    load_typed,
    to_phenotype,
    validate_individual,
    validate_module,
)
from .grammar import Grammar
from .mutation import ArchiveEntry, ModuleArchive, MutationRates, archive_insert, mutate
from .network import Network, TrainReport, build, evaluate_accuracy, save_weights, split, train
from .power import (
    DEFAULT_N_MEASURES,
    AnalyticMeter,
    AnalyticMeterConfig,
    Meter,
    measure_mean,
    probe_module_power,
)

CHECKPOINT_VERSION = 3
MODES = ("baseline", "proposed")

# rng stream purposes
_MUT, _EVAL, _METER, _PROBE = 0, 1, 2, 3


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
        for name in ("default_train_budget", "train_longer_increment", "max_train_budget"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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


def _meter_for(base: Meter | None, cfg: EvolutionConfig, key: tuple) -> Meter:
    """Per-measurement meters for the analytic model, shared otherwise.

    Keying an analytic meter's noise stream by (run, generation, slot)
    decouples measurements from each other, so resume points cannot
    shift them.  A noiseless meter never draws, so it gets no stream.
    """
    if base is not None and not isinstance(base, AnalyticMeter):
        return base
    meter_cfg = cfg.meter if base is None else base.cfg
    return AnalyticMeter(meter_cfg, rng=_stream(*key) if meter_cfg.noise_sigma > 0 else None)


def _train_network(
    ind: Individual,
    grammar: Grammar,
    data: TaskData,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
) -> tuple[PhenotypeSpec, Network, TrainReport | None]:
    """Phenotype, build and train ``ind`` on the training split.

    Returns the phenotype, the network and the training report; the
    report is None when training diverged.
    """
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
        return spec, net, None
    return spec, net, report


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
    t0 = time.perf_counter()
    spec, net, report = _train_network(ind, grammar, data, cfg, rng)
    hidden = sum(layer.kind == "dense" for layer in spec.layers)
    budget = float(min(ind.train_budget, cfg.max_train_budget))
    if report is None:
        return EvaluationRecord(
            ind.id, WORST_FITNESS, 0.0, 0.0, 0.0, 0.0,
            hidden, ind.macro.middle_point, budget,
            0, float("nan"), time.perf_counter() - t0, True,
        )
    left, right = split(net)
    # the partitions answer bit for bit like the heads, so one pass over
    # the validation set scores both
    acc_left, acc_right = evaluate_accuracy(net, data.validation.samples, data.validation.labels)
    # the metered inference runs in the partitions' dtype, cast once here
    vx = data.validation.samples.astype(left.dtype, copy=False)
    meter.observe(left)
    power_left = measure_mean(meter, lambda: left.forward(vx), cfg.n_measures).mean_watts
    meter.observe(right)
    power_right = measure_mean(meter, lambda: right.forward(vx), cfg.n_measures).mean_watts
    fit = evaluate_fitness(cfg.fitness, acc_left, acc_right, power_left)
    return EvaluationRecord(
        ind.id, fit, acc_left, acc_right,
        power_left, power_right, hidden, ind.macro.middle_point, budget,
        report.epochs_run, report.final_loss, time.perf_counter() - t0, False,
    )


class _RunState:
    def __init__(self, run: int, cfg: EvolutionConfig):
        self.run = run
        self.members: list[Member] = []
        self.archive = ModuleArchive(capacity=cfg.archive_capacity)
        self.probed: set[tuple] = set()  # genotype keys of the probed modules
        self.logs: list[GenerationLog] = []
        self.next_id = 0
        self.evaluations = 0
        self.parent_retrains = 0
        self.generation = -1  # last completed generation


def _probe_new_modules(
    state: _RunState,
    grammar: Grammar,
    data: TaskData,
    meter: Meter | None,
    cfg: EvolutionConfig,
    generation: int,
) -> list[ArchiveEntry]:
    """Probe and archive the members' unseen modules; returns the inserts."""
    inserted: list[ArchiveEntry] = []
    # the archive only feeds reuse_module, so skip the probing cost when
    # that operator is disabled (baseline mode)
    if cfg.rates.reuse_module <= 0:
        return inserted
    for slot, member in enumerate(state.members):
        for mi, module in enumerate(member.individual.modules):
            key = module.genotype_key()
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
            inserted.append(ArchiveEntry(module, watts))
    return inserted


# generations.csv: the run, the generation, then these record fields; a
# cell is written as str(kind(value)) and read back as kind(cell)
_RECORD_COLUMNS = ("individual", "fitness", "acc_left", "acc_right", "power_left_w",
                   "power_right_w", "hidden_layers", "middle_point", "train_budget_epochs")
_COLUMN_TYPES = {"run": int, "generation": int} | {
    column: get_type_hints(EvaluationRecord)[column] for column in _RECORD_COLUMNS
}
CSV_COLUMNS = list(_COLUMN_TYPES)


def _log_rows(run: int, logs: list[GenerationLog]) -> list[dict]:
    """CSV rows: the run, the generation, then one record field per column."""
    return [
        {"run": run, "generation": log.generation, **{c: getattr(rec, c) for c in _RECORD_COLUMNS}}
        for log in logs
        for rec in log.records
    ]


def _write_rows(fh, rows: list[dict]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    for row in rows:
        writer.writerow([str(kind(row[col])) for col, kind in _COLUMN_TYPES.items()])


def write_rows_csv(path, rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(CSV_COLUMNS)
        _write_rows(fh, rows)


def read_rows(csv_path) -> list[dict]:
    """The typed rows of a generations or aggregate CSV, blank lines skipped.
    Any fault, from undecodable bytes to a cell its column's type cannot
    parse or a row of the wrong length, raises DataError naming the line."""
    rows = []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise DataError(f"{csv_path}: unexpected columns {header}, wanted {CSV_COLUMNS}")
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(CSV_COLUMNS):
                    raise ValueError(f"{len(cells)} cells, wanted {len(CSV_COLUMNS)}")
                rows.append(
                    {col: kind(cell) for (col, kind), cell in zip(_COLUMN_TYPES.items(), cells)}
                )
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise DataError(f"{csv_path} line {reader.line_num}: {exc}") from None
    return rows


def _append_rows_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "a", newline="") as fh:
        _write_rows(fh, rows)


@dataclass
class _JournalLine:
    """One finished generation, as appended to ``journal.jsonl``.

    Slot ``s`` holds ``individuals[s]``, scored by ``records[s]`` at
    ``eval_keys[s]``; ``inserted`` lists the modules probed this
    generation, with raw watts, in archive insertion order.
    """

    generation: int
    best_slot: int
    records: list[EvaluationRecord]
    individuals: list[Individual]
    eval_keys: list[tuple[int, int]]
    inserted: list[ArchiveEntry]
    next_id: int
    evaluations: int
    parent_retrains: int


def _journal_path(out: Path) -> Path:
    return out / "checkpoints" / "journal.jsonl"


def _start_files(out: Path, fingerprint: str, run: int) -> None:
    """Replace the run's journal and CSV with empty ones."""
    journal = _journal_path(out)
    journal.parent.mkdir(parents=True, exist_ok=True)
    header = {"version": CHECKPOINT_VERSION, "fingerprint": fingerprint, "run": run}
    journal.write_text(json.dumps(header) + "\n")
    write_rows_csv(out / "generations.csv", [])


def _finish_generation(state: _RunState, inserted: list[ArchiveEntry], out: Path | None) -> None:
    """Append the generation to the journal, then its rows to the CSV."""
    if out is None:
        return
    log = state.logs[-1]
    line = _JournalLine(
        log.generation,
        log.best_slot,
        log.records,
        [m.individual for m in state.members],
        [m.eval_key for m in state.members],
        inserted,
        state.next_id,
        state.evaluations,
        state.parent_retrains,
    )
    # vars serializes each dataclass from its own __dict__, which holds
    # the fields in declaration order: the bytes of json.dumps(asdict(line))
    # without asdict's deep copy
    with open(_journal_path(out), "a") as fh:
        fh.write(json.dumps(line, default=vars) + "\n")
    _append_rows_csv(out / "generations.csv", _log_rows(state.run, [log]))


def _parse_line(path: Path, number: int, raw: bytes):
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path} line {number}: {exc}")


def _load_journal(
    path: Path, fingerprint: str, run: int, cfg: EvolutionConfig, grammar: Grammar
) -> _RunState | None:
    """Replay a run's journal; None when it holds no finished generation.

    An unterminated last line is an append cut short, so it is dropped
    and the file truncated to the lines before it.  Every member and
    every archive insert must decode against ``grammar`` within the
    genome's layer bounds, and every insert needs finite watts >= 0.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    lines = data[:end].split(b"\n")[:-1]
    if not lines:
        return None
    header = _parse_line(path, 1, lines[0])
    version = header.get("version") if isinstance(header, dict) else header
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r:.60} in {path}")
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(f"checkpoint {path} does not match the current configuration")
    if header.get("run") != run:
        raise CheckpointError(
            f"checkpoint {path} belongs to run {header.get('run')!r:.60}, expected {run}"
        )
    state = _RunState(run, cfg)
    for number, raw in enumerate(lines[1:], 2):
        try:
            line = load_typed(_JournalLine, _parse_line(path, number, raw))
        except InvalidGenotypeError as exc:
            raise CheckpointError(f"malformed checkpoint {path} line {number}: {exc}")
        size = cfg.population_size
        if (
            line.generation != state.generation + 1
            or not len(line.records) == len(line.individuals) == len(line.eval_keys) == size
            or not 0 <= line.best_slot < size
        ):
            raise CheckpointError(
                f"malformed checkpoint {path} line {number}: not generation "
                f"{state.generation + 1} of a population of {size}"
            )
        where = ""
        try:
            for slot, ind in enumerate(line.individuals):
                where = f"member {slot}"
                validate_individual(ind, grammar, cfg.genome)
            for i, entry in enumerate(line.inserted):
                where = f"inserted module {i}"
                validate_module(entry.module, grammar, cfg.genome)
                if not 0 <= entry.power_watts < math.inf:
                    raise InvalidGenotypeError(
                        f"power must be finite and >= 0, got {entry.power_watts}"
                    )
        except (InvalidGenotypeError, GrammarError) as exc:
            raise CheckpointError(f"malformed checkpoint {path} line {number}: {where}: {exc}")
        # _probe_new_modules is the only writer of the archive and of probed
        for entry in line.inserted:
            archive_insert(state.archive, entry.module, entry.power_watts)
            state.probed.add(entry.module.genotype_key())
        state.logs.append(GenerationLog(line.generation, line.records, line.best_slot))
        state.members = [
            Member(ind, rec, key)
            for ind, rec, key in zip(line.individuals, line.records, line.eval_keys)
        ]
        state.next_id = line.next_id
        state.evaluations = line.evaluations
        state.parent_retrains = line.parent_retrains
        state.generation = line.generation
    return state if state.logs else None


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


def _evaluate_jobs(
    state: _RunState, g: int, jobs: list[tuple[int, Individual]],
    cfg: EvolutionConfig, grammar: Grammar, data: TaskData, meter: Meter | None,
) -> list[Member]:
    """Evaluate every (slot, individual) job start to finish, in slot
    order; each job counts as one evaluation."""
    members = []
    for slot, ind in jobs:
        key = (cfg.seed, state.run, g, slot)
        m = _meter_for(meter, cfg, (*key, _METER))
        record = evaluate_individual(ind, grammar, data, m, cfg, _stream(*key, _EVAL))
        members.append(Member(ind, record, (g, slot)))
        state.evaluations += 1
    return members


def _close_generation(
    state: _RunState, g: int, members: list[Member],
    cfg: EvolutionConfig, grammar: Grammar, data: TaskData, meter: Meter | None,
) -> list[ArchiveEntry]:
    """Install generation ``g``'s population, probe its unseen modules
    and log it; returns the archive inserts."""
    state.members = members
    state.generation = g
    inserted = _probe_new_modules(state, grammar, data, meter, cfg, g)
    records = [m.record for m in members]
    state.logs.append(GenerationLog(g, records, best_slot(records)))
    return inserted


def _initial_generation(
    state: _RunState,
    cfg: EvolutionConfig,
    grammar: Grammar,
    data: TaskData,
    meter: Meter | None,
) -> list[ArchiveEntry]:
    jobs = []
    for slot in range(cfg.population_size):
        ind = init_individual(
            grammar,
            cfg.genome,
            _stream(cfg.seed, state.run, 0, slot, _MUT),
            id=state.next_id,
            train_budget=cfg.default_train_budget,
        )
        state.next_id += 1
        jobs.append((slot, ind))
    members = _evaluate_jobs(state, 0, jobs, cfg, grammar, data, meter)
    return _close_generation(state, 0, members, cfg, grammar, data, meter)


def _next_generation(
    state: _RunState,
    g: int,
    cfg: EvolutionConfig,
    grammar: Grammar,
    data: TaskData,
    meter: Meter | None,
) -> list[ArchiveEntry]:
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
            cfg.genome,
            rng,
            new_id=state.next_id,
            train_increment=cfg.train_longer_increment,
        )
        state.next_id += 1
        child.train_budget = min(child.train_budget, cfg.max_train_budget)
        jobs.append((slot, child))

    new_members = {0: parent}
    for member in _evaluate_jobs(state, g, jobs, cfg, grammar, data, meter):
        slot = member.eval_key[1]
        state.parent_retrains += slot == 0
        if slot > 0 or member.record.fitness >= parent.record.fitness:
            new_members[slot] = member
    members = [new_members[slot] for slot in range(cfg.population_size)]
    return _close_generation(state, g, members, cfg, grammar, data, meter)


@one_blas_thread()
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
    parent plus offspring mutants, with logs, CSV and journal.

    With ``resume``, a journal under ``out_dir`` is replayed and the run
    continues after its last generation; otherwise it starts afresh.
    numpy's BLAS runs on one thread meanwhile (see :mod:`evopower.blas`).
    """
    cfg.validate()
    data.validate()
    fingerprint = cfg.fingerprint()
    out = Path(out_dir) if out_dir is not None else None

    state = None
    if out is not None and resume:
        state = _load_journal(_journal_path(out), fingerprint, run_index, cfg, grammar)
    if state is not None:
        write_rows_csv(out / "generations.csv", _log_rows(run_index, state.logs))
    else:
        if out is not None:
            _start_files(out, fingerprint, run_index)
        state = _RunState(run_index, cfg)
        inserted = _initial_generation(state, cfg, grammar, data, meter)
        _finish_generation(state, inserted, out)
    for g in range(state.generation + 1, cfg.generations + 1):
        inserted = _next_generation(state, g, cfg, grammar, data, meter)
        _finish_generation(state, inserted, out)

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
            "individual": genotype_payload(best.individual),
            "record": asdict(best.record),
        }
        (out / "best.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return result


def mode_config(cfg: EvolutionConfig, mode: str) -> EvolutionConfig:
    """The baseline disables the module archive operators and scores by
    main-head accuracy; the proposed mode keeps the configured fitness
    (``fitness.kind``) and the full operator suite."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    adjusted = copy.deepcopy(cfg)
    if mode == "baseline":
        adjusted.rates.reuse_module = 0.0
        adjusted.rates.remove_module = 0.0
        adjusted.fitness.kind = "accuracy"
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
    rows = [row for res in results for row in _log_rows(res.run, res.logs)]
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
        "individual": genotype_payload(winner.best),
        "record": asdict(winner.best_record),
    }
    (out / "best_genotype.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if not winner.best_record.diverged:
        run_i, gen, slot = winner.best_eval_key
        # on one BLAS thread, like the evaluation it repeats
        with one_blas_thread():
            _, net, report = _train_network(
                winner.best, grammar, data, adjusted,
                _stream(adjusted.seed, run_i, gen, slot, _EVAL),
            )
        if report is not None:
            save_weights(net, out / "best_weights.bin")
    return ExperimentResult(
        mode, out, results, aggregate, winner.run, winner.best, winner.best_record
    )
