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
  ``checkpoints/journal.jsonl`` (version 8) holding only what a replay
  cannot recompute: the measured :class:`Outcome` of each of the
  generation's evaluations and the watts of its probes, plus a digest of
  the individuals it evaluated.  A resumed run replays the lines through
  the generation code of a live run, which regenerates the individuals
  from their streams and their records from the outcomes, so it rebuilds
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
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .blas import one_blas_thread
from .data import Dataset
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    InvalidGenotypeError,
    MeasurementError,
    TrainingDivergedError,
)
from .fitness import WORST_FITNESS, FitnessConfig, evaluate_fitness
from .genome import (
    GenomeConfig,
    Individual,
    ModuleGene,
    count_hidden_layers,
    genotype_fields,
    genotype_payload,
    init_individual,
    load_typed,
    to_phenotype,
)
from .grammar import Grammar
from .mutation import ModuleArchive, MutationRates, archive_insert, mutate
from .network import DTYPE, Network, TrainReport, build, evaluate_accuracy, save_weights, split, train
from .power import (
    DEFAULT_N_MEASURES,
    AnalyticMeter,
    AnalyticMeterConfig,
    Meter,
    measure_mean,
    probe_module_power,
)

CHECKPOINT_VERSION = 8
MODES = ("baseline", "proposed")

# rng stream purposes
_MUT, _EVAL, _METER, _PROBE = 0, 1, 2, 3


def _stream(*parts) -> np.random.Generator:
    return np.random.default_rng([int(p) for p in parts])


def _eval_stream(cfg: EvolutionConfig, run: int, generation: int, slot: int) -> np.random.Generator:
    """The stream that builds and trains evaluation (run, generation, slot)'s network."""
    return _stream(cfg.seed, run, generation, slot, _EVAL)


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
    """The splits an evaluation reads, held in the network dtype."""

    train: Dataset
    validation: Dataset
    test: Dataset | None = None

    def __post_init__(self):
        # a no-op on DataConfig.load's splits, which are cast already
        for name in ("train", "validation", "test"):
            part = getattr(self, name)
            if part is not None:
                setattr(self, name, replace(part, samples=part.samples.astype(DTYPE, copy=False)))

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


class Outcome(NamedTuple):
    """What one evaluation measured, in the order of a journal row: each
    head's count of correct validation answers, each partition's power,
    and the last epoch's training loss, nan when training diverged."""

    correct_left: int
    correct_right: int
    power_left_w: float
    power_right_w: float
    final_loss: float

    @property
    def diverged(self) -> bool:
        return math.isnan(self.final_loss)

    def fault(self, validation: int) -> str | None:
        """Why no evaluation on ``validation`` samples yields this outcome,
        as ``field: reason``, or None.  A measured outcome has counts in
        [0, validation], powers finite and > 0, which the power-led
        fitnesses divide by, and a finite loss; a diverged one is what
        :func:`measure_individual` writes, zeros and a nan loss.  A live
        evaluation and a journal replay both refuse a fault."""
        if self.diverged:
            if self[:4] != (0, 0, 0.0, 0.0):
                return (f"final_loss: a nan loss marks a divergence, which holds zeros, "
                        f"got {self[:4]}")
            return None
        for name in ("correct_left", "correct_right"):
            value = getattr(self, name)
            if not 0 <= value <= validation:
                return f"{name}: count must be in [0, {validation}], got {value}"
        for name in ("power_left_w", "power_right_w"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                return f"{name}: power must be finite and > 0, got {value}"
        if not math.isfinite(self.final_loss):
            return (f"final_loss: loss must be finite, or nan for a divergence, "
                    f"got {self.final_loss}")
        return None


@dataclass
class EvaluationRecord:
    """An evaluation's :class:`Outcome`, its counts as accuracies, plus
    what its individual and the config determine; :func:`evaluation_record`
    builds it."""

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


def rank(fitness: float, power_left_w: float, *ids: int) -> tuple:
    """The sort key of every ranking of results, lowest first: higher
    fitness, then lower left power, then the ids in order."""
    return (-fitness, power_left_w, *ids)


def best_slot(records: list[EvaluationRecord]) -> int:
    """The slot of the rank-minimal record; ValueError when there is none."""
    return min(
        range(len(records)),
        key=lambda i: rank(records[i].fitness, records[i].power_left_w, records[i].individual),
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


def _epochs(ind: Individual, cfg: EvolutionConfig) -> int:
    """The epochs ``ind`` trains for, which a finished training runs in full."""
    return max(1, int(round(min(ind.train_budget, cfg.max_train_budget))))


def _train_network(
    ind: Individual,
    grammar: Grammar,
    data: TaskData,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
) -> tuple[Network, TrainReport | None]:
    """Phenotype, build and train ``ind`` on the training split.

    Returns the network and the training report; the report is None
    when training diverged.
    """
    spec = to_phenotype(ind, grammar)
    net = build(spec, data.input_dim, data.class_count, rng)
    try:
        report = train(
            net,
            data.train.samples,
            data.train.labels,
            _epochs(ind, cfg),
            spec.learning_rate,
            spec.batch_size,
            rng,
        )
    except TrainingDivergedError:
        return net, None
    return net, report


def evaluation_record(
    ind: Individual, outcome: Outcome, grammar: Grammar, cfg: EvolutionConfig, validation: int
) -> EvaluationRecord:
    """The record of ``ind``'s evaluation on ``validation`` samples:
    ``outcome``'s powers and loss, each count over ``validation`` as an
    accuracy, plus the id, the dense-layer count, the split point, the
    epoch budget, the epochs run (0 when training diverged) and the
    fitness (then the worst).  A live evaluation and a replayed journal
    row both build their record here."""
    diverged = outcome.diverged
    acc_left = outcome.correct_left / validation
    acc_right = outcome.correct_right / validation
    fitness = WORST_FITNESS if diverged else evaluate_fitness(
        cfg.fitness, acc_left, acc_right, outcome.power_left_w
    )
    return EvaluationRecord(
        ind.id, fitness, acc_left, acc_right, outcome.power_left_w, outcome.power_right_w,
        count_hidden_layers(ind, grammar), ind.macro.middle_point,
        float(min(ind.train_budget, cfg.max_train_budget)),
        0 if diverged else _epochs(ind, cfg), outcome.final_loss, diverged,
    )


def measure_individual(
    ind: Individual,
    grammar: Grammar,
    data: TaskData,
    meter: Meter,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
) -> Outcome:
    """Full measurement: phenotype, train on the joint loss, split, count
    both partitions' correct validation answers, meter inference power.
    Divergence is the zero outcome with a nan loss; a measurement with
    an :meth:`Outcome.fault` is a MeasurementError."""
    net, report = _train_network(ind, grammar, data, cfg, rng)
    if report is None:
        return Outcome(0, 0, 0.0, 0.0, math.nan)
    left, right = split(net)
    # the partitions answer bit for bit like the heads, so one pass over
    # the validation set scores both; each accuracy is exactly k / n,
    # which times n rounds back to the count k
    vx = data.validation.samples
    n = len(data.validation)
    correct_left, correct_right = (
        round(acc * n) for acc in evaluate_accuracy(net, vx, data.validation.labels)
    )
    meter.observe(left)
    power_left = measure_mean(meter, lambda: left.forward(vx), cfg.n_measures).mean_watts
    meter.observe(right)
    power_right = measure_mean(meter, lambda: right.forward(vx), cfg.n_measures).mean_watts
    measured = Outcome(correct_left, correct_right, power_left, power_right, report.final_loss)
    fault = measured.fault(n)
    if fault is not None:
        raise MeasurementError(f"individual {ind.id}: {fault}")
    return measured


class _RunState:
    def __init__(self, run: int, cfg: EvolutionConfig, validation: int):
        self.run = run
        self.validation = validation  # the samples each record's counts are out of
        self.members: list[Member] = []
        self.archive = ModuleArchive(capacity=cfg.archive_capacity)
        self.probed: set[tuple] = set()  # genotype keys of the probed modules
        self.logs: list[GenerationLog] = []
        self.next_id = 0
        self.evaluations = 0
        self.parent_retrains = 0
        self.generation = -1  # last completed generation


# a generation's (slot, individual) jobs, and its unprobed modules as
# (slot, module index, module)
_Jobs = list[tuple[int, Individual]]
_Probes = list[tuple[int, int, ModuleGene]]


def _generation(
    state: _RunState,
    cfg: EvolutionConfig,
    grammar: Grammar,
    evaluate: Callable[[int, _Jobs], list[Outcome]],
    probe: Callable[[int, _Probes], list[float]],
) -> tuple[_Jobs, list[Outcome], list[float]]:
    """Run generation ``state.generation + 1`` of ``state``.

    The jobs come from the keyed streams: the initial individuals, or
    the parent's mutants.  ``evaluate(g, jobs)`` scores them in slot
    order, giving their outcomes, which become their records here, and
    ``probe(g, probes)`` gives the watts of the members' modules that no
    earlier generation probed.  A live run trains, meters and probes
    there; a resumed run answers from its journal, so both take the same
    steps.  Returns the jobs, their outcomes and the probes' watts.
    """
    g = state.generation + 1
    jobs: _Jobs = []
    if g == 0:
        parent = None
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
    else:
        parent = select_parent(state.members)
        # slot 0 carries the parent; a train_longer draw may grant it a
        # bigger budget, in which case it retrains from scratch and keeps
        # the new evaluation only if that did not hurt
        if _stream(cfg.seed, state.run, g, 0, _MUT).random() < cfg.rates.train_longer:
            candidate = parent.individual.copy()
            candidate.train_budget = min(
                parent.individual.train_budget + cfg.train_longer_increment,
                cfg.max_train_budget,
            )
            jobs.append((0, candidate))
            state.parent_retrains += 1
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

    outcomes = evaluate(g, jobs)
    state.evaluations += len(jobs)
    members = {0: parent}
    for (slot, ind), outcome in zip(jobs, outcomes):
        record = evaluation_record(ind, outcome, grammar, cfg, state.validation)
        if slot > 0 or parent is None or record.fitness >= parent.record.fitness:
            members[slot] = Member(ind, record, (g, slot))
    state.members = [members[slot] for slot in range(cfg.population_size)]
    state.generation = g

    probes: _Probes = []
    # the archive only feeds reuse_module, so skip the probing cost when
    # that operator is disabled (baseline mode)
    if cfg.rates.reuse_module > 0:
        for slot, member in enumerate(state.members):
            for mi, module in enumerate(member.individual.modules):
                key = module.genotype_key()
                if key not in state.probed:
                    state.probed.add(key)
                    probes.append((slot, mi, module))
    probe_watts = probe(g, probes)
    for (_, _, module), watts in zip(probes, probe_watts):
        archive_insert(state.archive, module, watts)

    logged = [m.record for m in state.members]
    state.logs.append(GenerationLog(g, logged, best_slot(logged)))
    return jobs, outcomes, probe_watts


def _live_sources(
    run: int, cfg: EvolutionConfig, grammar: Grammar, data: TaskData, meter: Meter | None
):
    """The ``evaluate`` and ``probe`` of a live run: each job is trained,
    scored and metered start to finish, in slot order, then each unseen
    module is probed."""

    def evaluate(g: int, jobs: _Jobs) -> list[Outcome]:
        return [
            measure_individual(
                ind, grammar, data, _meter_for(meter, cfg, (cfg.seed, run, g, slot, _METER)),
                cfg, _eval_stream(cfg, run, g, slot),
            )
            for slot, ind in jobs
        ]

    def probe(g: int, probes: _Probes) -> list[float]:
        return [
            probe_module_power(
                module,
                grammar,
                _meter_for(meter, cfg, (cfg.seed, run, g, slot, _PROBE, mi)),
                (data.input_dim, data.class_count),
                n_measures=cfg.n_measures,
                seed=cfg.seed,
            )[0]
            for slot, mi, module in probes
        ]

    return evaluate, probe


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


class _JournalLine(NamedTuple):
    """One finished generation, as appended to ``journal.jsonl`` (version 8)
    in the JSON list ``[generation, outcomes, probe_watts, genotypes]``.

    ``outcomes`` holds one :class:`Outcome` per evaluated job, in slot
    order, written as a JSON list of its 5 values, and ``probe_watts``
    the raw watts of the generation's probes, in probe order: what a
    replay cannot recompute.  ``genotypes`` is a digest of the evaluated
    individuals, which a replay regenerates.
    """

    generation: int
    outcomes: list[Outcome]
    probe_watts: list[float]
    genotypes: str


_COMPACT = (",", ":")  # json separators of the journal lines


def _genotypes_digest(jobs: _Jobs) -> str:
    """Short sha256 of the JSON form of the jobs' individuals; JSON tells
    16 from 16.0 and true from 1."""
    blob = json.dumps([genotype_fields(ind) for _, ind in jobs], separators=_COMPACT)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _journal_path(out: Path) -> Path:
    return out / "checkpoints" / "journal.jsonl"


def _start_files(out: Path, fingerprint: str, run: int, validation: int) -> None:
    """Replace the run's journal and CSV with empty ones."""
    journal = _journal_path(out)
    journal.parent.mkdir(parents=True, exist_ok=True)
    header = {"version": CHECKPOINT_VERSION, "fingerprint": fingerprint, "run": run,
              "validation": validation}
    journal.write_text(json.dumps(header, separators=_COMPACT) + "\n")
    write_rows_csv(out / "generations.csv", [])


def _finish_generation(
    state: _RunState, out: Path, jobs: _Jobs, outcomes: list[Outcome], probe_watts: list[float]
) -> None:
    """Append the generation to the journal, then its rows to the CSV."""
    log = state.logs[-1]
    line = _JournalLine(log.generation, outcomes, probe_watts, _genotypes_digest(jobs))
    with open(_journal_path(out), "a") as fh:
        fh.write(json.dumps(line, separators=_COMPACT) + "\n")
    _append_rows_csv(out / "generations.csv", _log_rows(state.run, [log]))


def _parse_line(path: Path, number: int, raw: bytes):
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path} line {number}: {exc}")


def _check_outcomes(line: _JournalLine, where: str, validation: int) -> None:
    """Refuse a row no evaluation can produce, as a live run would refuse
    its measurement (:meth:`Outcome.fault`)."""
    for i, outcome in enumerate(line.outcomes):
        fault = outcome.fault(validation)
        if fault is not None:
            raise CheckpointError(f"{where}: in outcomes[{i}].{fault}")


def _replay_sources(line: _JournalLine, where: str):
    """The ``evaluate`` and ``probe`` of a replayed generation: the line's
    outcomes and watts, once the regenerated jobs match its digest and
    count and the probes its watts.  ``where`` names the line."""

    def evaluate(g: int, jobs: _Jobs) -> list[Outcome]:
        digest = _genotypes_digest(jobs)
        if digest != line.genotypes:
            raise CheckpointError(
                f"{where}: in genotypes: {line.genotypes!r:.60} is not the digest {digest} "
                "of the individuals the current grammar and configuration generate"
            )
        if len(line.outcomes) != len(jobs):
            raise CheckpointError(
                f"{where}: in outcomes: {len(line.outcomes)} rows for {len(jobs)} evaluations"
            )
        return line.outcomes

    def probe(g: int, probes: _Probes) -> list[float]:
        if len(line.probe_watts) != len(probes):
            raise CheckpointError(
                f"{where}: in probe_watts: {len(line.probe_watts)} values "
                f"for {len(probes)} unprobed modules"
            )
        for i, ((slot, mi, _), watts) in enumerate(zip(probes, line.probe_watts)):
            if not 0 <= watts < math.inf:
                raise CheckpointError(
                    f"{where}: in probe_watts[{i}] (member {slot}, module {mi}): "
                    f"power must be finite and >= 0, got {watts}"
                )
        return line.probe_watts

    return evaluate, probe


def _load_journal(
    path: Path, fingerprint: str, run: int, cfg: EvolutionConfig, grammar: Grammar,
    validation: int,
) -> _RunState | None:
    """Replay a run's journal; None when it holds no finished generation.

    An unterminated last line is an append cut short, so it is dropped
    and the file truncated to the lines before it.  Each line is replayed
    through :func:`_generation`, the code of a live run, with the line's
    outcomes and watts standing in for training and probing.  Replay
    stops after generation ``cfg.generations``; later lines stay in the
    file for a longer run to reuse.  The header names the validation
    size its counts are out of, which must be ``validation``, the
    current data's.
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
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint {path} header is not an object: {header!r:.60}")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')!r:.60} in {path}"
        )
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(f"checkpoint {path} does not match the current configuration")
    if header.get("run") != run:
        raise CheckpointError(
            f"checkpoint {path} belongs to run {header.get('run')!r:.60}, expected {run}"
        )
    size = header.get("validation")
    if type(size) is not int or size < 1:
        raise CheckpointError(f"checkpoint {path} names no validation size: {size!r:.60}")
    if size != validation:
        raise CheckpointError(
            f"checkpoint {path} counts answers out of {size} validation samples, "
            f"the current data holds {validation}"
        )
    state = _RunState(run, cfg, validation)
    for number, raw in enumerate(lines[1:], 2):
        if state.generation == cfg.generations:
            break
        where = f"malformed checkpoint {path} line {number}"
        try:
            line = load_typed(_JournalLine, _parse_line(path, number, raw))
        except InvalidGenotypeError as exc:
            raise CheckpointError(f"{where}: {exc}")
        if line.generation != state.generation + 1:
            raise CheckpointError(f"{where}: not generation {state.generation + 1}")
        _check_outcomes(line, where, validation)
        _generation(state, cfg, grammar, *_replay_sources(line, where))
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
    validation = len(data.validation)
    out = Path(out_dir) if out_dir is not None else None

    state = None
    if out is not None and resume:
        state = _load_journal(
            _journal_path(out), fingerprint, run_index, cfg, grammar, validation
        )
    if state is not None:
        write_rows_csv(out / "generations.csv", _log_rows(run_index, state.logs))
    else:
        if out is not None:
            _start_files(out, fingerprint, run_index, validation)
        state = _RunState(run_index, cfg, validation)
    evaluate, probe = _live_sources(run_index, cfg, grammar, data, meter)
    while state.generation < cfg.generations:
        finished = _generation(state, cfg, grammar, evaluate, probe)
        if out is not None:
            _finish_generation(state, out, *finished)

    best = select_parent(state.members)
    if out is not None:
        _write_best(out / "best.json", run_index, best.individual, best.record)
    return RunResult(run_index, state.logs, best.individual, best.record,
                     (run_index, *best.eval_key), state.evaluations, state.parent_retrains,
                     state.archive)


def _write_best(path: Path, run: int, individual: Individual, record: EvaluationRecord,
                **extra) -> None:
    """``best.json`` or ``best_genotype.json``: a best individual and its record."""
    payload = {**extra, "run": run, "individual": genotype_payload(individual),
               "record": asdict(record)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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

    results = [
        run_es(adjusted, grammar, data, meter=meter, out_dir=out / f"run_{r}", run_index=r,
               resume=resume)
        for r in range(adjusted.runs)
    ]
    rows = [row for res in results for row in _log_rows(res.run, res.logs)]
    aggregate = out / "aggregate.csv"
    write_rows_csv(aggregate, rows)

    winner = min(results, key=lambda res: rank(
        res.best_record.fitness, res.best_record.power_left_w, res.run, res.best_record.individual
    ))
    _write_best(out / "best_genotype.json", winner.run, winner.best, winner.best_record, mode=mode)
    if not winner.best_record.diverged:
        # on one BLAS thread and its stream, like the evaluation it repeats
        with one_blas_thread():
            net, report = _train_network(
                winner.best, grammar, data, adjusted, _eval_stream(adjusted, *winner.best_eval_key)
            )
        if report is not None:
            save_weights(net, out / "best_weights.bin")
    return ExperimentResult(
        mode, out, results, aggregate, winner.run, winner.best, winner.best_record
    )
