"""Mutation operators, the module archive, and power-weighted reuse.

Eight operators fire independently per offspring, each gated by its own
probability, in a fixed order: add_layer, reuse_layer, remove_layer,
reuse_module, remove_module, dsge_level, macro_layer, train_longer.  The
probability draw is always consumed, even when the operator turns out to
be inapplicable (module at its layer bound, empty archive, single module),
so rate settings do not shift the random stream consumed by later
operators.

The archive keeps previously seen modules together with their measured
power draw.  reuse_module picks an entry with probability inversely
proportional to its power,

    P(i) = (1 / power_i) / sum_j (1 / power_j),

so cheap modules propagate preferentially.  Powers are clamped below at
``POWER_FLOOR_W`` before the division.  At capacity the highest-power
entry is evicted; re-inserting a known genotype just refreshes its power.
Entries are indexed by genotype key, so an insert looks its module up
once instead of comparing against every entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .genome import (
    MIN_HIDDEN_LAYERS,
    GenomeConfig,
    Individual,
    ModuleGene,
    clamp_middle_point,
    count_hidden_layers,
    draw_middle_point,
)
from .grammar import LAYER_SYMBOL, GeneList, Grammar, derive

POWER_FLOOR_W = 1e-6
DEFAULT_ARCHIVE_CAPACITY = 256


@dataclass
class MutationRates:
    """Per-operator firing probabilities."""

    add_layer: float = 0.25
    reuse_layer: float = 0.15
    remove_layer: float = 0.25
    reuse_module: float = 0.15
    remove_module: float = 0.25
    dsge_level: float = 0.15
    macro_layer: float = 0.30
    train_longer: float = 0.20

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"mutation rate {name} must be in [0, 1], got {value}")


@dataclass
class ArchiveEntry:
    module: ModuleGene
    power_watts: float


@dataclass
class ModuleArchive:
    """Entries in insertion order; change them only through :func:`archive_insert`,
    which keeps the genotype-key index in step."""

    entries: list[ArchiveEntry] = field(default_factory=list)
    capacity: int = DEFAULT_ARCHIVE_CAPACITY

    def __post_init__(self) -> None:
        # not a field, so equality, repr and asdict see only the entries
        self._index = {e.module.genotype_key(): e for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)


def archive_insert(archive: ModuleArchive, module: ModuleGene, power_watts: float) -> ModuleArchive:
    """Record a module with its measured power; returns the same archive.

    Duplicate genotypes update in place; at capacity the first
    highest-power entry is evicted before the insert.
    """
    power = max(float(power_watts), POWER_FLOOR_W)
    key = module.genotype_key()
    known = archive._index.get(key)
    if known is not None:
        known.power_watts = power
        return archive
    if len(archive.entries) >= archive.capacity:
        worst = max(range(len(archive.entries)), key=lambda i: archive.entries[i].power_watts)
        del archive._index[archive.entries.pop(worst).module.genotype_key()]
    entry = ArchiveEntry(module.copy(), power)
    archive.entries.append(entry)
    archive._index[key] = entry
    return archive


def _inverse_powers(archive: ModuleArchive) -> list[float]:
    return [1.0 / max(e.power_watts, POWER_FLOOR_W) for e in archive.entries]


def selection_probabilities(archive: ModuleArchive) -> np.ndarray:
    """Exact selection distribution over archive entries."""
    if not archive.entries:
        return np.zeros(0)
    inv = np.array(_inverse_powers(archive))
    return inv / inv.sum()


def select_archive_module(archive: ModuleArchive, rng: np.random.Generator) -> ModuleGene | None:
    """Roulette-wheel draw weighted by inverse power; None when empty."""
    if not archive.entries:
        return None
    weights = _inverse_powers(archive)
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for entry, w in zip(archive.entries, weights):
        acc += w
        if r < acc:
            return entry.module.copy()
    return archive.entries[-1].module.copy()  # r landed on the top edge


def _add_layer(ind: Individual, grammar: Grammar, genome: GenomeConfig, rng: np.random.Generator) -> None:
    m = ind.modules[int(rng.integers(0, len(ind.modules)))]
    if len(m.layer_genes) >= genome.max_layers:
        return
    pos = int(rng.integers(0, len(m.layer_genes) + 1))
    m.layer_genes.insert(pos, derive(grammar, LAYER_SYMBOL, GeneList(), rng)[0])


def _reuse_layer(ind: Individual, genome: GenomeConfig, rng: np.random.Generator) -> None:
    m = ind.modules[int(rng.integers(0, len(ind.modules)))]
    if not m.layer_genes or len(m.layer_genes) >= genome.max_layers:
        return
    src = int(rng.integers(0, len(m.layer_genes)))
    pos = int(rng.integers(0, len(m.layer_genes) + 1))
    m.layer_genes.insert(pos, m.layer_genes[src].copy())


def _remove_layer(ind: Individual, grammar: Grammar, genome: GenomeConfig, rng: np.random.Generator) -> None:
    m = ind.modules[int(rng.integers(0, len(ind.modules)))]
    if len(m.layer_genes) <= genome.min_layers:
        return
    pos = int(rng.integers(0, len(m.layer_genes)))
    removed = m.layer_genes.pop(pos)
    if count_hidden_layers(ind, grammar) < MIN_HIDDEN_LAYERS:
        m.layer_genes.insert(pos, removed)


def _reuse_module(ind: Individual, rng: np.random.Generator, archive: ModuleArchive) -> None:
    module = select_archive_module(archive, rng)
    if module is None:
        return
    pos = int(rng.integers(0, len(ind.modules) + 1))
    ind.modules.insert(pos, module)


def _remove_module(ind: Individual, grammar: Grammar, rng: np.random.Generator) -> None:
    if len(ind.modules) <= 1:
        return
    pos = int(rng.integers(0, len(ind.modules)))
    removed = ind.modules.pop(pos)
    if count_hidden_layers(ind, grammar) < MIN_HIDDEN_LAYERS:
        ind.modules.insert(pos, removed)


def _dsge_level(ind: Individual, grammar: Grammar, rng: np.random.Generator) -> None:
    # re-derive one gene: redraw one expansion choice, then resample the
    # gene list's terminal values in a resample walk (choices elsewhere are kept)
    targets: list[tuple[GeneList, str]] = [
        (genes, LAYER_SYMBOL) for m in ind.modules for genes in m.layer_genes
    ]
    targets.extend((ind.macro.genes[s], s) for s in sorted(ind.macro.genes))
    genes, start = targets[int(rng.integers(0, len(targets)))]
    slots = [(nt, i) for nt, idxs in sorted(genes.choices.items()) for i in range(len(idxs))]
    if not slots:
        return
    nt, i = slots[int(rng.integers(0, len(slots)))]
    before = genes.copy()
    genes.choices[nt][i] = int(rng.integers(0, len(grammar.alternatives(nt))))
    stripped = GeneList(choices=genes.choices, values={})
    fixed = derive(grammar, start, stripped, rng)[0]
    genes.choices, genes.values = fixed.choices, fixed.values
    if count_hidden_layers(ind, grammar) < MIN_HIDDEN_LAYERS:
        genes.choices, genes.values = before.choices, before.values


def _macro_layer(ind: Individual, grammar: Grammar, rng: np.random.Generator) -> None:
    # resample the values of one macro derivation, or redraw the split point
    symbols = sorted(ind.macro.genes)
    pick = int(rng.integers(0, len(symbols) + 1))
    if pick < len(symbols):
        genes = ind.macro.genes[symbols[pick]]
        stripped = GeneList(choices={k: list(v) for k, v in genes.choices.items()}, values={})
        fixed = derive(grammar, symbols[pick], stripped, rng)[0]
        genes.choices, genes.values = fixed.choices, fixed.values
    else:
        ind.macro.middle_point = draw_middle_point(grammar, count_hidden_layers(ind, grammar), rng)


def mutate(
    ind: Individual,
    rates: MutationRates,
    archive: ModuleArchive,
    grammar: Grammar,
    genome: GenomeConfig,
    rng: np.random.Generator,
    new_id: int,
    train_increment: float = 1.0,
) -> Individual:
    """Produce one offspring; the parent is never modified.

    Every operator keeps the offspring valid: layer counts stay inside
    the genome's bounds, at least two dense layers survive (violating
    removals are reverted), and ``middle_point`` is re-clamped at the end.
    """
    child = ind.copy(new_id=new_id)
    if rng.random() < rates.add_layer:
        _add_layer(child, grammar, genome, rng)
    if rng.random() < rates.reuse_layer:
        _reuse_layer(child, genome, rng)
    if rng.random() < rates.remove_layer:
        _remove_layer(child, grammar, genome, rng)
    if rng.random() < rates.reuse_module:
        _reuse_module(child, rng, archive)
    if rng.random() < rates.remove_module:
        _remove_module(child, grammar, rng)
    if rng.random() < rates.dsge_level:
        _dsge_level(child, grammar, rng)
    if rng.random() < rates.macro_layer:
        _macro_layer(child, grammar, rng)
    if rng.random() < rates.train_longer:
        child.train_budget += train_increment
    return clamp_middle_point(child, grammar)
