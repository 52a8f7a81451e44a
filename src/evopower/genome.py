"""Individuals: modules of layer genes, macro genes, and the split point.

An individual owns one or more modules, each an ordered list of layer
derivations from the grammar's ``<layer>`` symbol, plus macro-level genes
for the training hyperparameters and ``middle_point``, the index of the
hidden layer where the auxiliary output attaches.  :class:`GenomeConfig`
holds the five scalars the config file names: the module count of a
fresh individual, and one pair of layer bounds and one initial range
that every module shares.  Decoding reads the attributes that the
grammar contract (:data:`~evopower.grammar.ATTRIBUTES`, tabulated in
the README's "Grammar files") guarantees for every grammar that
:func:`~evopower.grammar.parse_grammar` loads, so it checks none of
them.  ``<middle_point>`` draws the split point from its dynamic
block, whose upper limit is passed to
:func:`~evopower.grammar.derive` as ``bound``.

Hidden layers are counted over dense layers only; dropout attaches to its
preceding dense layer and never hosts the auxiliary output.  Every
individual keeps at least two dense layers so a split point exists, and
``middle_point`` stays within ``[0, hidden - 2]``: attaching after the
last hidden layer would just duplicate the full model.

Individuals are treated as immutable after construction.  Mutation and
clamping return new objects; ``copy`` helpers perform deep copies of the
gene lists.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, InvalidGenotypeError
from .grammar import LAYER_SYMBOL, MACRO_SYMBOL, MIDDLE_POINT_SYMBOL, GeneList, Grammar, derive

MIN_HIDDEN_LAYERS = 2
_INIT_TRIES = 200
GENOTYPE_VERSION = 2


@dataclass
class GenomeConfig:
    """Module count of a fresh individual, and the layer bounds every module shares."""

    modules: int = 1
    min_layers: int = 2
    max_layers: int = 6
    init_layers_min: int = 2
    init_layers_max: int = 3

    def validate(self) -> None:
        if self.modules < 1:
            raise ConfigError(f"modules must be >= 1, got {self.modules}")
        if self.min_layers < 1:
            raise ConfigError(f"min_layers must be >= 1, got {self.min_layers}")
        if self.min_layers > self.max_layers:
            raise ConfigError(f"min_layers {self.min_layers} exceeds max_layers {self.max_layers}")
        lo, hi = self.init_layers_min, self.init_layers_max
        if lo > hi or lo < self.min_layers or hi > self.max_layers:
            raise ConfigError(
                f"init_layers ({lo}, {hi}) outside [{self.min_layers}, {self.max_layers}]"
            )


@dataclass
class ModuleGene:
    """One module: an ordered list of layer derivations."""

    layer_genes: list[GeneList]

    def copy(self) -> "ModuleGene":
        return ModuleGene([g.copy() for g in self.layer_genes])

    def genotype_key(self) -> tuple:
        """Hashable identity of the module's genotype."""
        return tuple(g.canonical() for g in self.layer_genes)


@dataclass
class MacroGenes:
    """Macro-level genes: hyperparameter derivations plus the split point."""

    genes: dict[str, GeneList]
    middle_point: int

    def copy(self) -> "MacroGenes":
        return MacroGenes({k: g.copy() for k, g in self.genes.items()}, self.middle_point)


@dataclass
class Individual:
    modules: list[ModuleGene]
    macro: MacroGenes
    id: int
    train_budget: float

    def copy(self, new_id: int | None = None) -> "Individual":
        """Deep copy of the genotype."""
        return Individual(
            [m.copy() for m in self.modules],
            self.macro.copy(),
            self.id if new_id is None else new_id,
            self.train_budget,
        )

    def genotype_key(self) -> tuple:
        macro = tuple(sorted((k, g.canonical()) for k, g in self.macro.genes.items()))
        return (
            tuple(m.genotype_key() for m in self.modules),
            macro,
            self.macro.middle_point,
        )


def load_typed(cls, value, where: str = ""):
    """Rebuild dataclass ``cls`` from the JSON form of ``dataclasses.asdict``.

    Field types come from ``typing.get_type_hints``; dataclasses, lists,
    named tuples (read from JSON lists), str-keyed dicts, ``X | Y`` unions
    and scalars nest freely.
    A missing, unknown or wrongly typed field raises
    :class:`InvalidGenotypeError` naming its path.
    """
    where = where or getattr(cls, "__name__", str(cls))
    if is_dataclass(cls):
        if not isinstance(value, dict):
            raise InvalidGenotypeError(f"{where}: expected an object, got {value!r:.60}")
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in value]
        unknown = sorted(set(value) - set(names))
        if missing or unknown:
            raise InvalidGenotypeError(f"{where}: missing fields {missing}, unknown fields {unknown}")
        hints = get_type_hints(cls)
        return cls(**{n: load_typed(hints[n], value[n], f"{where}.{n}") for n in names})
    if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields"):
        if not isinstance(value, list) or len(value) != len(cls._fields):
            raise InvalidGenotypeError(
                f"{where}: expected a list of {len(cls._fields)} values, got {value!r:.60}"
            )
        hints = get_type_hints(cls)
        return cls(*(load_typed(hints[n], v, f"{where}.{n}") for n, v in zip(cls._fields, value)))
    origin, args = get_origin(cls), get_args(cls)
    if origin is list and isinstance(value, list):
        return [load_typed(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if origin is dict and isinstance(value, dict):
        return {k: load_typed(args[1], v, f"{where}[{k!r}]") for k, v in value.items()}
    if origin is UnionType:
        for option in args:
            try:
                return load_typed(option, value, where)
            except InvalidGenotypeError:
                pass
    # type(), not isinstance: a bool is never a valid int or float here
    elif cls in (int, str, bool) and type(value) is cls:
        return value
    elif cls is float and (
        type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
    ):
        return float(value)
    raise InvalidGenotypeError(f"{where}: expected {cls}, got {value!r:.60}")


def _gene_fields(genes: GeneList) -> dict:
    return {"choices": genes.choices, "values": genes.values}


def genotype_fields(ind: Individual) -> dict:
    """``dataclasses.asdict(ind)`` without its deep copies: the same
    nested dicts and lists, sharing the individual's gene lists, for
    serialising on the spot at a fraction of the cost."""
    return {
        "modules": [
            {"layer_genes": [_gene_fields(g) for g in m.layer_genes]} for m in ind.modules
        ],
        "macro": {
            "genes": {k: _gene_fields(g) for k, g in ind.macro.genes.items()},
            "middle_point": ind.macro.middle_point,
        },
        "id": ind.id,
        "train_budget": ind.train_budget,
    }


def genotype_payload(ind: Individual) -> dict:
    """The JSON form of a genotype file entry: the fields plus a version.
    It shares the individual's gene lists, so serialise it, do not edit it."""
    return {"version": GENOTYPE_VERSION, **genotype_fields(ind)}


def load_genotype(payload) -> Individual:
    """Inverse of :func:`genotype_payload`; raises :class:`InvalidGenotypeError`."""
    if not isinstance(payload, dict) or payload.get("version") != GENOTYPE_VERSION:
        version = payload.get("version") if isinstance(payload, dict) else payload
        raise InvalidGenotypeError(f"unsupported individual record version {version!r:.60}")
    return load_typed(Individual, {k: v for k, v in payload.items() if k != "version"})


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # "dense" | "dropout"
    units: int | None = None
    activation: str | None = None
    rate: float | None = None


@dataclass(frozen=True)
class PhenotypeSpec:
    layers: tuple[LayerSpec, ...]
    aux_index: int
    learning_rate: float
    batch_size: int


def _decode_layer(grammar: Grammar, genes: GeneList) -> LayerSpec:
    attrs = derive(grammar, LAYER_SYMBOL, genes)[1]
    if attrs["layer"][0] == "dense":
        return LayerSpec("dense", units=int(attrs["units"][0]), activation=attrs["act"][0])
    return LayerSpec("dropout", rate=float(attrs["rate"][0]))


def module_layer_specs(module: ModuleGene, grammar: Grammar) -> list[LayerSpec]:
    """Decode one module's layer genes into concrete layer specs."""
    return [_decode_layer(grammar, g) for g in module.layer_genes]


def count_hidden_layers(ind: Individual, grammar: Grammar) -> int:
    """Number of trainable (dense) hidden layers across all modules."""
    return sum(
        _decode_layer(grammar, genes).kind == "dense"
        for module in ind.modules
        for genes in module.layer_genes
    )


def clamp_middle_point(ind: Individual, grammar: Grammar) -> Individual:
    """Force ``middle_point`` into ``[0, hidden - 2]``; no-op when in range."""
    hidden = count_hidden_layers(ind, grammar)
    hi = hidden - MIN_HIDDEN_LAYERS
    if hi < 0:
        raise InvalidGenotypeError(
            f"cannot place a split point with {hidden} hidden layers (need >= {MIN_HIDDEN_LAYERS})"
        )
    clamped = min(max(0, ind.macro.middle_point), hi)
    if clamped == ind.macro.middle_point:
        return ind
    out = ind.copy()
    out.macro.middle_point = clamped
    return out


def draw_middle_point(grammar: Grammar, hidden: int, rng: np.random.Generator) -> int:
    """A split point drawn for an individual with ``hidden`` dense layers."""
    attrs = derive(grammar, MIDDLE_POINT_SYMBOL, GeneList(), rng, hidden - MIN_HIDDEN_LAYERS)[1]
    return int(attrs[MIDDLE_POINT_SYMBOL][0])


def init_individual(
    grammar: Grammar,
    config: GenomeConfig,
    rng: np.random.Generator,
    id: int = 0,
    train_budget: float = 1.0,
) -> Individual:
    """Draw a fresh individual with a valid split point.

    Each of the ``config.modules`` modules draws its layer count from
    ``[init_layers_min, init_layers_max]``; the draw repeats until the
    individual carries at least two dense layers, which a dropout-heavy
    grammar may miss on a single attempt.
    """
    config.validate()
    for _ in range(_INIT_TRIES):
        modules = []
        for _ in range(config.modules):
            n_layers = int(rng.integers(config.init_layers_min, config.init_layers_max + 1))
            modules.append(
                ModuleGene([derive(grammar, LAYER_SYMBOL, GeneList(), rng)[0] for _ in range(n_layers)])
            )
        ind = Individual(modules, MacroGenes({}, 0), id, float(train_budget))
        hidden = count_hidden_layers(ind, grammar)
        if hidden < MIN_HIDDEN_LAYERS:
            continue
        macro = {MACRO_SYMBOL: derive(grammar, MACRO_SYMBOL, GeneList(), rng, hidden - MIN_HIDDEN_LAYERS)[0]}
        ind.macro = MacroGenes(macro, draw_middle_point(grammar, hidden, rng))
        return ind
    raise ConfigError(
        f"could not draw {MIN_HIDDEN_LAYERS} dense layers in {_INIT_TRIES} attempts; "
        "check that the grammar can produce dense layers"
    )


def to_phenotype(ind: Individual, grammar: Grammar) -> PhenotypeSpec:
    """Unravel the genotype into a concrete layer stack plus hyperparameters.

    Pure function; raises :class:`InvalidGenotypeError` when a gene does
    not decode or the split point has no place, instead of silently
    repairing it.  The layer bounds belong to the genome config, so
    :func:`validate_individual` checks them.
    """
    layers = [layer for module in ind.modules for layer in module_layer_specs(module, grammar)]
    dense = sum(layer.kind == "dense" for layer in layers)
    if dense < MIN_HIDDEN_LAYERS:
        raise InvalidGenotypeError(f"phenotype has {dense} dense layers, need >= {MIN_HIDDEN_LAYERS}")
    aux = ind.macro.middle_point
    if not 0 <= aux <= dense - MIN_HIDDEN_LAYERS:
        raise InvalidGenotypeError(
            f"middle_point {aux} outside [0, {dense - MIN_HIDDEN_LAYERS}] for {dense} dense layers"
        )

    macro = derive(grammar, MACRO_SYMBOL, ind.macro.genes.get(MACRO_SYMBOL, GeneList()))[1]
    return PhenotypeSpec(tuple(layers), aux, float(macro["lr"][0]), int(macro["batch"][0]))


def validate_module(module: ModuleGene, grammar: Grammar, genome: GenomeConfig) -> None:
    """Raise :class:`InvalidGenotypeError` unless the module's layer count
    lies within the genome's bounds and every layer decodes."""
    if not genome.min_layers <= len(module.layer_genes) <= genome.max_layers:
        raise InvalidGenotypeError(
            f"module has {len(module.layer_genes)} layers, "
            f"outside [{genome.min_layers}, {genome.max_layers}]"
        )
    module_layer_specs(module, grammar)


def validate_individual(ind: Individual, grammar: Grammar, genome: GenomeConfig) -> None:
    """Raise :class:`InvalidGenotypeError` unless every invariant holds."""
    if not ind.modules:
        raise InvalidGenotypeError("individual has no modules")
    if not 0 <= ind.train_budget < math.inf:
        raise InvalidGenotypeError(f"train budget must be finite and >= 0, got {ind.train_budget}")
    for module in ind.modules:
        validate_module(module, grammar, genome)
    to_phenotype(ind, grammar)
