"""Flat run configuration files: dotted keys, one ``key = value`` per line.

The file mirrors the full run setup across five namespaces
(``evolution.*`` including ``evolution.rates.*``, ``fitness.*``,
``meter.*``, ``data.*``, ``genome.*``).  Unknown keys are rejected;
missing keys fall back to the library defaults.  ``#`` starts a comment
line.  The format round-trips, so a written snapshot replays a run.

Every key is a scalar field of the dataclass its prefix names in
``SECTIONS`` and is parsed by that field's type.  ``genome.*`` names
the fields of :class:`~evopower.genome.GenomeConfig` plus
``genome.grammar``, which is :attr:`AppConfig.grammar`: the grammar is
loaded beside the evolution settings, so it stays out of the
fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .data import Dataset, SplitSpec, load_idx, split, synthetic_dataset
from .errors import ConfigError, DataError, GrammarError
from .evolution import EvolutionConfig, TaskData
from .grammar import Grammar, load_packaged_grammar, parse_grammar
from .network import DTYPE

PACKAGED_GRAMMARS = ("default", "dense_only")

DATA_KINDS = ("synthetic", "idx")

# idx inputs are 28x28 grey images over ten classes
IDX_IO_SHAPE = (784, 10)

# (key prefix, attribute path from an AppConfig to the dataclass holding its keys)
SECTIONS = (
    ("evolution", ("evolution",)),
    ("evolution.rates", ("evolution", "rates")),
    ("fitness", ("evolution", "fitness")),
    ("meter", ("evolution", "meter")),
    ("genome", ("evolution", "genome")),
    ("genome", ()),
    ("data", ("data",)),
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise ConfigError(f"unexpected boolean config value {value!r}")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def parse_config(text: str) -> dict[str, str]:
    """Raw key/value pairs; duplicates and shapeless lines are errors."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


@dataclass
class DataConfig:
    """Dataset selection: a synthetic task or local IDX files."""

    kind: str = "synthetic"
    train_images: str = ""
    train_labels: str = ""
    classes: int = 3
    samples_per_class: int = 200
    dimensions: int = 16
    separation: float = 3.0
    clusters_per_class: int = 1
    seed: int = 0
    fraction_train: float = 0.6
    fraction_validation: float = 0.2
    fraction_test: float = 0.2
    split_seed: int = 0
    subset_train: int = 2000
    subset_validation: int = 500
    subset_test: int = 500

    def validate(self) -> None:
        if self.kind not in DATA_KINDS:
            raise ConfigError(f"data.kind must be one of {DATA_KINDS}, got {self.kind!r}")
        if self.kind == "idx":
            if not self.train_images:
                raise ConfigError("data.kind = idx requires data.train_images")
            if not self.train_labels:
                raise ConfigError("data.kind = idx requires data.train_labels")
        for name in ("seed", "split_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"data.{name} must be >= 0, got {getattr(self, name)}")

    def io_shape(self) -> tuple[int, int]:
        if self.kind == "synthetic":
            return (self.dimensions, self.classes)
        return IDX_IO_SHAPE

    def load_raw(self) -> Dataset:
        self.validate()
        if self.kind == "synthetic":
            return synthetic_dataset(
                self.classes,
                self.samples_per_class,
                self.dimensions,
                self.separation,
                seed=self.seed,
                clusters_per_class=self.clusters_per_class,
            )
        return load_idx(self.train_images, self.train_labels)

    def load(self) -> TaskData:
        """The task splits in the network dtype.  The raw samples are cast
        before the split gathers rows, so the float64 array is freed
        first; casting and then gathering gives the bits of gathering and
        then casting."""
        ds = self.load_raw()
        ds.samples = ds.samples.astype(DTYPE)
        return self.split_task(ds)

    def split_task(self, ds: Dataset) -> TaskData:
        """The configured train/validation/test splits of ``ds``."""
        if self.kind == "synthetic":
            fractions = (self.fraction_train, self.fraction_validation, self.fraction_test)
        else:
            # idx takes fixed counts, which split reads as fractions of the rows
            counts = (self.subset_train, self.subset_validation, self.subset_test)
            if not len(ds) or sum(counts) > len(ds):
                raise DataError(f"requested {sum(counts)} samples from a dataset of {len(ds)}")
            fractions = tuple(c / len(ds) for c in counts)
        return TaskData(*split(ds, SplitSpec(fractions, self.split_seed)))


@dataclass
class AppConfig:
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    data: DataConfig = field(default_factory=DataConfig)
    grammar: str = "default"

    @staticmethod
    def from_flat(flat: dict[str, str]) -> "AppConfig":
        unknown = sorted(set(flat) - set(KEY_TYPES))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        values = {key: _convert(key, raw) for key, raw in flat.items()}

        app = AppConfig()
        for key, holder, name, _ in _walk(app):
            if key in values:
                setattr(holder, name, values[key])
        app.evolution.validate()
        app.data.validate()
        return app

    def to_flat(self) -> dict[str, str]:
        return {key: _fmt(getattr(holder, name)) for key, holder, name, _ in _walk(self)}


def _walk(app: AppConfig):
    """(flat key, dataclass holding it, field name, field type) for every
    int, float or str field of every section."""
    for prefix, path in SECTIONS:
        holder = app
        for attr in path:
            holder = getattr(holder, attr)
        types = get_type_hints(type(holder))
        for f in fields(holder):
            if types[f.name] in (int, float, str):
                yield f"{prefix}.{f.name}", holder, f.name, types[f.name]


KEY_TYPES = {key: kind for key, _, _, kind in _walk(AppConfig())}


def _convert(key: str, raw: str):
    kind = KEY_TYPES[key]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}")


def format_config(app: AppConfig) -> str:
    flat = app.to_flat()
    return "\n".join(f"{key} = {flat[key]}" for key in sorted(flat)) + "\n"


def load_config(path) -> AppConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return AppConfig.from_flat(parse_config(text))


def load_grammar_spec(name_or_path: str) -> Grammar:
    """A packaged grammar name, or a path to a grammar file."""
    if name_or_path in PACKAGED_GRAMMARS:
        return load_packaged_grammar(name_or_path)
    path = Path(name_or_path)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise GrammarError(f"cannot read grammar file {path}: {exc}")
        return parse_grammar(text)
    raise ConfigError(
        f"genome.grammar: {name_or_path!r} is neither a packaged grammar "
        f"{PACKAGED_GRAMMARS} nor a readable file"
    )
