"""Property tests: the checkpoint journal and genotype file loaders fail
only with their own typed errors on truncated or mutated input."""

import copy
import json
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from evopower.cli import _read_genotype
from evopower.data import SplitSpec, split, synthetic_dataset
from evopower.errors import CheckpointError, ConfigError
from evopower.evolution import EvolutionConfig, TaskData, _load_journal, run_experiment
from evopower.genome import GenomeConfig, ModuleSpec
from evopower.grammar import load_packaged_grammar

CFG = EvolutionConfig(
    runs=1,
    generations=2,
    population_size=3,
    default_train_budget=1.0,
    max_train_budget=2.0,
    n_measures=2,
    seed=3,
    genome=GenomeConfig(modules=[ModuleSpec(min_layers=2, max_layers=3, init_layers=(2, 3))]),
)

# unbounded draws rarely reach the ints a float cannot hold, so add some
INTEGERS = st.integers() | st.sampled_from([2**64, 10**400, -(10**400)])
JSON = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@lru_cache(maxsize=None)
def experiment() -> tuple[bytes, bytes, str]:
    """Journal and best_genotype.json bytes of one small proposed-mode
    experiment, plus its mode-adjusted fingerprint."""
    ds = synthetic_dataset(classes=3, samples_per_class=20, dimensions=5, separation=3.0, seed=1)
    data = TaskData(*split(ds, SplitSpec((0.6, 0.2, 0.2), seed=0)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        result = run_experiment(CFG, "proposed", load_packaged_grammar("dense_only"), data, out)
        assert len(result.runs[0].archive) > 0  # the journal records inserts
        journal = (out / "run_0" / "checkpoints" / "journal.jsonl").read_bytes()
        genotype = (out / "best_genotype.json").read_bytes()
        fingerprint = json.loads(journal.split(b"\n")[0])["fingerprint"]
    return journal, genotype, fingerprint


def json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


@st.composite
def mutated_json(draw, doc):
    """doc with one node replaced by arbitrary JSON, or deleted."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(json_paths(doc))))
    if not path:
        return draw(JSON)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(JSON)
    else:
        del parent[path[-1]]
    return doc


@st.composite
def damaged(draw, data: bytes, lines: bool):
    """data truncated, with a byte range overwritten, or with one JSON
    document (one line when ``lines``) mutated."""
    kind = draw(st.sampled_from(["truncate", "bytes", "json"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 8))
        return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at + cut:]
    if not lines:
        return json.dumps(draw(mutated_json(json.loads(data)))).encode()
    docs = data.split(b"\n")[:-1]
    n = draw(st.integers(0, len(docs) - 1))
    docs[n] = json.dumps(draw(mutated_json(json.loads(docs[n])))).encode()
    return b"\n".join(docs) + b"\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_journal_loader_raises_only_checkpoint_error(data):
    journal, _, fingerprint = experiment()
    payload = data.draw(damaged(journal, lines=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.jsonl"
        path.write_bytes(payload)
        try:
            _load_journal(path, fingerprint, 0, CFG)
        except CheckpointError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_genotype_raises_only_config_error(data):
    _, genotype, _ = experiment()
    payload = data.draw(damaged(genotype, lines=False))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "genotype.json"
        path.write_bytes(payload)
        try:
            _read_genotype(path)
        except ConfigError:
            pass


def test_undamaged_inputs_load():
    journal, genotype, fingerprint = experiment()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.jsonl"
        path.write_bytes(journal)
        state = _load_journal(path, fingerprint, 0, CFG)
        path.write_bytes(genotype)
        ind = _read_genotype(path)
    assert state.generation == CFG.generations
    assert len(state.archive) > 0
    assert ind.modules
