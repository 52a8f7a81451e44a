"""Property tests: the checkpoint journal, genotype file, generations
CSV, IDX and grammar loaders fail only with their own typed errors on
truncated or mutated input.

The config file, grammar file and weight dump loaders are checked the
same way, on damaged bytes of ``configs/desk.cfg``, ``default.grammar``
and a ``save_weights`` dump.  Every grammar that loads is also checked
for soundness: its random derivations decode without an error.
"""

import copy
import gzip
import json
import math
import re
import struct
import tempfile
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evopower.cli import _read_genotype
from evopower.config import AppConfig, load_config, load_grammar_spec
from evopower.data import SplitSpec, load_idx, split, synthetic_dataset
from evopower.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DerivationError,
    GrammarError,
)
from evopower.evolution import (
    CSV_COLUMNS,
    EvolutionConfig,
    TaskData,
    _load_journal,
    read_rows,
    run_experiment,
    write_rows_csv,
)
from evopower.genome import (
    GenomeConfig,
    Individual,
    LayerSpec,
    MacroGenes,
    ModuleGene,
    PhenotypeSpec,
    draw_middle_point,
    module_layer_specs,
    to_phenotype,
    validate_module,
)
from evopower.grammar import GeneList, Grammar, derive, load_packaged_grammar, parse_grammar
from evopower.network import build, build_stack, load_weights, save_weights

GRAMMAR = load_packaged_grammar("dense_only")
CFG = EvolutionConfig(
    runs=1,
    generations=2,
    population_size=3,
    default_train_budget=1.0,
    max_train_budget=2.0,
    n_measures=2,
    seed=3,
    genome=GenomeConfig(min_layers=2, max_layers=3, init_layers_min=2, init_layers_max=3),
)
DATA = TaskData(*split(
    synthetic_dataset(classes=3, samples_per_class=20, dimensions=5, separation=3.0, seed=1),
    SplitSpec((0.6, 0.2, 0.2), seed=0),
))

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
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        result = run_experiment(CFG, "proposed", GRAMMAR, DATA, out)
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
def damaged(draw, data: bytes, lines: bool, json_docs: bool = True):
    """data truncated, with a byte range overwritten, or, with
    ``json_docs``, with one JSON document (one line when ``lines``) mutated."""
    kind = draw(st.sampled_from(["truncate", "bytes", "json"][: 3 if json_docs else 2]))
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
            state = _load_journal(path, fingerprint, 0, CFG, GRAMMAR, len(DATA.validation))
        except CheckpointError:
            return
    # whatever loads can feed reuse_module: every archived module decodes
    for entry in state.archive.entries if state is not None else ():
        validate_module(entry.module, GRAMMAR, CFG.genome)
        assert 0 <= entry.power_watts < math.inf


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
        state = _load_journal(path, fingerprint, 0, CFG, GRAMMAR, len(DATA.validation))
        path.write_bytes(genotype)
        ind = _read_genotype(path)
    assert state.generation == CFG.generations
    assert len(state.archive) > 0
    assert ind.modules


@lru_cache(maxsize=None)
def generations_csv() -> bytes:
    rows = [
        dict(zip(CSV_COLUMNS, (0, g, i, 1.25 - i, 0.75, 0.5, 61.5, 48.25, 2, 1, 3.0)))
        for g in range(2)
        for i in range(2)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generations.csv"
        write_rows_csv(path, rows)
        return path.read_bytes()


CSV_TOKENS = st.sampled_from([
    ",", "\n", "\r", "\r\n", '"', "\x00", "-1", "1.5", "1_0", "nan", "inf", "1e999",
    "9" * 5000, "x" * 140000, "abc", " ", "\u0663", "\xff",
])


@st.composite
def csv_payload(draw):
    """Arbitrary bytes or text; or a generations CSV with a span cut and
    replaced by CSV syntax pieces or text, or its bytes damaged."""
    kind = draw(st.sampled_from(["bytes", "text", "spliced", "damaged"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    if kind == "text":
        return draw(st.text(max_size=200)).encode()
    if kind == "damaged":
        return draw(damaged(generations_csv(), lines=False, json_docs=False))
    text = generations_csv().decode()
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 12))
    pieces = draw(st.lists(CSV_TOKENS | st.text(max_size=4), max_size=4))
    return (text[:at] + "".join(pieces) + text[at + cut:]).encode()


@settings(max_examples=500, deadline=None)
@given(csv_payload())
def test_read_rows_raises_only_data_error(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generations.csv"
        path.write_bytes(payload)
        try:
            rows = read_rows(path)
        except DataError:
            return
    assert all(list(row) == CSV_COLUMNS for row in rows)


IMAGES = struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(range(0, 240, 20))
LABELS = struct.pack(">II", 0x801, 3) + bytes([0, 2, 1])
UINT32 = st.integers(0, 2**32 - 1) | st.sampled_from([0, 1, 2**31, 2**32 - 1])


@st.composite
def idx_file(draw, data: bytes, fields: int):
    """An IDX file, gzipped or not, with some of its ``fields`` header
    counts and dimensions rewritten, damaged before or after the gzip
    step, or left intact; or arbitrary bytes."""
    kind = draw(st.sampled_from(["plain", "gzip", "gzip_damaged", "random"]))
    if kind == "random":
        return draw(st.binary(max_size=40))
    for field, value in draw(st.lists(st.tuples(st.integers(1, fields), UINT32), max_size=3)):
        data = data[: 4 * field] + struct.pack(">I", value) + data[4 * field + 4:]
    if draw(st.booleans()):
        data = draw(damaged(data, lines=False, json_docs=False))
    if kind == "plain":
        return data
    data = gzip.compress(data)
    if kind == "gzip_damaged":
        data = draw(damaged(data, lines=False, json_docs=False))
    return data


@settings(max_examples=300, deadline=None)
@given(images=idx_file(IMAGES, 3), labels=idx_file(LABELS, 1))
# no images, of more pixels than an array dimension can hold
@example(images=struct.pack(">IIII", 0x803, 0, 2**32 - 1, 2**32 - 1), labels=LABELS[:8])
def test_load_idx_raises_only_data_error(images, labels):
    with tempfile.TemporaryDirectory() as tmp:
        img, lbl = Path(tmp) / "images", Path(tmp) / "labels"
        img.write_bytes(images)
        lbl.write_bytes(labels)
        try:
            ds = load_idx(img, lbl)
        except DataError:
            return
    assert ds.samples.shape[0] == ds.labels.shape[0]


PACKAGED = [(resources.files("evopower") / "grammars" / f"{name}.grammar").read_text()
            for name in ("default", "dense_only")]
# each packaged grammar, and both in one text, whose rules clash
GRAMMAR_TEXTS = [*PACKAGED, "\n".join(PACKAGED)]
# pieces of the grammar syntax, and values its numbers must reject
TOKENS = st.sampled_from([
    "<", ">", "<>", "[", "]", "::=", "|", ",", "#", "\n", "\r\n", " ", "x", "int", "float",
    "<layer>", "<dense>", "[units,int,1,16,256]", "[a,float,1,x,0.5]", "nan", "inf", "-inf",
    "1e999", "-1", "0", "9" * 5000, "1_000", "\x00", "\u0663",
])
# a symbol of an alternative: a block, a nonterminal or a literal
SYMBOL = re.compile(r"\[[^\]\n]*\]|<[^>\n]*>|[^\s|<\[]+")
# values outside what an attribute of the grammar contract may hold
OUT_OF_RANGE = st.sampled_from(["-4", "0", "1", "1.5", "-0.5", "nan", "inf", "1e999", "9" * 20,
                                "many", "tanh", "conv"])


@st.composite
def grammar_text(draw):
    """A packaged grammar with up to three symbols dropped or given a value
    out of range, then perhaps a span cut or replaced by syntax pieces or
    arbitrary text; or arbitrary text alone."""
    if draw(st.booleans()):
        return draw(st.text(max_size=80))
    text = draw(st.sampled_from(GRAMMAR_TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        start, end = draw(st.sampled_from(
            [m.span() for m in SYMBOL.finditer(text) if m.group() != "::="]))
        token = text[start:end]
        if token.startswith("[") and draw(st.booleans()):
            fields = token[1:-1].split(",")
            fields[draw(st.integers(3, 4))] = draw(OUT_OF_RANGE)  # lo or hi
            token = "[" + ",".join(fields) + "]"
        elif ":" in token and draw(st.booleans()):
            token = token.split(":")[0] + ":" + draw(OUT_OF_RANGE)
        else:
            token = ""
        text = text[:start] + token + text[end:]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 12))
        pieces = draw(st.lists(TOKENS | st.text(max_size=4), max_size=4))
        text = text[:at] + "".join(pieces) + text[at + cut:]
    return text


@settings(max_examples=500, deadline=None)
@given(grammar_text())
def test_parse_grammar_raises_only_grammar_error(text):
    try:
        grammar = parse_grammar(text)
    except GrammarError:
        return
    assert grammar.rules


@settings(max_examples=300, deadline=None)
@given(grammar_text(), st.integers(0, 2**32 - 1))
@example(PACKAGED[0], 1)
@example(PACKAGED[1].replace("[batch,int,1,32,256]", "[batch,int,1,32," + "9" * 20 + "]"), 1)
def test_a_loaded_grammar_decodes_every_derivation(text, seed):
    """Random derivations of a grammar that loads decode into layers that
    build and into training settings; only derive's DerivationError (the
    depth cap, or a dynamic bound outside <middle_point>) may escape."""
    try:
        grammar = parse_grammar(text)
    except GrammarError:
        return
    rng = np.random.default_rng(seed)
    try:
        if "layer" in grammar.rules:
            module = ModuleGene([derive(grammar, "layer", GeneList(), rng)[0] for _ in range(4)])
            specs = module_layer_specs(module, grammar)
            for spec in specs:
                assert (spec.kind == "dense" and type(spec.units) is int and spec.units >= 1
                        and spec.activation in ("relu", "sigmoid")
                        or spec.kind == "dropout" and 0.0 <= spec.rate < 1.0), spec
            # wider layers are checked by their spec alone, to keep the memory small
            if all((spec.units or 0) <= 512 for spec in specs):
                build_stack(specs, 3, 2, rng)
            if "learning" in grammar.rules and sum(s.kind == "dense" for s in specs) >= 2:
                learning = derive(grammar, "learning", GeneList(), rng)[0]
                ind = Individual([module], MacroGenes({"learning": learning}, 0), 0, 1.0)
                phenotype = to_phenotype(ind, grammar)
                assert type(phenotype.learning_rate) is float
                assert type(phenotype.batch_size) is int
        if "middle_point" in grammar.rules:
            hidden = int(rng.integers(2, 6))
            assert draw_middle_point(grammar, hidden, rng) >= 0
    except DerivationError:
        pass


DESK_CFG = (Path(__file__).resolve().parent.parent / "configs" / "desk.cfg").read_bytes()
GRAMMAR_FILE = (resources.files("evopower") / "grammars" / "default.grammar").read_bytes()


@settings(max_examples=300, deadline=None)
@given(damaged(DESK_CFG, lines=False, json_docs=False))
@example(DESK_CFG + b"# \xff\n")  # not UTF-8
def test_load_config_raises_only_config_error(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "desk.cfg"
        path.write_bytes(payload)
        try:
            app = load_config(path)
        except ConfigError:
            return
    assert isinstance(app, AppConfig)


@settings(max_examples=300, deadline=None)
@given(damaged(GRAMMAR_FILE, lines=False, json_docs=False))
@example(GRAMMAR_FILE + b"# \xff\n")  # not UTF-8
def test_grammar_file_loader_raises_only_grammar_error(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "custom.grammar"
        path.write_bytes(payload)
        try:
            grammar = load_grammar_spec(str(path))
        except GrammarError:
            return
    assert isinstance(grammar, Grammar) and grammar.rules


def weight_dump() -> tuple[bytes, list]:
    """A two-output network's ``save_weights`` bytes and its arrays."""
    spec = PhenotypeSpec(
        (LayerSpec("dense", units=3, activation="relu"), LayerSpec("dropout", rate=0.5),
         LayerSpec("dense", units=2, activation="sigmoid")),
        aux_index=0,
        learning_rate=0.1,
        batch_size=4,
    )
    net = build(spec, input_dim=4, class_count=3, rng=np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights.bin"
        save_weights(net, path)
        dump = path.read_bytes()
    return dump, [p for layer in net.dense_layers() for p in (layer.w, layer.b)]


WEIGHTS, WEIGHT_ARRAYS = weight_dump()


@settings(max_examples=300, deadline=None)
@given(damaged(WEIGHTS, lines=False, json_docs=False))
@example(b"")
@example(WEIGHTS[:6])  # the count and half an ndim
@example(WEIGHTS[:-1])  # cut inside the last array
@example(WEIGHTS + b"\x00")  # a trailing byte
@example(struct.pack("<II", 1, 2**32 - 1))  # more dimensions than bytes
@example(struct.pack("<IIIII", 1, 3, 0, 2**32 - 1, 2**32 - 1))  # empty, yet too big to index
@example(struct.pack("<II", 1, 65) + bytes(4 * 64) + struct.pack("<I", 1))  # too many dimensions
@example(WEIGHTS)
def test_load_weights_raises_only_data_error(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights.bin"
        path.write_bytes(payload)
        try:
            arrays = load_weights(path)
        except DataError:
            assert payload != WEIGHTS
            return
    assert all(a.dtype == np.float32 for a in arrays)
    if payload == WEIGHTS:
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in WEIGHT_ARRAYS]
        assert [a.shape for a in arrays] == [a.shape for a in WEIGHT_ARRAYS]
