import dataclasses
import json
import math

import numpy as np
import pytest

from evopower.errors import ConfigError, GrammarError, InvalidGenotypeError
from evopower.genome import (
    GenomeConfig,
    Individual,
    MacroGenes,
    ModuleGene,
    clamp_middle_point,
    count_hidden_layers,
    genotype_fields,
    genotype_payload,
    init_individual,
    load_genotype,
    load_typed,
    to_phenotype,
    validate_individual,
    validate_module,
)
from evopower.grammar import GeneList, load_packaged_grammar, parse_grammar

GRAMMAR = load_packaged_grammar("default")


def dense_gene(units=64, act=0):
    return GeneList(
        choices={"layer": [0], "dense": [0], "activation": [act]},
        values={"units": [[units]]},
    )


def dropout_gene(rate=0.3):
    return GeneList(choices={"layer": [1], "dropout": [0]}, values={"rate": [[rate]]})


def learning_gene(lr=0.01, batch=64):
    return GeneList(choices={"learning": [0]}, values={"lr": [[lr]], "batch": [[batch]]})


def make_individual(layer_genes, middle_point=0, id=0, modules=None):
    if modules is None:
        modules = [ModuleGene(layer_genes)]
    macro = MacroGenes({"learning": learning_gene()}, middle_point)
    return Individual(modules, macro, id, 1.0)


def test_init_respects_layer_range():
    cfg = GenomeConfig(init_layers_min=2, init_layers_max=3)
    rng = np.random.default_rng(0)
    counts = set()
    for i in range(1000):
        ind = init_individual(GRAMMAR, cfg, rng, id=i)
        n = len(ind.modules[0].layer_genes)
        counts.add(n)
        assert 2 <= n <= 3
        hidden = count_hidden_layers(ind, GRAMMAR)
        assert hidden >= 2
        assert 0 <= ind.macro.middle_point <= hidden - 2
        assert ind.id == i
    assert counts == {2, 3}


def test_init_is_deterministic():
    cfg = GenomeConfig()
    a = init_individual(GRAMMAR, cfg, np.random.default_rng(123))
    b = init_individual(GRAMMAR, cfg, np.random.default_rng(123))
    assert a.genotype_key() == b.genotype_key()


def test_init_rejects_inverted_bounds():
    with pytest.raises(ConfigError):
        init_individual(
            GRAMMAR, GenomeConfig(min_layers=3, max_layers=2),
            np.random.default_rng(0),
        )
    with pytest.raises(ConfigError):
        GenomeConfig(init_layers_min=1, init_layers_max=3).validate()  # below min_layers
    with pytest.raises(ConfigError, match="modules"):
        GenomeConfig(modules=0).validate()


def test_init_fails_on_dense_free_grammar():
    g = parse_grammar("<layer> ::= layer:dropout [rate,float,1,0.1,0.5]\n")
    with pytest.raises(ConfigError, match="dense"):
        init_individual(g, GenomeConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("layer, message", [
    ("layer:dense act:relu", "a layer:dense derivation sets no units"),
    ("layer:dense units:8", "a layer:dense derivation sets no act"),
    ("layer:dense units:8.5 act:relu", "sets units to '8.5', which does not parse as int"),
    ("layer:dropout", "a layer:dropout derivation sets no rate"),
    ("layer:dropout rate:half", "sets rate to 'half', which does not parse as float"),
])
def test_a_layer_missing_an_attribute_is_a_grammar_error(layer, message):
    with pytest.raises(GrammarError, match=message):
        parse_grammar(f"<layer> ::= {layer}\n")


def test_count_hidden_layers():
    assert count_hidden_layers(make_individual([dense_gene()] * 3), GRAMMAR) == 3
    mixed = [dense_gene(), dropout_gene(), dense_gene()]
    assert count_hidden_layers(make_individual(mixed), GRAMMAR) == 2
    two_mods = [
        ModuleGene([dense_gene(32), dense_gene(48)]),
        ModuleGene([dense_gene(64), dense_gene(96)]),
    ]
    assert count_hidden_layers(make_individual(None, modules=two_mods), GRAMMAR) == 4


def test_clamp_middle_point():
    ind = make_individual([dense_gene()] * 4, middle_point=7)
    clamped = clamp_middle_point(ind, GRAMMAR)
    assert clamped.macro.middle_point == 2
    assert ind.macro.middle_point == 7  # original untouched

    ind = make_individual([dense_gene()] * 5, middle_point=1)
    assert clamp_middle_point(ind, GRAMMAR) is ind

    ind = make_individual([dense_gene()] * 2, middle_point=0)
    assert clamp_middle_point(ind, GRAMMAR).macro.middle_point == 0


def test_clamp_rejects_single_hidden_layer():
    ind = make_individual([dense_gene()], middle_point=0)
    with pytest.raises(InvalidGenotypeError):
        clamp_middle_point(ind, GRAMMAR)


def test_to_phenotype_concatenates_modules():
    mods = [
        ModuleGene([dense_gene(32), dense_gene(48)]),
        ModuleGene([dense_gene(64), dense_gene(96)]),
    ]
    ind = make_individual(None, middle_point=1, modules=mods)
    spec = to_phenotype(ind, GRAMMAR)
    assert [l.units for l in spec.layers] == [32, 48, 64, 96]
    assert all(l.kind == "dense" for l in spec.layers)
    assert spec.aux_index == 1
    assert spec.learning_rate == 0.01 and spec.batch_size == 64


def test_to_phenotype_keeps_dropout_in_place():
    ind = make_individual([dense_gene(20), dropout_gene(0.25), dense_gene(30)])
    spec = to_phenotype(ind, GRAMMAR)
    assert [l.kind for l in spec.layers] == ["dense", "dropout", "dense"]
    assert spec.layers[1].rate == 0.25


def test_to_phenotype_hyperparams_within_grammar_bounds():
    cfg = GenomeConfig()
    rng = np.random.default_rng(17)
    for _ in range(200):
        spec = to_phenotype(init_individual(GRAMMAR, cfg, rng), GRAMMAR)
        assert 0.0001 <= spec.learning_rate < 0.1
        assert 32 <= spec.batch_size <= 256


def test_to_phenotype_rejects_invariant_violations():
    # middle_point out of range
    ind = make_individual([dense_gene()] * 2, middle_point=1)
    with pytest.raises(InvalidGenotypeError, match="middle_point"):
        to_phenotype(ind, GRAMMAR)
    # too few dense layers overall
    ind = make_individual([dense_gene(), dropout_gene()])
    with pytest.raises(InvalidGenotypeError, match="dense"):
        to_phenotype(ind, GRAMMAR)


def test_validate_individual_rejects_module_outside_layer_bounds():
    # the genome's bounds, not the phenotype, limit a module's layer count
    ind = make_individual(None, modules=[ModuleGene([dense_gene()] * 3)])
    to_phenotype(ind, GRAMMAR)
    validate_individual(ind, GRAMMAR, GenomeConfig(min_layers=1, max_layers=3))
    with pytest.raises(InvalidGenotypeError, match="outside"):
        validate_individual(ind, GRAMMAR, GenomeConfig(min_layers=1, max_layers=2))
    with pytest.raises(InvalidGenotypeError, match="outside"):
        validate_individual(ind, GRAMMAR, GenomeConfig(min_layers=4, max_layers=6,
                                                       init_layers_min=4, init_layers_max=4))


def test_validate_module_rejects_a_derivation_past_the_depth_cap():
    # a user grammar whose <layer> recurses: a long enough genotype must fail
    # as an invalid genotype, not exhaust the interpreter's recursion limit
    grammar = parse_grammar(
        "<layer> ::= <layer> | layer:dense [units,int,1,16,256] <activation>\n"
        "<activation> ::= act:relu\n"
    )
    deep = GeneList(choices={"layer": [0] * 5000 + [1], "activation": [0]}, values={"units": [[64]]})
    with pytest.raises(InvalidGenotypeError, match="depth cap"):
        validate_module(ModuleGene([deep]), grammar, GenomeConfig(min_layers=1))
    shallow = GeneList(choices={"layer": [0, 0, 1], "activation": [0]}, values={"units": [[64]]})
    validate_module(ModuleGene([shallow]), grammar, GenomeConfig(min_layers=1))


def test_validate_individual_rejects_fractional_units():
    # 16.5 units would train as 16 under a genotype key of its own, so the
    # archive could hold one phenotype twice
    d = genotype_payload(make_individual([dense_gene(16)] * 2))
    load_genotype(d)
    d["modules"][0]["layer_genes"][0]["values"]["units"] = [[16.5]]
    ind = load_genotype(json.loads(json.dumps(d)))
    with pytest.raises(InvalidGenotypeError, match="non-integer"):
        validate_individual(ind, GRAMMAR, GenomeConfig())


def test_validate_individual_rejects_unreached_genes():
    # a padded layer decodes to the same phenotype, but its module would
    # be archived a second time under a genotype key of its own
    ind = init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(3))
    padded = ind.copy()
    padded.modules[0].layer_genes[0].choices["layer"].append(1)
    assert padded.modules[0].genotype_key() != ind.modules[0].genotype_key()
    with pytest.raises(InvalidGenotypeError, match="unused choices for 'layer'"):
        validate_individual(padded, GRAMMAR, GenomeConfig())
    validate_individual(ind, GRAMMAR, GenomeConfig())


@pytest.mark.parametrize("budget", [-1.0, math.inf, math.nan])
def test_validate_individual_rejects_unusable_train_budgets(budget):
    # a journal may carry any float; training rounds the budget to epochs
    ind = init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(3))
    validate_individual(ind, GRAMMAR, GenomeConfig())
    ind.train_budget = budget
    with pytest.raises(InvalidGenotypeError, match="train budget"):
        validate_individual(ind, GRAMMAR, GenomeConfig())


def test_to_phenotype_is_pure():
    ind = init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(3))
    assert to_phenotype(ind, GRAMMAR) == to_phenotype(ind, GRAMMAR)


def test_copy_is_deep():
    ind = init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(5), id=7)
    dup = ind.copy(new_id=9)
    assert dup.id == 9
    assert dup.genotype_key() == ind.genotype_key()
    dup.modules[0].layer_genes[0].choices["layer"][0] ^= 1
    assert dup.genotype_key() != ind.genotype_key()


def test_serialization_round_trip():
    ind = init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(21), id=4)
    blob = json.dumps(genotype_payload(ind))
    back = load_genotype(json.loads(blob))
    assert back == ind
    validate_individual(back, GRAMMAR, GenomeConfig())
    assert load_typed(Individual, json.loads(json.dumps(dataclasses.asdict(ind)))) == ind


def test_genotype_fields_are_the_asdict_form():
    # the journal digests this form, so it must cover every field, in
    # asdict's JSON bytes, which tell 16 from 16.0
    rng = np.random.default_rng(8)
    for i in range(20):
        ind = init_individual(GRAMMAR, GenomeConfig(modules=2), rng, id=i, train_budget=2.5)
        assert json.dumps(genotype_fields(ind)) == json.dumps(dataclasses.asdict(ind))
    ind = make_individual([dense_gene(16.0), dropout_gene()], middle_point=True)
    assert json.dumps(genotype_fields(ind)) == json.dumps(dataclasses.asdict(ind))


def test_serialization_rejects_unknown_version():
    d = genotype_payload(init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(1)))
    d["version"] = 99
    with pytest.raises(InvalidGenotypeError, match="version"):
        load_genotype(d)
    with pytest.raises(InvalidGenotypeError, match="version"):
        load_genotype([d])


@pytest.mark.parametrize("path, value, message", [
    (("id",), True, "Individual.id: expected"),
    (("id",), 1.0, "Individual.id: expected"),
    (("train_budget",), 10**400, "Individual.train_budget: expected"),
    (("train_budget",), "2.0", "Individual.train_budget: expected"),
    (("macro", "middle_point"), None, "Individual.macro.middle_point: expected"),
    (("modules",), {}, "Individual.modules: expected"),
    (("modules", 0, "layer_genes", 0, "values"), {"units": [["8"]]},
     r"modules\[0\]\.layer_genes\[0\]\.values\['units'\]\[0\]\[0\]: expected"),
    (("macro", "genes", "learning"), [], "expected an object"),
])
def test_load_typed_rejects_wrong_types(path, value, message):
    d = dataclasses.asdict(init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(2)))
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(InvalidGenotypeError, match=message):
        load_typed(Individual, d)


def test_load_typed_rejects_missing_and_unknown_fields():
    d = dataclasses.asdict(init_individual(GRAMMAR, GenomeConfig(), np.random.default_rng(2)))
    with pytest.raises(InvalidGenotypeError, match=r"missing fields \['id'\], unknown fields \[\]"):
        load_typed(Individual, {k: v for k, v in d.items() if k != "id"})
    with pytest.raises(InvalidGenotypeError, match=r"unknown fields \['extra'\]"):
        load_typed(Individual, {**d, "extra": 1})
    # ints widen to float fields, and int | float values keep their type
    d["train_budget"] = 3
    back = load_typed(Individual, d)
    assert back.train_budget == 3.0 and type(back.train_budget) is float


def test_load_typed_reads_optional_values():
    with pytest.raises(InvalidGenotypeError, match=r"value\[1\]: expected"):
        load_typed(list[int | None], [1, "x"], "value")
    with pytest.raises(InvalidGenotypeError, match="expected"):
        load_typed(int, None)
