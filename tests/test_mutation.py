import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopower.errors import ConfigError
from evopower.genome import (
    GenomeConfig,
    count_hidden_layers,
    genotype_payload,
    init_individual,
    validate_individual,
)
from evopower.mutation import (
    POWER_FLOOR_W,
    ArchiveEntry,
    ModuleArchive,
    MutationRates,
    archive_insert,
    mutate,
    select_archive_module,
    selection_probabilities,
)
from evopower.grammar import load_packaged_grammar

GRAMMAR = load_packaged_grammar("default")
GENOME = GenomeConfig()
ZERO = MutationRates(0, 0, 0, 0, 0, 0, 0, 0)


def fresh(seed=0, id=0, **cfg_kwargs):
    return init_individual(GRAMMAR, GenomeConfig(**cfg_kwargs), np.random.default_rng(seed), id=id)


def only(**rates):
    return MutationRates(**{**{k: 0.0 for k in vars(ZERO)}, **rates})


def module_of(ind, idx=0):
    return ind.modules[idx]


def archive_with(powers, seed=100):
    archive = ModuleArchive()
    for i, p in enumerate(powers):
        archive_insert(archive, module_of(fresh(seed + i)), p)
    return archive


def test_default_rates_match_documented_values():
    r = MutationRates()
    assert (r.add_layer, r.reuse_layer, r.remove_layer) == (0.25, 0.15, 0.25)
    assert (r.reuse_module, r.remove_module, r.dsge_level) == (0.15, 0.25, 0.15)
    assert (r.macro_layer, r.train_longer) == (0.30, 0.20)
    r.validate()


def test_rates_validation():
    with pytest.raises(ConfigError):
        MutationRates(add_layer=1.5).validate()
    with pytest.raises(ConfigError):
        MutationRates(train_longer=-0.1).validate()


def test_selection_probabilities_two_entries():
    probs = selection_probabilities(archive_with([50.0, 100.0]))
    assert np.allclose(probs, [2 / 3, 1 / 3], atol=1e-12)


def test_selection_probabilities_four_entries():
    probs = selection_probabilities(archive_with([30.0, 50.0, 70.0, 100.0]))
    expected = [
        0.4294478527607362,
        0.2576687116564417,
        0.1840490797546012,
        0.1288343558282209,
    ]
    assert np.allclose(probs, expected, atol=1e-12)


def test_selection_probabilities_normalize_and_order():
    rng = np.random.default_rng(8)
    for _ in range(50):
        powers = rng.uniform(1.0, 200.0, size=rng.integers(1, 12)).tolist()
        probs = selection_probabilities(archive_with(powers))
        assert abs(probs.sum() - 1.0) < 1e-12
        order = np.argsort(powers)
        assert np.all(np.diff(probs[order]) <= 1e-15)  # cheaper power, higher probability


def test_selection_scale_invariance():
    base = [40.0, 55.0, 90.0]
    a = archive_with(base)
    b = archive_with([3.0 * p for p in base])
    assert np.allclose(selection_probabilities(a), selection_probabilities(b), atol=1e-12)
    picks_a = [select_archive_module(a, np.random.default_rng(s)).genotype_key() for s in range(50)]
    picks_b = [select_archive_module(b, np.random.default_rng(s)).genotype_key() for s in range(50)]
    assert picks_a == picks_b


def test_selection_empirical_frequencies():
    archive = archive_with([30.0, 50.0, 70.0, 100.0])
    keys = [e.module.genotype_key() for e in archive.entries]
    exact = selection_probabilities(archive)
    rng = np.random.default_rng(2024)
    counts = dict.fromkeys(keys, 0)
    n = 100_000
    for _ in range(n):
        counts[select_archive_module(archive, rng).genotype_key()] += 1
    for key, p in zip(keys, exact):
        assert abs(counts[key] / n - p) < 0.02


def test_selection_degenerate_cases():
    assert select_archive_module(ModuleArchive(), np.random.default_rng(0)) is None
    single = archive_with([64.0])
    for s in range(10):
        assert (
            select_archive_module(single, np.random.default_rng(s)).genotype_key()
            == single.entries[0].module.genotype_key()
        )
    equal = archive_with([42.0] * 4)
    assert np.allclose(selection_probabilities(equal), 0.25, atol=1e-12)


def test_selected_module_is_a_copy():
    archive = archive_with([50.0])
    picked = select_archive_module(archive, np.random.default_rng(1))
    picked.layer_genes.pop()
    assert len(archive.entries[0].module.layer_genes) > len(picked.layer_genes)


def test_archive_insert_dedupes_by_genotype():
    archive = ModuleArchive()
    m = module_of(fresh(3))
    archive_insert(archive, m, 40.0)
    archive_insert(archive, m.copy(), 35.0)
    assert len(archive) == 1
    assert archive.entries[0].power_watts == 35.0


def test_archive_insert_evicts_highest_power():
    archive = ModuleArchive(capacity=2)
    archive_insert(archive, module_of(fresh(1)), 30.0)
    archive_insert(archive, module_of(fresh(2)), 40.0)
    archive_insert(archive, module_of(fresh(3)), 35.0)
    assert sorted(e.power_watts for e in archive.entries) == [30.0, 35.0]


def test_archive_insert_clamps_power_floor():
    archive = ModuleArchive()
    archive_insert(archive, module_of(fresh(4)), 0.0)
    assert archive.entries[0].power_watts == 1e-6
    probs = selection_probabilities(archive)
    assert np.isfinite(probs).all()


def linear_scan_insert(entries, capacity, module, power_watts):
    """archive_insert before the genotype-key index, kept as the reference."""
    power = max(float(power_watts), POWER_FLOOR_W)
    key = module.genotype_key()
    for entry in entries:
        if entry.module.genotype_key() == key:
            entry.power_watts = power
            return
    if len(entries) >= capacity:
        worst = max(range(len(entries)), key=lambda i: entries[i].power_watts)
        del entries[worst]
    entries.append(ArchiveEntry(module.copy(), power))


POOL = [module_of(fresh(300 + i)) for i in range(10)]
# a few repeated values, so that evictions meet power ties
POWERS = st.sampled_from([0.0, 30.0, 35.0, 40.0, 99.5]) | st.floats(0.0, 200.0)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 6),
       inserts=st.lists(st.tuples(st.integers(0, len(POOL) - 1), POWERS), max_size=40))
def test_keyed_archive_insert_matches_linear_scan(capacity, inserts):
    assert len({m.genotype_key() for m in POOL}) == len(POOL)
    archive = ModuleArchive(capacity=capacity)
    reference = []
    for i, power in inserts:
        archive_insert(archive, POOL[i].copy(), power)
        linear_scan_insert(reference, capacity, POOL[i], power)
        assert archive.entries == reference


def test_archive_capacity_never_exceeded():
    archive = ModuleArchive(capacity=5)
    rng = np.random.default_rng(6)
    for i in range(40):
        archive_insert(archive, module_of(fresh(200 + i)), float(rng.uniform(10, 90)))
        assert len(archive) <= 5
    assert len(archive) == 5


def test_zero_rates_change_only_identity():
    parent = fresh(7, id=1)
    child = mutate(parent, ZERO, ModuleArchive(), GRAMMAR, GENOME, np.random.default_rng(0), new_id=2)
    assert child.id == 2
    assert child.genotype_key() == parent.genotype_key()
    assert child.train_budget == parent.train_budget


def test_mutate_never_touches_parent():
    parent = fresh(11)
    key = parent.genotype_key()
    rng = np.random.default_rng(1)
    for i in range(50):
        mutate(parent, MutationRates(), archive_with([50.0, 80.0]), GRAMMAR, GENOME, rng, new_id=i)
    assert parent.genotype_key() == key


def test_mutate_is_deterministic():
    parent = fresh(9)
    archive = archive_with([45.0, 60.0, 75.0])
    a = mutate(parent, MutationRates(), archive, GRAMMAR, GENOME, np.random.default_rng(33), new_id=5)
    b = mutate(parent, MutationRates(), archive, GRAMMAR, GENOME, np.random.default_rng(33), new_id=5)
    assert a.genotype_key() == b.genotype_key()
    assert a.train_budget == b.train_budget


def test_train_longer_adds_exact_increment():
    parent = fresh(2)
    child = mutate(
        parent, only(train_longer=1.0), ModuleArchive(), GRAMMAR, GENOME,
        np.random.default_rng(0), new_id=1, train_increment=2.5,
    )
    assert child.train_budget == parent.train_budget + 2.5
    assert child.genotype_key()[0] == parent.genotype_key()[0]


def test_add_layer_grows_by_one_until_max():
    parent = fresh(5)
    child = mutate(parent, only(add_layer=1.0), ModuleArchive(), GRAMMAR, GENOME, np.random.default_rng(3), new_id=1)
    assert len(child.modules[0].layer_genes) == len(parent.modules[0].layer_genes) + 1

    # saturate, then verify the guard
    rng = np.random.default_rng(4)
    ind = parent
    for i in range(20):
        ind = mutate(ind, only(add_layer=1.0), ModuleArchive(), GRAMMAR, GENOME, rng, new_id=i)
    assert len(ind.modules[0].layer_genes) == GENOME.max_layers
    again = mutate(ind, only(add_layer=1.0), ModuleArchive(), GRAMMAR, GENOME, rng, new_id=99)
    assert len(again.modules[0].layer_genes) == GENOME.max_layers


def test_remove_layer_respects_min_and_dense_floor():
    parent = fresh(8)
    rng = np.random.default_rng(5)
    ind = parent
    for i in range(30):
        ind = mutate(ind, only(remove_layer=1.0), ModuleArchive(), GRAMMAR, GENOME, rng, new_id=i)
        assert len(ind.modules[0].layer_genes) >= GENOME.min_layers
        assert count_hidden_layers(ind, GRAMMAR) >= 2
    assert len(ind.modules[0].layer_genes) == GENOME.min_layers


def test_reuse_layer_duplicates_existing_gene():
    parent = fresh(12)
    child = mutate(parent, only(reuse_layer=1.0), ModuleArchive(), GRAMMAR, GENOME, np.random.default_rng(2), new_id=1)
    genes = child.modules[0].layer_genes
    assert len(genes) == len(parent.modules[0].layer_genes) + 1
    parent_keys = [g.canonical() for g in parent.modules[0].layer_genes]
    assert all(g.canonical() in parent_keys for g in genes)


def test_reuse_module_inserts_archive_pick():
    parent = fresh(14)
    archive = archive_with([25.0, 70.0])
    archive_keys = [e.module.genotype_key() for e in archive.entries]
    child = mutate(parent, only(reuse_module=1.0), archive, GRAMMAR, GENOME, np.random.default_rng(6), new_id=1)
    assert len(child.modules) == len(parent.modules) + 1
    added = [m for m in child.modules if m.genotype_key() not in
             [p.genotype_key() for p in parent.modules]]
    assert any(m.genotype_key() in archive_keys for m in added)
    validate_individual(child, GRAMMAR, GENOME)


def test_reuse_module_skipped_on_empty_archive():
    parent = fresh(15)
    child = mutate(parent, only(reuse_module=1.0), ModuleArchive(), GRAMMAR, GENOME, np.random.default_rng(7), new_id=1)
    assert child.genotype_key() == parent.genotype_key()


def test_remove_module_skipped_at_one_module():
    parent = fresh(16)
    assert len(parent.modules) == 1
    child = mutate(parent, only(remove_module=1.0), ModuleArchive(), GRAMMAR, GENOME, np.random.default_rng(8), new_id=1)
    assert len(child.modules) == 1
    assert child.genotype_key() == parent.genotype_key()


def test_remove_module_drops_one_when_possible():
    dense = load_packaged_grammar("dense_only")
    cfg = GenomeConfig(modules=2, init_layers_min=2, init_layers_max=2)
    parent = init_individual(dense, cfg, np.random.default_rng(17))
    child = mutate(parent, only(remove_module=1.0), ModuleArchive(), dense, cfg, np.random.default_rng(9), new_id=1)
    assert len(child.modules) == 1
    validate_individual(child, dense, cfg)


def test_dsge_level_keeps_genotype_decodable():
    rng = np.random.default_rng(10)
    ind = fresh(18)
    changed = 0
    for i in range(200):
        child = mutate(ind, only(dsge_level=1.0), ModuleArchive(), GRAMMAR, GENOME, rng, new_id=i)
        validate_individual(child, GRAMMAR, GENOME)
        changed += child.genotype_key() != ind.genotype_key()
        ind = child
    assert changed > 0


def test_macro_layer_resamples_hyperparams_or_split():
    from evopower.genome import to_phenotype

    rng = np.random.default_rng(11)
    parent = fresh(19)
    base = to_phenotype(parent, GRAMMAR)
    seen_change = False
    for i in range(100):
        child = mutate(parent, only(macro_layer=1.0), ModuleArchive(), GRAMMAR, GENOME, rng, new_id=i)
        spec = to_phenotype(child, GRAMMAR)
        assert 0.0001 <= spec.learning_rate < 0.1
        assert 32 <= spec.batch_size <= 256
        if (spec.learning_rate, spec.batch_size, spec.aux_index) != (
            base.learning_rate, base.batch_size, base.aux_index,
        ):
            seen_change = True
    assert seen_change


def test_middle_point_reclamped_after_structural_change():
    rng = np.random.default_rng(13)
    for i in range(300):
        ind = fresh(400 + i)
        child = mutate(ind, MutationRates(), archive_with([40.0]), GRAMMAR, GENOME, rng, new_id=i)
        hidden = count_hidden_layers(child, GRAMMAR)
        assert 0 <= child.macro.middle_point <= hidden - 2


def test_mutation_closure_fuzz():
    """Long mutation chains never leave the space of valid individuals."""
    rng = np.random.default_rng(99)
    rates = MutationRates()
    archive = ModuleArchive(capacity=16)
    checked = 0
    for chain in range(100):
        ind = fresh(1000 + chain)
        archive_insert(archive, ind.modules[0], float(rng.uniform(20, 90)))
        for step in range(100):
            ind = mutate(ind, rates, archive, GRAMMAR, GENOME, rng, new_id=step)
            validate_individual(ind, GRAMMAR, GENOME)
            checked += 1
    assert checked == 10_000


# sha256 of the mutation stream below; any change to the draws a mutation
# consumes, or to the genes it writes, moves it
GOLDEN_STREAM_SHA256 = "2e80c5bcaed1501c872ce970fb858ca96cae23e26df242ac75123a5e85558b4d"


def test_golden_mutation_stream():
    """init_individual plus 2,000 mutate steps over the packaged grammars,
    archive fed fixed watts; the JSON of every genotype feeds one digest."""
    digest = hashlib.sha256()
    rates = MutationRates(dsge_level=0.5, macro_layer=0.5)
    for grammar_seed, name in enumerate(("default", "dense_only")):
        grammar = load_packaged_grammar(name)
        genome = GenomeConfig(modules=2, min_layers=1, max_layers=5)
        rng = np.random.default_rng(2024 + grammar_seed)
        archive = ModuleArchive(capacity=8)
        for chain in range(10):
            ind = init_individual(grammar, genome, rng, id=chain)
            for step in range(100):
                digest.update(json.dumps(genotype_payload(ind), sort_keys=True).encode())
                for m, module in enumerate(ind.modules):
                    archive_insert(archive, module, 20.0 + (step * 37 + m * 11) % 61)
                ind = mutate(ind, rates, archive, grammar, genome, rng, new_id=step + 1)
            digest.update(json.dumps(genotype_payload(ind), sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_STREAM_SHA256
