"""
Walking the search space one mutation at a time
===============================================

Offspring come from eight independent operators: add/reuse/remove a
layer, reuse/remove a module, re-derive one gene, resample the training
hyperparameters or the split point, and extend the training budget.
Each fires with its own probability, and every offspring is a valid
individual by construction.
"""

import numpy as np

from evopower.genome import (
    GenomeConfig,
    count_hidden_layers,
    init_individual,
    to_phenotype,
)
from evopower.grammar import load_packaged_grammar
from evopower.mutation import ModuleArchive, MutationRates, archive_insert, mutate

grammar = load_packaged_grammar("dense_only")
cfg = GenomeConfig(modules=2, min_layers=1, max_layers=3, init_layers_min=2, init_layers_max=2)
rng = np.random.default_rng(21)

ind = init_individual(grammar, cfg, rng)


def describe(tag, individual):
    spec = to_phenotype(individual, grammar)
    units = [l.units for l in spec.layers if l.kind == "dense"]
    print(
        "%-10s id=%-3d layers=%s  split after layer %d  lr=%.4f  budget=%.0f epochs"
        % (tag, individual.id, units, individual.macro.middle_point + 1,
           spec.learning_rate, individual.train_budget)
    )


describe("parent", ind)

# a seeded archive gives the module-reuse operator something to draw
archive = ModuleArchive()
for module, watts in zip(ind.modules, (35.0, 55.0)):
    archive_insert(archive, module, watts)

# fire one operator at a time by setting only its rate to 1
solo = {
    "add_layer": MutationRates(1, 0, 0, 0, 0, 0, 0, 0),
    "reuse_layer": MutationRates(0, 1, 0, 0, 0, 0, 0, 0),
    "remove_layer": MutationRates(0, 0, 1, 0, 0, 0, 0, 0),
    "reuse_mod": MutationRates(0, 0, 0, 1, 0, 0, 0, 0),
    "remove_mod": MutationRates(0, 0, 0, 0, 1, 0, 0, 0),
    "dsge": MutationRates(0, 0, 0, 0, 0, 1, 0, 0),
    "macro": MutationRates(0, 0, 0, 0, 0, 0, 1, 0),
    "longer": MutationRates(0, 0, 0, 0, 0, 0, 0, 1),
}
for tag, rates in solo.items():
    child = mutate(ind, rates, archive, grammar, cfg, np.random.default_rng(4), new_id=1)
    describe(tag, child)

# a long random walk never leaves the valid region: the dense floor of
# two hidden layers holds, and the split point stays attachable
walk = ind
floor_hits = 0
for step in range(300):
    walk = mutate(walk, MutationRates(), archive, grammar, cfg, rng, new_id=step + 2)
    hidden = count_hidden_layers(walk, grammar)
    assert hidden >= 2 and 0 <= walk.macro.middle_point <= hidden - 2
    floor_hits += hidden == 2
describe("after 300", walk)
print("steps at the two-layer floor: %d of 300" % floor_hits)
