"""
The module archive: remembering what was cheap
==============================================

Every evaluated module lands in a per-run archive together with its
measured watts.  The reuse operator then draws from the archive with
probability inversely proportional to power, so efficient building
blocks spread through the population.
"""

import numpy as np

from evopower.genome import GenomeConfig, init_individual
from evopower.grammar import load_packaged_grammar
from evopower.mutation import (
    ModuleArchive,
    archive_insert,
    select_archive_module,
    selection_probabilities,
)

grammar = load_packaged_grammar("dense_only")
cfg = GenomeConfig(min_layers=2, max_layers=3, init_layers_min=2, init_layers_max=3)
rng = np.random.default_rng(5)

# collect four distinct modules from random individuals
modules = {}
while len(modules) < 4:
    for mod in init_individual(grammar, cfg, rng).modules:
        modules.setdefault(mod.genotype_key(), mod)
modules = list(modules.values())[:4]

archive = ModuleArchive(capacity=8)
for mod, watts in zip(modules, (30.0, 50.0, 70.0, 100.0)):
    archive_insert(archive, mod, watts)
print("archive size:", len(archive))
print("exact selection probabilities:", np.round(selection_probabilities(archive), 4))

# the empirical draw frequencies follow the inverse-power weights
counts = {mod.genotype_key(): 0 for mod in modules}
for _ in range(20000):
    counts[select_archive_module(archive, rng).genotype_key()] += 1
freqs = np.array([counts[mod.genotype_key()] for mod in modules]) / 20000
print("observed over 20000 draws:     ", np.round(freqs, 4))

# re-measuring a known module just updates its power; the archive never
# stores the same genotype twice
archive_insert(archive, modules[0], 25.0)
print("after re-measuring the first module:", np.round(selection_probabilities(archive), 4))
print("archive size unchanged:", len(archive))

# at capacity the most power-hungry entry is evicted first
tiny = ModuleArchive(capacity=2)
archive_insert(tiny, modules[0], 30.0)
archive_insert(tiny, modules[1], 40.0)
archive_insert(tiny, modules[2], 35.0)
print("capacity-2 archive keeps:", [e.power_watts for e in tiny.entries])
