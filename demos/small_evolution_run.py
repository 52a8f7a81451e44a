"""
A complete experiment in half a minute
======================================

Runs the baseline (accuracy-only) and the power-aware setup on a small
synthetic task to show the moving parts: per-generation CSV logs, the
resume journal, the aggregate table, and the winner's genotype and weight
dump.  Everything is deterministic per seed; re-running writes
byte-identical files.

Note the scale: a dozen generations on a task this easy says nothing
about which mode finds cheaper models (both saturate accuracy and drift
on power).  The calibrated comparison lives in configs/desk.cfg and
takes a few minutes through the CLI.
"""

import statistics
import tempfile
from pathlib import Path

from evopower.data import SplitSpec, split, synthetic_dataset
from evopower.evolution import EvolutionConfig, TaskData, run_experiment
from evopower.genome import GenomeConfig
from evopower.grammar import load_packaged_grammar
from evopower.mutation import MutationRates

ds = synthetic_dataset(classes=4, samples_per_class=400, dimensions=8, separation=4.5, seed=0)
train, validation, test = split(ds, SplitSpec((0.6, 0.2, 0.2), seed=0))
data = TaskData(train, validation, test)

cfg = EvolutionConfig(
    runs=2,
    generations=12,
    population_size=4,
    default_train_budget=6.0,
    max_train_budget=10.0,
    rates=MutationRates(dsge_level=0.5, remove_layer=0.35),
    genome=GenomeConfig(modules=2, min_layers=1, max_layers=2, init_layers_min=1, init_layers_max=2),
    seed=3,
)
grammar = load_packaged_grammar("dense_only")

out = Path(tempfile.mkdtemp(prefix="evopower_demo_"))
for mode in ("baseline", "proposed"):
    result = run_experiment(cfg, mode, grammar, data, out / mode)
    accs = [r.best_record.acc_left for r in result.runs]
    watts = [r.best_record.power_left_w for r in result.runs]
    evals = [r.evaluations for r in result.runs]
    print("%-8s  best fitness %.4f  (run %d)" % (mode, result.best_record.fitness, result.best_run))
    print("          left accuracy %s   power %s W   evaluations %s"
          % (["%.3f" % a for a in accs], ["%.1f" % w for w in watts], evals))
    print("          medians: accuracy %.3f, power %.2f W"
          % (statistics.median(accs), statistics.median(watts)))

# the baseline's best fitness is its left accuracy; the power-aware mode
# scores both accuracies plus an inverse-power bonus, hence the ~2.2

print("\nartifacts under", out)
for path in sorted(out.rglob("*")):
    if path.is_file() and "checkpoints" not in path.parts:
        print("  ", path.relative_to(out))
print("   (plus a resume journal, one line per generation, in run_*/checkpoints/)")
