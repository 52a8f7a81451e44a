"""Benchmark workloads: ``configs/desk.cfg`` plus flat-key overrides.

The benchmark seed becomes ``data.seed``, so each seed trains and scores
on its own synthetic dataset.  ``evolution.seed`` keeps desk.cfg's value:
it fixes the initial populations and the mutation draws.  Drawing it per
seed made the same 6-generation desk run cost 7.7 s to 23 s, because the
random architectures and batch sizes differ that much.

Selection still reads accuracies, so a new dataset can change which
parent wins and what is trained after it.  desk-proposed and
idx-baseline therefore run several short independent runs
(``evolution.runs``), whose costs average out; many-generations keeps
one long run and lets power decide selection.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    why: str
    overrides: dict[str, str]
    # the traced run fails if module probing never ran (baseline mode skips it)
    expects_probes: bool = True


# shrinks any workload to a run of a second or two, for the benchmark's tests
SMOKE_OVERRIDES = {
    "evolution.runs": "1",
    "evolution.generations": "1",
    "evolution.n_measures": "2",
    "evolution.default_train_budget": "1.0",
    "evolution.max_train_budget": "1.0",
    "data.samples_per_class": "16",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-proposed",
            mode="proposed",
            why="desk.cfg proposed mode, 2 runs x 2 generations, every layer active: "
            "training dominates, then metering, probing and archive reuse",
            overrides={"evolution.runs": "2", "evolution.generations": "2"},
        ),
        Workload(
            name="idx-baseline",
            mode="baseline",
            why="IDX-shaped 784->N kernels with dropout and the largest arrays, 5 runs x 1 "
            "generation; baseline mode never probes, the bypass side for archive and probe work",
            overrides={
                "evolution.runs": "5",
                "evolution.generations": "1",
                "data.dimensions": "784",
                "data.classes": "10",
                "data.samples_per_class": "100",
                "genome.grammar": "default",
            },
            expects_probes=False,
        ),
        Workload(
            name="many-generations",
            mode="proposed",
            why="150 generations of one-epoch training on small data under a power-led "
            "fitness: metering, probing, checkpoint and CSV rewrites dominate",
            overrides={
                "evolution.runs": "1",
                "evolution.generations": "150",
                "evolution.default_train_budget": "1.0",
                "evolution.max_train_budget": "1.0",
                "data.samples_per_class": "100",
                "genome.modules": "3",
                # With desk.cfg's weights, selection follows accuracy, hence the
                # dataset: 4 runs x 15 generations cost 8.7 s to 16.3 s across
                # seeds.  A power term that outweighs any accuracy gap makes every
                # seed evolve the same architectures, so seeds differ only in data.
                "fitness.threshold_left": "0.0",
                "fitness.threshold_right": "0.0",
                "fitness.power_weight": "1000.0",
            },
        ),
    )
}


def overrides(workload: Workload, seed: int, smoke: bool = False) -> dict[str, str]:
    """Flat keys one repetition sets on top of desk.cfg: the workload's
    overrides, the benchmark seed, and the smoke shrink if asked."""
    flat = dict(workload.overrides)
    flat["data.seed"] = str(seed)
    if smoke:
        flat.update(SMOKE_OVERRIDES)
    return flat
