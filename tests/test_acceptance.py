"""Release gate: one end-to-end check per shipped guarantee.

Each test prints exactly one ``criterion NN: PASS/FAIL`` line so a log
scrape of a full run shows the whole gate at a glance.  Criteria 9 and
10 share one desk-scale experiment execution through a module-scoped
fixture; everything else is self-contained and fast.
"""

import math
import os
import struct
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from evopower.analysis import SampleGroup, bonferroni, mann_whitney_u, midranks
from evopower.config import load_config, load_grammar_spec
from evopower.data import load_idx
from evopower.errors import DataError
from evopower.evolution import run_experiment
from evopower.fitness import fitness_f1, fitness_f2, fitness_f3
from evopower.genome import (
    GenomeConfig,
    count_hidden_layers,
    init_individual,
    to_phenotype,
    validate_individual,
)
from evopower.grammar import load_packaged_grammar
from evopower.mutation import (
    ModuleArchive,
    MutationRates,
    archive_insert,
    mutate,
    select_archive_module,
    selection_probabilities,
)
from evopower.network import build, split
from evopower.power import ScriptedMeter, measure_mean

from gradcheck import finite_difference_check

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"


def _gate(number: int, ok: bool, detail: str) -> None:
    line = "criterion %02d: %s  %s" % (number, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_01_fitness_oracle_table():
    table = [
        (fitness_f1, (0.9, 0.9, 50.0), 1.67),
        (fitness_f1, (0.5, 0.5, 100.0), 1.01),
        (fitness_f1, (0.80, 0.85, 10.0), 1.75),
        (fitness_f2, (0.9, 0.9, 50.0), 1.85),
        (fitness_f2, (0.7, 0.6, 20.0), 1.8),
        (fitness_f2, (1.0, 1.0, 100.0), 1.75),
        (fitness_f3, (0.5, 0.6, 1e6), 1.1),
        (fitness_f3, (0.9, 0.9, 100.0), 1.9),
        (fitness_f3, (0.96, 0.87, 25.0), 2.23),
    ]
    worst = max(abs(fn(*args) - want) for fn, args, want in table)
    boundary = fitness_f3(0.80, 0.85, 10.0)
    above = fitness_f3(0.80 + 1e-9, 0.85, 10.0)
    _gate(
        1,
        worst <= 1e-12 and abs(boundary - 1.65) <= 1e-12 and above > 2.64,
        "max |err| %.2e over %d entries; boundary stays in the accuracy branch" % (worst, len(table)),
    )


def test_criterion_02_inverse_power_selection():
    grammar = load_packaged_grammar("dense_only")
    cfg = GenomeConfig(min_layers=2, max_layers=3, init_layers_min=2, init_layers_max=3)
    rng = np.random.default_rng(2)
    modules = {}
    while len(modules) < 4:
        ind = init_individual(grammar, cfg, rng)
        for mod in ind.modules:
            modules.setdefault(mod.genotype_key(), mod)
    keys = list(modules)[:4]
    powers = [30.0, 50.0, 70.0, 100.0]
    archive = ModuleArchive()
    for key, watts in zip(keys, powers):
        archive_insert(archive, modules[key], watts)

    inverse = [1.0 / p for p in powers]
    exact = np.array(inverse) / sum(inverse)
    assert np.allclose(selection_probabilities(archive), exact, atol=1e-12)

    draws = 100_000
    counts = dict.fromkeys(keys, 0)
    for _ in range(draws):
        picked = select_archive_module(archive, rng)
        counts[picked.genotype_key()] += 1
    observed = np.array([counts[k] for k in keys], dtype=float)
    freq_err = float(np.max(np.abs(observed / draws - exact)))
    gof_p = float(chisquare(observed, exact * draws).pvalue)
    _gate(
        2,
        freq_err <= 0.02 and gof_p > 0.01,
        "max |freq - exact| %.4f over %d draws, chi-square GOF p=%.3f" % (freq_err, draws, gof_p),
    )


def test_criterion_03_metering_protocol():
    trace = [(1000.0, 1.0), (3000.0, 0.5), (500.0, 0.25), (4400.0, 2.0)]
    meter = ScriptedMeter(trace)
    calls = 0

    def work():
        nonlocal calls
        calls += 1

    res = measure_mean(meter, work, n_measures=len(trace))
    expected = [mj / 1000.0 / s for mj, s in trace]
    exact_trace = res.samples == expected and calls == len(trace)

    meter = ScriptedMeter([(5000.0, 0.5)], cycle=True)
    calls = 0
    res = measure_mean(meter, work, n_measures=30)
    _gate(
        3,
        exact_trace and res.mean_watts == 10.0 and calls == 30 and meter.start_count == 30,
        "scripted watts reproduced exactly; (5000 mJ, 0.5 s) x 30 -> mean %.1f W, work ran %d times"
        % (res.mean_watts, calls),
    )


def test_criterion_04_partition_equivalence():
    grammar = load_packaged_grammar("default")
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        cfg = GenomeConfig(min_layers=2, max_layers=4, init_layers_min=2, init_layers_max=4)
        ind = init_individual(grammar, cfg, rng)
        dims = int(rng.integers(3, 13))
        classes = int(rng.integers(2, 7))
        net = build(to_phenotype(ind, grammar), dims, classes, rng)
        x = rng.standard_normal((10, dims))
        main, aux = net.forward(x)
        left, right = split(net)
        left_main, _ = left.forward(x)
        right_aux, _ = right.forward(x)
        worst = max(
            worst,
            float(np.max(np.abs(left_main - main))),
            float(np.max(np.abs(right_aux - aux))),
        )
    _gate(4, worst <= 1e-9, "max |partition - full model| = %.2e over 100 genotypes x 10 inputs" % worst)


def _relu_kink_margin(net, x):
    # central differences are invalid within epsilon of a relu kink
    out = x
    worst = np.inf
    for layer in net.layers:
        z = out @ layer.w + layer.b
        if layer.activation == "relu":
            worst = min(worst, float(np.abs(z).min()))
        out = np.maximum(z, 0.0) if layer.activation == "relu" else 1.0 / (1.0 + np.exp(-z))
    return worst


def test_criterion_05_gradient_correctness():
    grammar = load_packaged_grammar("dense_only")
    rng = np.random.default_rng(5)
    worst = 0.0
    checked = 0
    while checked < 20:
        cfg = GenomeConfig(min_layers=2, max_layers=3, init_layers_min=2, init_layers_max=3)
        ind = init_individual(grammar, cfg, rng)
        spec = to_phenotype(ind, grammar)
        small = spec.__class__(
            tuple(l.__class__(l.kind, int(rng.integers(3, 7)), l.activation, l.rate) for l in spec.layers),
            spec.aux_index,
            spec.learning_rate,
            spec.batch_size,
        )
        dims = int(rng.integers(3, 6))
        classes = int(rng.integers(2, 5))
        net = build(small, dims, classes, rng)
        x = rng.standard_normal((5, dims))
        y = rng.integers(0, classes, 5)
        if _relu_kink_margin(net, x) < 1e-3:
            continue
        worst = max(worst, finite_difference_check(net, x, y))
        checked += 1
    _gate(5, worst < 1e-5, "max relative gradient error %.2e over 20 tiny networks" % worst)


def test_criterion_06_mutation_validity_fuzz():
    grammars = [load_packaged_grammar("default"), load_packaged_grammar("dense_only")]
    rng = np.random.default_rng(6)
    steps = 0
    for chain in range(1000):
        grammar = grammars[chain % 2]
        # keyword arguments evaluate in order: the bounds, then the module count
        cfg = GenomeConfig(
            min_layers=int(rng.integers(1, 3)),
            max_layers=int(rng.integers(3, 6)),
            init_layers_min=2,
            init_layers_max=3,
            modules=int(rng.integers(1, 3)),
        )
        ind = init_individual(grammar, cfg, rng)
        rates = MutationRates(*(float(r) for r in rng.uniform(0.0, 1.0, 8)))
        archive = ModuleArchive()
        for mod in ind.modules:
            archive_insert(archive, mod, float(rng.uniform(30.0, 70.0)))
        for step in range(10):
            ind = mutate(ind, rates, archive, grammar, cfg, rng, new_id=step)
            validate_individual(ind, grammar, cfg)
            hidden = count_hidden_layers(ind, grammar)
            assert 0 <= ind.macro.middle_point <= hidden - 2
            archive_insert(archive, ind.modules[0], float(rng.uniform(30.0, 70.0)))
            steps += 1
    _gate(6, steps == 10_000, "%d mutation steps, zero invariant violations" % steps)


def _brute_force_mw(a, b, alternative):
    pooled = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    n_a = len(a)
    ranks = midranks(pooled)
    offset = n_a * (n_a + 1) / 2.0
    observed = float(ranks[:n_a].sum()) - offset
    eps = 1e-9
    less = greater = total = 0
    for idx in combinations(range(len(pooled)), n_a):
        u = float(ranks[list(idx)].sum()) - offset
        less += u <= observed + eps
        greater += u >= observed - eps
        total += 1
    if alternative == "less":
        return less / total
    if alternative == "greater":
        return greater / total
    return min(1.0, 2.0 * min(less / total, greater / total))


def test_criterion_07_statistics_oracles():
    res = mann_whitney_u(SampleGroup("a", [1, 2, 3]), SampleGroup("b", [4, 5, 6]), alternative="less")
    exact_small = abs(res.p_value - 0.05) <= 1e-12 and res.statistic == 0.0

    rng = np.random.default_rng(7)
    worst = 0.0
    for n_a in range(1, 8):
        for n_b in range(1, 8):
            if rng.random() < 0.5:
                a = list(rng.integers(0, 4, n_a))
                b = list(rng.integers(0, 4, n_b))
            else:
                a = list(rng.normal(size=n_a))
                b = list(rng.normal(size=n_b))
            for alternative in ("two-sided", "less", "greater"):
                got = mann_whitney_u(
                    SampleGroup("a", a), SampleGroup("b", b), alternative=alternative
                ).p_value
                want = _brute_force_mw(a, b, alternative)
                worst = max(worst, abs(got - want))

    clamped = bonferroni([0.04, 0.5, 0.9], 3)
    clamp_ok = clamped == [min(1.0, 0.04 * 3), 1.0, 1.0]
    _gate(
        7,
        exact_small and worst <= 1e-12 and clamp_ok,
        "[1,2,3] vs [4,5,6] one-sided p=0.05; enumeration matches brute force to %.1e "
        "for all group sizes <= 7; Bonferroni clamps at 1" % max(worst, 1e-15),
    )


def _idx_fixture(tmp_path):
    pixels = bytes(range(4 * 2 * 3))
    images = struct.pack(">IIII", 0x00000803, 4, 2, 3) + pixels
    labels = struct.pack(">II", 0x00000801, 4) + bytes([0, 2, 1, 2])
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    img_path.write_bytes(images)
    lbl_path.write_bytes(labels)
    return img_path, lbl_path, pixels


def test_criterion_08_idx_loader(tmp_path):
    img_path, lbl_path, pixels = _idx_fixture(tmp_path)
    ds = load_idx(img_path, lbl_path)
    want = np.frombuffer(pixels, dtype=np.uint8).reshape(4, 6).astype(np.float64) / 255.0
    bit_exact = (
        np.array_equal(ds.samples, want)
        and np.array_equal(ds.labels, np.array([0, 2, 1, 2]))
        and ds.class_count == 3
    )

    bad = tmp_path / "bad-magic"
    bad.write_bytes(struct.pack(">IIII", 0x00000666, 4, 2, 3) + pixels)
    with pytest.raises(DataError, match="magic"):
        load_idx(bad, lbl_path)
    _gate(8, bit_exact, "4-image fixture parses bit-exactly; wrong magic rejected")


def test_criterion_08_full_dataset_when_present():
    root = Path(os.environ.get("EVOPOWER_FMNIST_DIR", Path(__file__).resolve().parent.parent / "data"))
    pairs = []
    for stem_img, stem_lbl in (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ):
        candidates = [root / stem_img, root / (stem_img + ".gz")]
        found_img = next((p for p in candidates if p.exists()), None)
        candidates = [root / stem_lbl, root / (stem_lbl + ".gz")]
        found_lbl = next((p for p in candidates if p.exists()), None)
        pairs.append((found_img, found_lbl))
    if any(p is None for pair in pairs for p in pair):
        pytest.skip(f"full idx dataset not present under {root}")
    train = load_idx(*pairs[0])
    test = load_idx(*pairs[1])
    _gate(
        8,
        len(train) == 60_000 and len(test) == 10_000 and train.samples.shape[1] == 784,
        "full dataset reports %d train / %d test examples" % (len(train), len(test)),
    )


@pytest.fixture(scope="module")
def desk_pair(tmp_path_factory):
    app = load_config(CONFIG_PATH)
    grammar = load_grammar_spec(app.grammar)
    data = app.data.load()
    out = tmp_path_factory.mktemp("desk")
    started = time.monotonic()
    results = {
        mode: run_experiment(app.evolution, mode, grammar, data, out / mode)
        for mode in ("baseline", "proposed")
    }
    elapsed = time.monotonic() - started
    return app, grammar, data, out, results, elapsed


def test_criterion_09_desk_differential(desk_pair):
    _, _, _, _, results, elapsed = desk_pair
    power = {
        mode: float(np.median([r.best_record.power_left_w for r in res.runs]))
        for mode, res in results.items()
    }
    acc = {
        mode: float(np.median([r.best_record.acc_left for r in res.runs]))
        for mode, res in results.items()
    }
    reduction = 100.0 * (power["baseline"] - power["proposed"]) / power["baseline"]
    delta_points = 100.0 * abs(acc["baseline"] - acc["proposed"])
    _gate(
        9,
        reduction >= 10.0 and delta_points <= 3.0 and elapsed < 20 * 60,
        "median power %.2f W -> %.2f W (-%.1f%%), left accuracy %.3f vs %.3f "
        "(delta %.2f points), wall %.1f min"
        % (
            power["baseline"],
            power["proposed"],
            reduction,
            acc["baseline"],
            acc["proposed"],
            delta_points,
            elapsed / 60.0,
        ),
    )


def test_criterion_10_reproducibility(desk_pair, tmp_path):
    app, grammar, data, first_out, results, _ = desk_pair
    identical = []
    for mode in ("baseline", "proposed"):
        run_experiment(app.evolution, mode, grammar, data, tmp_path / mode)
        # every file either execution wrote: CSVs, journals, best files, weights
        names = sorted({
            str(path.relative_to(root / mode))
            for root in (first_out, tmp_path)
            for path in (root / mode).rglob("*")
            if path.is_file()
        })
        for name in names:
            a, b = (first_out / mode / name), (tmp_path / mode / name)
            identical.append(a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes())
    _gate(
        10,
        all(identical),
        "%d output files byte-identical across two executions" % len(identical),
    )
