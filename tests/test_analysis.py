import csv
import hashlib
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from evopower.analysis import (
    ENUMERATION_CAP,
    SampleGroup,
    _chi2_sf,
    analyze_experiments,
    best_per_run_generation,
    bonferroni,
    experiment_groups,
    final_best_per_run,
    kruskal_wallis,
    load_experiment_rows,
    mann_whitney_u,
    mean_best_series,
    midranks,
    summarize,
)
from evopower.cli import entry
from evopower.errors import DataError, EnumerationCapError
from evopower.evolution import CSV_COLUMNS, read_rows


def g(label, values):
    return SampleGroup(label, list(values))


def test_midranks():
    assert midranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert midranks([5]).tolist() == [1.0]
    assert midranks([3, 1, 2]).tolist() == [3.0, 1.0, 2.0]
    assert midranks([7, 7, 7]).tolist() == [2.0, 2.0, 2.0]


def test_kruskal_wallis_hand_value():
    result = kruskal_wallis([g("a", [1, 2, 3]), g("b", [4, 5, 6]), g("c", [7, 8, 9])])
    assert result.statistic == pytest.approx(7.2, abs=1e-12)
    assert result.p_value == pytest.approx(math.exp(-3.6), abs=1e-12)  # chi2 sf, 2 dof


def test_kruskal_wallis_identical_groups():
    result = kruskal_wallis([g("a", [1, 2, 3]), g("b", [1, 2, 3])])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)
    # equal rank means; rounding leaves H at -2.8e-14
    a = [*range(1, 17), *range(51, 67)]
    result = kruskal_wallis([g("a", a), g("b", [v for v in range(1, 67) if v not in a])])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == 1.0


def test_kruskal_wallis_degenerate_constant_data():
    result = kruskal_wallis([g("a", [5, 5]), g("b", [5, 5, 5])])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.method == "degenerate"


def test_kruskal_wallis_matches_reference_implementation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        groups = [g(f"g{i}", rng.integers(0, 8, size=rng.integers(3, 9)).astype(float))
                  for i in range(k)]
        if all(np.all(np.concatenate([x.values for x in groups])
                      == groups[0].values[0]) for _ in [0]):
            continue
        ours = kruskal_wallis(groups)
        try:
            h_ref, p_ref = scipy.stats.kruskal(*[x.values for x in groups])
        except ValueError:
            continue  # all numbers identical
        assert ours.statistic == pytest.approx(h_ref, abs=1e-9)
        assert ours.p_value == pytest.approx(p_ref, abs=1e-9)


def test_chi2_sf_closed_form_matches_reference():
    # odd k takes the erfc branch, even k the pure series; the grid spans
    # the bulk and both tails
    grid = np.concatenate([np.geomspace(1e-6, 1.0, 25), np.linspace(1.0, 80.0, 80)])
    for k in range(1, 8):
        for x in grid:
            assert _chi2_sf(float(x), k) == pytest.approx(scipy.stats.chi2.sf(x, k), rel=1e-12)


def test_kruskal_wallis_rank_invariance():
    groups = [g("a", [1.0, 2.0, 5.0]), g("b", [3.0, 4.0, 8.0]), g("c", [6.0, 7.0, 9.0])]
    mapped = [g(x.label, [math.exp(v) for v in x.values]) for x in groups]
    assert kruskal_wallis(groups).statistic == pytest.approx(
        kruskal_wallis(mapped).statistic, abs=1e-12
    )


def test_kruskal_wallis_rejects_bad_input():
    with pytest.raises(DataError):
        kruskal_wallis([g("a", [1, 2])])
    with pytest.raises(DataError):
        kruskal_wallis([g("a", [1, 2]), g("b", [])])


def test_mann_whitney_hand_values():
    result = mann_whitney_u(g("a", [1, 2, 3]), g("b", [4, 5, 6]), mode="exact",
                            alternative="less")
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(1.0 / 20.0, abs=1e-12)

    two_sided = mann_whitney_u(g("a", [1, 2, 3]), g("b", [4, 5, 6]), mode="exact")
    assert two_sided.p_value == pytest.approx(0.1, abs=1e-12)


def test_mann_whitney_u_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = g("a", rng.integers(0, 10, size=rng.integers(2, 7)).astype(float))
        b = g("b", rng.integers(0, 10, size=rng.integers(2, 7)).astype(float))
        u_a = mann_whitney_u(a, b, mode="approximate").statistic
        u_b = mann_whitney_u(b, a, mode="approximate").statistic
        assert u_a + u_b == pytest.approx(len(a.values) * len(b.values), abs=1e-9)


def test_mann_whitney_identical_multisets():
    result = mann_whitney_u(g("a", [2, 4, 4, 7]), g("b", [4, 2, 7, 4]), mode="exact")
    assert result.p_value == 1.0


def test_mann_whitney_exact_matches_reference():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = sorted(rng.normal(size=rng.integers(3, 7)))  # continuous, no ties
        b = sorted(rng.normal(size=rng.integers(3, 7)))
        for alternative in ("two-sided", "less", "greater"):
            ours = mann_whitney_u(g("a", a), g("b", b), mode="exact", alternative=alternative)
            ref = scipy.stats.mannwhitneyu(a, b, alternative=alternative, method="exact")
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-9)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_mann_whitney_approximate_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.integers(0, 6, size=rng.integers(5, 12)).astype(float)  # heavy ties
        b = rng.integers(0, 6, size=rng.integers(5, 12)).astype(float)
        if np.all(np.concatenate([a, b]) == a[0]):
            continue
        ours = mann_whitney_u(g("a", a), g("b", b), mode="approximate")
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="asymptotic", use_continuity=True)
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def enumerated_p_values(a, b):
    """Exact (less, greater, two-sided) p-values by walking every
    assignment of the pooled midranks to group a."""
    n_a = len(a)
    ranks = midranks(np.concatenate([np.asarray(a, float), np.asarray(b, float)]))
    offset = n_a * (n_a + 1) / 2.0
    u_a = float(ranks[:n_a].sum()) - offset
    total = less_eq = greater_eq = 0
    for idx in combinations(range(len(ranks)), n_a):
        u = float(ranks[list(idx)].sum()) - offset
        total += 1
        less_eq += u <= u_a + 1e-9
        greater_eq += u >= u_a - 1e-9
    p_less, p_greater = less_eq / total, greater_eq / total
    return {"less": p_less, "greater": p_greater,
            "two-sided": min(1.0, 2.0 * min(p_less, p_greater))}


def assert_exact_p_values_equal_enumeration(a, b):
    want = enumerated_p_values(a, b)
    for alternative, p in want.items():
        result = mann_whitney_u(g("a", a), g("b", b), mode="exact", alternative=alternative)
        assert result.method == "exact"
        assert result.p_value == p, (a, b, alternative)


def test_mann_whitney_exact_counts_equal_enumeration_for_small_groups():
    rng = np.random.default_rng(4)
    for n_a in range(1, 8):
        for n_b in range(1, 8):
            # values from a few levels, so most draws carry ties
            a = rng.integers(0, 4, size=n_a).tolist()
            b = rng.integers(0, 4, size=n_b).tolist()
            assert_exact_p_values_equal_enumeration(a, b)


def test_mann_whitney_exact_counts_equal_enumeration_for_ten_runs():
    rng = np.random.default_rng(5)
    assert_exact_p_values_equal_enumeration(rng.integers(0, 6, size=10).tolist(),
                                            rng.integers(2, 8, size=10).tolist())


def test_mann_whitney_enumeration_cap():
    a = g("a", list(range(12)))
    b = g("b", list(range(12, 24)))
    with pytest.raises(EnumerationCapError, match="cap"):
        mann_whitney_u(a, b, mode="exact")
    # approximate mode handles the same sizes
    result = mann_whitney_u(a, b, mode="approximate")
    assert 0.0 <= result.p_value <= 1.0


def test_mann_whitney_degenerate_constant():
    result = mann_whitney_u(g("a", [3, 3, 3]), g("b", [3, 3]), mode="approximate")
    assert result.p_value == 1.0
    assert result.method == "degenerate"


def test_bonferroni():
    assert bonferroni([0.01, 0.02], m=3) == [
        pytest.approx(0.03, abs=1e-15),
        pytest.approx(0.06, abs=1e-15),
    ]
    assert bonferroni([0.9], m=3) == [1.0]
    assert bonferroni([0.2], m=1) == [0.2]
    rng = np.random.default_rng(4)
    ps = rng.uniform(0, 1, 10).tolist()
    adjusted = bonferroni(ps, m=12)
    assert all(adj >= p for adj, p in zip(adjusted, ps))
    assert all(0 <= adj <= 1 for adj in adjusted)
    with pytest.raises(DataError):
        bonferroni([0.1, 0.2], m=1)
    with pytest.raises(DataError):
        bonferroni([1.5], m=2)


def test_summarize_table_style():
    # medians arranged to mirror a power comparison table
    baseline = g("baseline_power_w", [97.80 - 2.09, 99.89, 99.89 + 18.84])
    right = g("right_power_w", [70.40 - 0.31, 70.71, 70.71 + 1.30])
    rows = summarize([baseline, right], "baseline_power_w")
    assert rows[0].diff_to_baseline_median == 0.0
    assert rows[1].median == pytest.approx(70.71, abs=1e-12)
    assert rows[1].diff_to_baseline_median == pytest.approx(-29.18, abs=1e-9)


def test_summarize_degenerate_and_oracle():
    rows = summarize([g("base", [5.0]), g("other", [7.0])], "base")
    assert rows[0].sd == 0.0 and rows[0].median == 5.0
    assert rows[1].diff_to_baseline_median == pytest.approx(2.0)

    rng = np.random.default_rng(5)
    values = rng.normal(10, 3, size=40)
    row = summarize([g("x", values.tolist())], "x")[0]
    assert row.mean == pytest.approx(float(values.mean()), abs=1e-12)
    assert row.sd == pytest.approx(float(values.std(ddof=1)), abs=1e-12)
    assert row.median == pytest.approx(float(np.median(values)), abs=1e-12)

    with pytest.raises(DataError):
        summarize([g("x", [1.0])], "missing")


def make_row(run=0, generation=0, individual=0, fitness=1.0, acc_left=0.8,
             acc_right=0.7, power_left=60.0, power_right=50.0):
    return {
        "run": run, "generation": generation, "individual": individual,
        "fitness": fitness, "acc_left": acc_left, "acc_right": acc_right,
        "power_left_w": power_left, "power_right_w": power_right,
        "hidden_layers": 2, "middle_point": 0, "train_budget_epochs": 3.0,
    }


def write_rows(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_best_row_tie_breaks():
    rows = [
        make_row(individual=1, fitness=1.5, power_left=70.0),
        make_row(individual=2, fitness=1.5, power_left=60.0),  # wins on power
        make_row(individual=3, fitness=1.4, power_left=10.0),
    ]
    best = best_per_run_generation(rows)
    assert best[(0, 0)]["individual"] == 2

    rows = [
        make_row(individual=4, fitness=1.5, power_left=60.0),
        make_row(individual=2, fitness=1.5, power_left=60.0),  # wins on id
    ]
    assert best_per_run_generation(rows)[(0, 0)]["individual"] == 2


def test_final_best_and_series():
    rows = []
    for run in range(2):
        for generation in range(3):
            for individual in range(2):
                rows.append(make_row(run=run, generation=generation, individual=individual,
                                     fitness=generation + individual * 0.1 + run))
    final = final_best_per_run(rows)
    assert set(final) == {0, 1}
    assert all(r["generation"] == 2 for r in final.values())
    series = mean_best_series(rows)
    assert [s["generation"] for s in series] == [0, 1, 2]
    assert series[0]["runs"] == 2
    # best per run at generation 0 has fitness 0.1 and 1.1 -> mean 0.6
    assert series[0]["mean_best_fitness"] == pytest.approx(0.6)


def test_read_rows_rejects_schema_drift(tmp_path):
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "generation"])
        writer.writerow([0, 0])
    with pytest.raises(DataError, match="unexpected columns"):
        read_rows(bad)


@pytest.mark.parametrize(
    "cells, message",
    [
        (["0", "0", "0", "abc"] + ["1"] * 7, "could not convert"),
        (["0", "0", "0"], "3 cells"),
        (["0"] * 12, "12 cells"),
    ],
)
def test_read_rows_rejects_bad_rows(tmp_path, cells, message):
    bad = tmp_path / "bad.csv"
    write_rows(bad, [make_row()])
    with open(bad, "a", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(cells)
    with pytest.raises(DataError, match=f"bad.csv line 3: .*{message}"):
        read_rows(bad)


def test_load_experiment_rows_fallback_and_missing(tmp_path):
    with pytest.raises(DataError, match="no aggregate"):
        load_experiment_rows(tmp_path)
    write_rows(tmp_path / "run_0" / "generations.csv", [make_row()])
    write_rows(tmp_path / "run_1" / "generations.csv", [make_row(run=1)])
    assert len(load_experiment_rows(tmp_path)) == 2


def write_experiments(root: Path, runs: int) -> None:
    """baseline/ and proposed/ aggregate CSVs of ``runs`` runs each."""
    baseline_rows = [make_row(run=r, generation=gen, individual=i,
                              fitness=0.7 + 0.01 * i, acc_left=0.75 + 0.01 * r,
                              power_left=95.0 + r, power_right=90.0)
                     for r in range(runs) for gen in range(2) for i in range(3)]
    proposed_rows = [make_row(run=r, generation=gen, individual=i,
                              fitness=1.5 + 0.01 * i, acc_left=0.74 + 0.01 * r,
                              acc_right=0.70 + 0.01 * r, power_left=70.0 + r,
                              power_right=60.0 + r)
                     for r in range(runs) for gen in range(2) for i in range(3)]
    write_rows(root / "baseline" / "aggregate.csv", baseline_rows)
    write_rows(root / "proposed" / "aggregate.csv", proposed_rows)


def pairwise_methods(path: Path) -> set[str]:
    with open(path, newline="") as fh:
        return {row["method"] for row in csv.DictReader(fh)}


def test_analyze_experiments_outputs(tmp_path):
    write_experiments(tmp_path, 5)

    written = analyze_experiments(tmp_path / "baseline", tmp_path / "proposed",
                                  tmp_path / "out")
    names = [p.name for p in written]
    assert names == ["summary.csv", "kruskal_wallis.csv", "pairwise_mann_whitney.csv",
                     "mean_best_baseline.csv", "mean_best_proposed.csv"]
    with open(tmp_path / "out" / "summary.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "metric,group,mean,sd,median,diff_to_baseline_median"
    assert len(lines) == 7  # 2 metrics x 3 groups
    with open(tmp_path / "out" / "pairwise_mann_whitney.csv") as fh:
        pairwise = fh.read().splitlines()
    assert len(pairwise) == 7  # 2 metrics x 3 pairs

    summary = {(r.split(",")[0], r.split(",")[1]): r.split(",") for r in lines[1:]}
    base_power_median = float(summary[("power", "baseline_power_w")][4])
    left_power_diff = float(summary[("power", "left_power_w")][5])
    assert base_power_median == 97.0  # median over runs 0..4 of 95+r
    assert left_power_diff == pytest.approx(72.0 - 97.0)


def test_analyze_uses_exact_mann_whitney_while_enumeration_fits(tmp_path):
    # C(10, 5) = 252 arrangements: exact, with the bytes the exact-only
    # analyze wrote for these inputs
    write_experiments(tmp_path, 5)
    analyze_experiments(tmp_path / "baseline", tmp_path / "proposed", tmp_path / "out")
    path = tmp_path / "out" / "pairwise_mann_whitney.csv"
    assert pairwise_methods(path) == {"exact"}
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "107934819c67f2606bb184b4c671e1fe138f1cf3c2f06c198e7ef345e540aea4"


def test_analyze_cli_switches_to_approximate_mann_whitney_for_eleven_runs(tmp_path, capsys):
    # C(22, 11) = 705432 arrangements exceed the enumeration cap
    assert math.comb(22, 11) > ENUMERATION_CAP >= math.comb(20, 10)
    write_experiments(tmp_path, 11)
    code = entry(["analyze", "--baseline", str(tmp_path / "baseline"),
                  "--proposed", str(tmp_path / "proposed"), "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert pairwise_methods(tmp_path / "out" / "pairwise_mann_whitney.csv") == {"approximate"}
    with pytest.raises(SystemExit):  # the group sizes pick the mode; no flag does
        entry(["analyze", "--baseline", str(tmp_path / "baseline"), "--proposed",
               str(tmp_path / "proposed"), "--out", str(tmp_path / "o2"), "--mw-mode", "exact"])


def test_experiment_groups_shape():
    baseline_rows = [make_row(run=r, fitness=1.0) for r in range(3)]
    proposed_rows = [make_row(run=r, fitness=2.0) for r in range(3)]
    groups = experiment_groups(baseline_rows, proposed_rows)
    assert {x.label for x in groups["accuracy"]} == {
        "baseline_accuracy", "left_accuracy", "right_accuracy"
    }
    assert all(len(x.values) == 3 for x in groups["power"])
