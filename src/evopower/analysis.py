"""Rank-based statistics and experiment comparison tables.

Implements the comparison methodology end to end: a Kruskal-Wallis
omnibus test over all groups, pairwise Mann-Whitney U post-hoc tests
with Bonferroni correction, and summary tables reporting mean, sample
standard deviation, median, and each group's difference to the baseline
median.  Ties are handled by midranks throughout.

Mann-Whitney supports two modes.  Exact mode counts every one of the
C(n_a + n_b, n_a) assignments of the pooled values to group a by its
rank sum, so its p-values are exact even under ties; it is refused above
``ENUMERATION_CAP`` arrangements.  Approximate mode uses the normal
approximation with tie-corrected variance and a 0.5 continuity
correction.  Two-sided p-values are reported by default.  The experiment
comparison uses exact mode whenever the group sizes fit under the cap.

The experiment-level helpers read the per-generation CSV schema written
by the evolution engine, reduce each run to its best individuals, and
emit the summary, pairwise-matrix, and mean-best-fitness series files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import DataError, EnumerationCapError
from .evolution import read_rows

ENUMERATION_CAP = 200_000


@dataclass
class SampleGroup:
    label: str
    values: list[float]

    def validate(self) -> None:
        if not self.values:
            raise DataError(f"group {self.label!r} is empty")


@dataclass
class TestResult:
    statistic: float
    p_value: float
    method: str


def midranks(values) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _tie_term(values: np.ndarray) -> float:
    """Sum of t^3 - t over groups of tied values."""
    _, counts = np.unique(values, return_counts=True)
    return float(np.sum(counts.astype(float) ** 3 - counts))


def kruskal_wallis(groups: list[SampleGroup]) -> TestResult:
    """H statistic with tie correction; p from the chi-square tail."""
    if len(groups) < 2:
        raise DataError(f"need at least 2 groups, got {len(groups)}")
    for g in groups:
        g.validate()
    pooled = np.concatenate([np.asarray(g.values, dtype=float) for g in groups])
    n = pooled.shape[0]
    if np.all(pooled == pooled[0]):
        return TestResult(0.0, 1.0, "degenerate")
    ranks = midranks(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        size = len(g.values)
        rank_sum = float(ranks[offset : offset + size].sum())
        h += rank_sum * rank_sum / size
        offset += size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - _tie_term(pooled) / (n**3 - n)
    h /= correction
    return TestResult(float(h), _chi2_sf(h, len(groups) - 1), "chi-square")


def _chi2_sf(x: float, k: int) -> float:
    """Chi-square upper tail for an integer k >= 1 degrees of freedom.  With
    h = x / 2: exp(-h) * sum_{j < k/2} h^j / j! for even k, and for odd k
    erfc(sqrt(h)) + exp(-h) * sum_{j=1}^{(k-1)/2} h^(j-1/2) / Gamma(j+1/2)."""
    if x <= 0:  # rounding can leave H a hair below zero for equal rank means
        return 1.0
    h = x / 2.0
    if k % 2 == 0:
        tail, a, term = 0.0, 1.0, 1.0
    else:
        tail, a, term = math.erfc(math.sqrt(h)), 1.5, 2.0 * math.sqrt(h / math.pi)
    series = 0.0
    for _ in range(k // 2):
        series += term
        term *= h / a
        a += 1.0
    return tail + math.exp(-h) * series


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _rank_sum_counts(doubled: np.ndarray, n_a: int) -> np.ndarray:
    """``counts[s]``: how many size-``n_a`` subsets of the integer
    ``doubled`` ranks sum to ``s``, by dynamic programming over the items."""
    top = int(doubled.sum())
    counts = np.zeros((n_a + 1, top + 1), dtype=np.int64)
    counts[0, 0] = 1
    for i, w in enumerate(doubled.tolist()):
        # larger subsets first, so each item joins a subset at most once
        for k in range(min(i + 1, n_a), 0, -1):
            counts[k, w:] += counts[k - 1, : top + 1 - w]
    return counts[n_a]


def mann_whitney_u(
    a: SampleGroup,
    b: SampleGroup,
    mode: str = "exact",
    alternative: str = "two-sided",
) -> TestResult:
    """U for group a against b; exact null distribution or normal approximation.

    ``alternative`` follows the usual convention: "less" means group a
    tends to produce smaller values.
    """
    a.validate()
    b.validate()
    if mode not in ("exact", "approximate"):
        raise DataError(f"mode must be exact or approximate, got {mode!r}")
    if alternative not in ("two-sided", "less", "greater"):
        raise DataError(f"bad alternative {alternative!r}")
    n_a, n_b = len(a.values), len(b.values)
    pooled = np.concatenate([np.asarray(a.values, float), np.asarray(b.values, float)])
    n = n_a + n_b
    ranks = midranks(pooled)
    u_a = float(ranks[:n_a].sum()) - n_a * (n_a + 1) / 2.0

    if mode == "exact":
        total = math.comb(n, n_a)
        if total > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"exact mode needs {total} arrangements, cap is {ENUMERATION_CAP}; "
                "use approximate mode"
            )
        # doubled midranks are integers, and U orders arrangements as their
        # rank sums do
        doubled = (2.0 * ranks).astype(np.int64)
        counts = _rank_sum_counts(doubled, n_a)
        s_a = int(doubled[:n_a].sum())
        less_eq = int(counts[: s_a + 1].sum())
        greater_eq = int(counts[s_a:].sum())
        p_less = less_eq / total
        p_greater = greater_eq / total
        if alternative == "less":
            p = p_less
        elif alternative == "greater":
            p = p_greater
        else:
            p = min(1.0, 2.0 * min(p_less, p_greater))
        return TestResult(u_a, p, "exact")

    mean = n_a * n_b / 2.0
    var = n_a * n_b / 12.0 * ((n + 1) - _tie_term(pooled) / (n * (n - 1)))
    if var <= 0:
        return TestResult(u_a, 1.0, "degenerate")
    sd = math.sqrt(var)
    if alternative == "less":
        p = 1.0 - _normal_sf((u_a - mean + 0.5) / sd)
    elif alternative == "greater":
        p = _normal_sf((u_a - mean - 0.5) / sd)
    else:
        z = (abs(u_a - mean) - 0.5) / sd
        p = min(1.0, 2.0 * _normal_sf(max(z, 0.0)))
    return TestResult(u_a, p, "approximate")


def bonferroni(p_values: list[float], m: int) -> list[float]:
    """min(1, p * m) per value; order preserved."""
    if m < len(p_values):
        raise DataError(f"m={m} smaller than the {len(p_values)} comparisons")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise DataError(f"p-value {p} outside [0, 1]")
    return [min(1.0, p * m) for p in p_values]


@dataclass
class SummaryRow:
    label: str
    mean: float
    sd: float
    median: float
    diff_to_baseline_median: float


def summarize(groups: list[SampleGroup], baseline_label: str) -> list[SummaryRow]:
    """Mean, sample SD, median, and median difference to the baseline."""
    labels = [g.label for g in groups]
    if baseline_label not in labels:
        raise DataError(f"baseline {baseline_label!r} not among groups {labels}")
    for g in groups:
        g.validate()
    baseline_median = float(np.median([g.values for g in groups if g.label == baseline_label][0]))
    rows = []
    for g in groups:
        values = np.asarray(g.values, float)
        sd = float(values.std(ddof=1)) if values.shape[0] > 1 else 0.0
        median = float(np.median(values))
        rows.append(SummaryRow(g.label, float(values.mean()), sd, median, median - baseline_median))
    return rows


# ---------------------------------------------------------------------------
# experiment-level helpers over the evolution CSV schema


def load_experiment_rows(experiment_dir) -> list[dict]:
    """All rows of an experiment: aggregate.csv, else the per-run files."""
    root = Path(experiment_dir)
    aggregate = root / "aggregate.csv"
    if aggregate.exists():
        return read_rows(aggregate)
    run_files = sorted(root.glob("run_*/generations.csv"))
    if not run_files:
        raise DataError(f"{root}: no aggregate.csv and no run_*/generations.csv")
    rows = []
    for path in run_files:
        rows.extend(read_rows(path))
    return rows


def _better(row, other) -> bool:
    key_a = (-row["fitness"], row["power_left_w"], row["individual"])
    key_b = (-other["fitness"], other["power_left_w"], other["individual"])
    return key_a < key_b


def best_per_run_generation(rows: list[dict]) -> dict[tuple[int, int], dict]:
    best: dict[tuple[int, int], dict] = {}
    for row in rows:
        key = (row["run"], row["generation"])
        if key not in best or _better(row, best[key]):
            best[key] = row
    return best


def final_best_per_run(rows: list[dict]) -> dict[int, dict]:
    """Best individual of each run's last generation."""
    best = best_per_run_generation(rows)
    out: dict[int, dict] = {}
    last = {}
    for run, generation in best:
        last[run] = max(last.get(run, -1), generation)
    for (run, generation), row in best.items():
        if generation == last[run]:
            out[run] = row
    return out


def mean_best_series(rows: list[dict]) -> list[dict]:
    """Per generation: mean over runs of the run-best fitness and metrics."""
    best = best_per_run_generation(rows)
    generations = sorted({g for _, g in best})
    series = []
    for g in generations:
        picks = [row for (_, gen), row in best.items() if gen == g]
        series.append(
            {
                "generation": g,
                "mean_best_fitness": float(np.mean([r["fitness"] for r in picks])),
                "mean_best_acc_left": float(np.mean([r["acc_left"] for r in picks])),
                "mean_best_acc_right": float(np.mean([r["acc_right"] for r in picks])),
                "mean_best_power_left_w": float(np.mean([r["power_left_w"] for r in picks])),
                "mean_best_power_right_w": float(np.mean([r["power_right_w"] for r in picks])),
                "runs": len(picks),
            }
        )
    return series


def experiment_groups(baseline_rows: list[dict], proposed_rows: list[dict]) -> dict[str, list[SampleGroup]]:
    """Accuracy and power groups from each run's final best individual."""
    base = list(final_best_per_run(baseline_rows).values())
    prop = list(final_best_per_run(proposed_rows).values())
    if not base or not prop:
        raise DataError("one of the experiments has no rows")
    return {
        "accuracy": [
            SampleGroup("baseline_accuracy", [r["acc_left"] for r in base]),
            SampleGroup("left_accuracy", [r["acc_left"] for r in prop]),
            SampleGroup("right_accuracy", [r["acc_right"] for r in prop]),
        ],
        "power": [
            SampleGroup("baseline_power_w", [r["power_left_w"] for r in base]),
            SampleGroup("left_power_w", [r["power_left_w"] for r in prop]),
            SampleGroup("right_power_w", [r["power_right_w"] for r in prop]),
        ],
    }


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _format(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _mw_mode(a: SampleGroup, b: SampleGroup) -> str:
    arrangements = math.comb(len(a.values) + len(b.values), len(a.values))
    return "exact" if arrangements <= ENUMERATION_CAP else "approximate"


def analyze_experiments(baseline_dir, proposed_dir, out_dir) -> list[Path]:
    """Summary, omnibus, pairwise, and series CSVs; returns written paths.

    Each Mann-Whitney test is exact when its groups allow at most
    ``ENUMERATION_CAP`` arrangements, and approximate otherwise.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    baseline_rows = load_experiment_rows(baseline_dir)
    proposed_rows = load_experiment_rows(proposed_dir)
    groups = experiment_groups(baseline_rows, proposed_rows)

    written = []
    summary_rows = []
    omnibus_rows = []
    pairwise_rows = []
    for metric, metric_groups in groups.items():
        baseline_label = metric_groups[0].label
        for row in summarize(metric_groups, baseline_label):
            summary_rows.append(
                [metric, row.label, _format(row.mean), _format(row.sd),
                 _format(row.median), _format(row.diff_to_baseline_median)]
            )
        kw = kruskal_wallis(metric_groups)
        omnibus_rows.append([metric, _format(kw.statistic), _format(kw.p_value), kw.method])
        pairs = list(combinations(metric_groups, 2))
        raw = [mann_whitney_u(x, y, mode=_mw_mode(x, y)) for x, y in pairs]
        adjusted = bonferroni([r.p_value for r in raw], len(pairs))
        for (x, y), result, adj in zip(pairs, raw, adjusted):
            pairwise_rows.append(
                [metric, x.label, y.label, _format(result.statistic),
                 _format(result.p_value), _format(adj), result.method]
            )

    path = out / "summary.csv"
    _write_csv(path, ["metric", "group", "mean", "sd", "median", "diff_to_baseline_median"],
               summary_rows)
    written.append(path)
    path = out / "kruskal_wallis.csv"
    _write_csv(path, ["metric", "h_statistic", "p_value", "method"], omnibus_rows)
    written.append(path)
    path = out / "pairwise_mann_whitney.csv"
    _write_csv(path, ["metric", "group_a", "group_b", "u_statistic", "p_value",
                      "p_bonferroni", "method"], pairwise_rows)
    written.append(path)

    for name, rows in (("baseline", baseline_rows), ("proposed", proposed_rows)):
        series = mean_best_series(rows)
        path = out / f"mean_best_{name}.csv"
        _write_csv(path, list(series[0]), [[_format(v) for v in s.values()] for s in series])
        written.append(path)
    return written
