"""One benchmark repetition, in a fresh process.

It does what ``evopower evolve`` does: parse the config, load the
grammar and the dataset, and call ``run_experiment``.  Then it checks
the outputs and writes a JSON report.  Run by ``run.py``, which passes
one JSON argument::

    python3 perfbench/rep.py '{"root": ..., "flat": {...}, "mode": ..., ...}'

``t0`` in that argument is the parent's ``time.monotonic()`` just before
it started this process, so ``setup_s`` includes interpreter start-up.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import sys
import time
from pathlib import Path

from machine import machine_info
from tracer import Tracer


def _written_bytes() -> int:
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_outputs(result, cfg, out: Path) -> list[str]:
    """Names of the output checks that failed (empty when all pass).
    ``cfg`` is the configuration as the experiment's mode adjusted it."""
    meter = cfg.meter
    failures = []
    expected_rows = (cfg.generations + 1) * cfg.population_size
    csvs = [out / f"run_{r}" / "generations.csv" for r in range(cfg.runs)]
    for path in csvs:
        with open(path, newline="") as fh:
            rows = sum(1 for _ in csv.DictReader(fh))
        if rows != expected_rows:
            failures.append(f"rows:{path.relative_to(out)}={rows}!={expected_rows}")
    with open(out / "aggregate.csv", newline="") as fh:
        rows = sum(1 for _ in csv.DictReader(fh))
    if rows != expected_rows * cfg.runs:
        failures.append(f"rows:aggregate.csv={rows}!={expected_rows * cfg.runs}")
    for run in result.runs:
        for log in run.logs:
            for rec in log.records:
                where = f"run {run.run} gen {log.generation} id {rec.individual}"
                if not rec.fitness_consistent(cfg.fitness):
                    failures.append(f"fitness_consistent:{where}")
                if not (0.0 <= rec.acc_left <= 1.0 and 0.0 <= rec.acc_right <= 1.0):
                    failures.append(f"accuracy_range:{where}")
                # a diverged individual is never metered and records 0 W
                powers = (rec.power_left_w, rec.power_right_w)
                if not rec.diverged and not all(meter.p_min <= p <= meter.p_max for p in powers):
                    failures.append(f"power_range:{where}")
    return failures


def main(spec: dict) -> dict:
    root = spec["root"]
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import evopower.evolution as evolution
    from evopower.config import AppConfig, load_grammar_spec, parse_config
    from evopower.errors import TrainingDivergedError
    from evopower.network import count_macs

    t_import = time.monotonic()
    if not Path(evolution.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported {evolution.__file__}, not the checkout's {src}")
    flat = parse_config((Path(root) / "configs" / "desk.cfg").read_text())
    flat.update(spec["flat"])
    app = AppConfig.from_flat(flat)
    t_config = time.monotonic()
    grammar = load_grammar_spec(app.grammar)
    t_grammar = time.monotonic()
    data = app.data.load()
    t_data = time.monotonic()
    report = {
        "setup_s": t_data - spec["t0"],
        "setup.import_s": t_import - spec["t0"],
        "config.load_s": t_config - t_import,
        "grammar.load_s": t_grammar - t_config,
        "data.load_s": t_data - t_grammar,
    }
    if spec["setup_only"]:
        return report

    tracer = None
    if spec["trace"]:
        tracer = Tracer(evolution, app.evolution.max_train_budget, count_macs, TrainingDivergedError)
        tracer.install()
    out = Path(spec["out"])
    written0 = _written_bytes()
    cpu0 = os.times()
    start = time.perf_counter()
    result = evolution.run_experiment(app.evolution, spec["mode"], grammar, data, out)
    wall = time.perf_counter() - start
    cpu1 = os.times()
    written = _written_bytes() - written0
    if tracer is not None:
        tracer.uninstall()

    evaluations = sum(run.evaluations for run in result.runs)
    report.update({
        "wall_s": wall,
        "evaluations": evaluations,
        "process.cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_fitness": result.best_record.fitness,
        "best_power_left_w": result.best_record.power_left_w,
        "failures": check_outputs(result, evolution.mode_config(app.evolution, spec["mode"]), out),
    })
    if tracer is not None:
        tracer.check(evaluations, spec["expects_probes"])
        report["layers"] = {
            **tracer.metrics(),
            "mutation.archive.size": sum(len(run.archive) for run in result.runs),
            "evolution.written_mb": written / 1e6,
            "evolution.checkpoint_mb": sum(
                _dir_bytes(out / f"run_{r}" / "checkpoints") for r in range(app.evolution.runs)
            ) / 1e6,
        }
    return report


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    report = main(spec)
    report["machine"] = machine_info(spec["root"], spec["out"])
    Path(spec["report"]).write_text(json.dumps(report))
