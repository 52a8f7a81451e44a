"""Command line front end: evolve, probe, analyze, dataset-check.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure.  ``EVOPOWER_OUT_ROOT`` prefixes relative output directories.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis import analyze_experiments
from .config import format_config, load_config, load_grammar_spec
from .errors import ConfigError, DataError, EvopowerError, GrammarError, InvalidGenotypeError
from .evolution import _PROBE, MODES, _meter_for, run_experiment
from .genome import Individual, load_genotype
from .power import DEFAULT_N_MEASURES, probe_module_power

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _resolve_out(out: str) -> Path:
    root = os.environ.get("EVOPOWER_OUT_ROOT")
    path = Path(out)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _read_genotype(path) -> Individual:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read genotype file {path}: {exc}")
    if isinstance(payload, dict) and "individual" in payload:
        payload = payload["individual"]
    try:
        return load_genotype(payload)
    except InvalidGenotypeError as exc:
        raise ConfigError(f"malformed genotype file {path}: {exc}")


def _cmd_evolve(args) -> int:
    app = load_config(args.config)
    if args.seed is not None:
        app.evolution.seed = args.seed
        app.evolution.validate()
    grammar = load_grammar_spec(app.grammar)
    data = app.data.load()
    out = _resolve_out(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "snapshot.cfg").write_text(format_config(app))
    result = run_experiment(
        app.evolution, args.mode, grammar, data, out, resume=not args.fresh
    )
    print(f"mode: {result.mode}")
    print(f"runs: {len(result.runs)}")
    print(f"aggregate: {result.aggregate_csv}")
    print(f"best fitness: {result.best_record.fitness!r} (run {result.best_run})")
    return EXIT_OK


def _cmd_probe(args) -> int:
    app = load_config(args.config)
    grammar = load_grammar_spec(app.grammar)
    ind = _read_genotype(args.genotype)
    input_dim = args.input_dim if args.input_dim is not None else app.data.io_shape()[0]
    class_count = args.classes if args.classes is not None else app.data.io_shape()[1]
    n_measures = args.n_measures if args.n_measures is not None else app.evolution.n_measures
    for flag, value in (("--input-dim", input_dim), ("--classes", class_count),
                        ("--n-measures", n_measures)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    indices = range(len(ind.modules)) if args.module is None else [args.module]
    for mi in indices:
        if not 0 <= mi < len(ind.modules):
            raise ConfigError(f"module index {mi} out of range, genotype has {len(ind.modules)}")
        module = ind.modules[mi]
        try:
            # keyed like the engine's probes, so noise needs no seed of its own
            meter = _meter_for(None, app.evolution, (app.evolution.seed, _PROBE, mi))
            watts, macs = probe_module_power(
                module, grammar, meter, (input_dim, class_count),
                n_measures=n_measures, seed=app.evolution.seed,
            )
        except InvalidGenotypeError as exc:
            raise ConfigError(f"genotype module {mi} does not decode: {exc}")
        print(f"module {mi}: {watts!r} W, {macs} MACs")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    out = _resolve_out(args.out)
    written = analyze_experiments(Path(args.baseline), Path(args.proposed), out)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_dataset_check(args) -> int:
    app = load_config(args.config)
    raw = app.data.load_raw()
    data = app.data.split_task(raw)
    print(f"kind: {app.data.kind}")
    print(f"source: {raw.source}")
    print(f"examples: {len(raw)}")
    print(f"classes: {raw.class_count}")
    print(f"features: {data.input_dim}")
    print(f"train: {len(data.train)}")
    print(f"validation: {len(data.validation)}")
    print(f"test: {len(data.test) if data.test is not None else 0}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evopower",
        description="grammar-based neuroevolution with power-aware fitness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="run a full experiment")
    evolve.add_argument("--config", required=True)
    evolve.add_argument("--mode", choices=MODES, default="proposed")
    evolve.add_argument("--seed", type=int, default=None)
    evolve.add_argument("--out", required=True)
    evolve.add_argument("--fresh", action="store_true",
                        help="ignore existing checkpoints and restart")
    evolve.set_defaults(func=_cmd_evolve)

    probe = sub.add_parser("probe", help="measure a genotype's modules in isolation")
    probe.add_argument("genotype", help="genotype JSON file")
    probe.add_argument("--config", required=True)
    probe.add_argument("--module", type=int, default=None)
    probe.add_argument("--n-measures", type=int, default=None,
                       help=f"measurement windows (default from config, {DEFAULT_N_MEASURES})")
    probe.add_argument("--input-dim", type=int, default=None)
    probe.add_argument("--classes", type=int, default=None)
    probe.set_defaults(func=_cmd_probe)

    analyze = sub.add_parser("analyze", help="compare two experiment directories")
    analyze.add_argument("--baseline", required=True)
    analyze.add_argument("--proposed", required=True)
    analyze.add_argument("--out", required=True)
    analyze.set_defaults(func=_cmd_analyze)

    check = sub.add_parser("dataset-check", help="load the configured dataset and report sizes")
    check.add_argument("--config", required=True)
    check.set_defaults(func=_cmd_dataset_check)

    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GrammarError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (EvopowerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(entry())
