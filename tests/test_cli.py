import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evopower
from evopower.cli import entry
from evopower.config import (
    KEY_TYPES,
    AppConfig,
    format_config,
    load_config,
    load_grammar_spec,
    parse_config,
)
from evopower.errors import ConfigError
from evopower.evolution import EvolutionConfig
from evopower.genome import genotype_payload, load_genotype

BASE_LINES = [
    "# desk-sized smoke setup",
    "evolution.runs = 1",
    "evolution.generations = 2",
    "evolution.population_size = 3",
    "evolution.default_train_budget = 2",
    "evolution.n_measures = 2",
    "evolution.seed = 3",
    "genome.grammar = dense_only",
    "genome.max_layers = 4",
    "data.kind = synthetic",
    "data.classes = 3",
    "data.samples_per_class = 20",
    "data.dimensions = 5",
    "data.separation = 3.0",
]


def write_cfg(tmp_path, extra=(), name="run.cfg"):
    # later lines replace earlier ones with the same key
    pairs = {}
    for line in [*BASE_LINES, *extra]:
        if "=" in line:
            pairs[line.partition("=")[0].strip()] = line
    path = tmp_path / name
    path.write_text("\n".join(pairs.values()) + "\n")
    return str(path)


def test_config_defaults_and_round_trip(tmp_path):
    app = load_config(write_cfg(tmp_path))
    assert app.evolution.runs == 1
    assert app.evolution.population_size == 3
    assert app.evolution.rates.add_layer == 0.25  # untouched default
    assert app.evolution.fitness.kind == "f3"
    assert app.grammar == "dense_only"
    assert app.data.dimensions == 5
    assert app.evolution.genome.max_layers == 4

    flat = app.to_flat()
    again = AppConfig.from_flat(flat)
    assert again.to_flat() == flat
    reparsed = AppConfig.from_flat(parse_config(format_config(app)))
    assert reparsed.to_flat() == flat


def test_config_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        AppConfig.from_flat({"evolution.bogus": "1"})
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("no equals sign here")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("evolution.seed = 1\nevolution.seed = 2")
    with pytest.raises(ConfigError, match="cannot parse"):
        AppConfig.from_flat({"evolution.seed": "three"})
    with pytest.raises(ConfigError, match="data.kind"):
        AppConfig.from_flat({"data.kind": "csv"})
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "missing.cfg")


def test_load_grammar_spec(tmp_path):
    assert load_grammar_spec("default").alternatives("layer")
    custom = tmp_path / "g.grammar"
    custom.write_text("<layer> ::= layer:dense [units,int,1,4,8] act:relu\n"
                      "<learning> ::= [lr,float,1,0.001,0.01] [batch,int,1,8,16]\n"
                      "<middle_point> ::= [middle_point,int,1,0,x]\n")
    assert load_grammar_spec(str(custom)).alternatives("layer")
    with pytest.raises(ConfigError, match="neither a packaged grammar"):
        load_grammar_spec("no_such_grammar")


def test_undecodable_config_and_grammar_files_exit_with_config_errors(tmp_path, capsys):
    cfg = Path(write_cfg(tmp_path))
    cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
    assert entry(["dataset-check", "--config", str(cfg)]) == 2
    assert entry(["evolve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    grammar = tmp_path / "bad.grammar"
    grammar.write_bytes(b"<layer> ::= layer:dense [units,int,1,4,8] act:relu # \xff\n")
    cfg = write_cfg(tmp_path, [f"genome.grammar = {grammar}"])
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
    assert "cannot read grammar file" in capsys.readouterr().err


def test_evolve_refuses_a_grammar_with_an_activation_no_layer_computes(tmp_path, capsys):
    dense_only = resources.files("evopower") / "grammars" / "dense_only.grammar"
    grammar = tmp_path / "tanh.grammar"
    grammar.write_text(dense_only.read_text().replace("act:relu | act:sigmoid",
                                                      "act:relu | act:tanh"))
    cfg = write_cfg(tmp_path, [f"genome.grammar = {grammar}"])
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "act:tanh names no hidden activation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("layer:dense [units,int,1,16,256] <activation>", "layer:dense [units,int,1,16,256]",
     "a layer:dense derivation sets no act"),
    ("layer:dense [units,int,1,16,256]", "layer:dense units:many",
     "sets units to 'many', which does not parse as int"),
], ids=["no-act", "units-not-a-number"])
def test_evolve_refuses_a_grammar_whose_dense_layer_misses_an_attribute(tmp_path, capsys, old,
                                                                        new, message):
    dense_only = resources.files("evopower") / "grammars" / "dense_only.grammar"
    grammar = tmp_path / "broken.grammar"
    grammar.write_text(dense_only.read_text().replace(old, new))
    cfg = write_cfg(tmp_path, [f"genome.grammar = {grammar}"])
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


DENSE = "layer:dense [units,int,1,16,256] <activation>"


@pytest.mark.parametrize("old, new, message", [
    ("<layer>        ::= <dense>", "<layer> ::= " + "<dense> | " * 9 + "layer:dropout rate:1.5",
     "rate:1.5 can set rate to 1.5, outside [0.0, 1.0)"),
    ("[units,int,1,16,256]", "[units,int,1,-4,256]",
     "block [units] can set units to -4, outside [1, inf)"),
    ("<layer>        ::= <dense>", "<layer> ::= " + "<dense> | " * 19 + "foo",
     "foo in <layer> names no hidden layer kind; use one of dense, dropout"),
    ("[batch,int,1,32,256]", "[batch,int,1,32,256] | [batch,int,1,32,256]",
     "a <learning> derivation sets no lr"),
    (DENSE, " | ".join([DENSE] * 59 + ["layer:dense [units,int,1,16,256]"]),
     "a layer:dense derivation sets no act"),
], ids=["rate-above-one", "negative-units", "bare-layer-kind", "learning-without-lr",
        "one-dense-in-60-without-act"])
def test_evolve_refuses_a_grammar_that_breaks_the_contract_at_load(tmp_path, capsys, old, new,
                                                                   message):
    # each of these grammars used to load, and a run died, if ever, once
    # it derived the faulty alternative
    dense_only = (resources.files("evopower") / "grammars" / "dense_only.grammar").read_text()
    assert old in dense_only
    grammar = tmp_path / "broken.grammar"
    grammar.write_text(dense_only.replace(old, new))
    cfg = write_cfg(tmp_path, [f"genome.grammar = {grammar}"])
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evolve_reruns_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "best fitness:" in out and "mode: proposed" in out
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0

    bytes_a = (tmp_path / "a" / "aggregate.csv").read_bytes()
    assert bytes_a == (tmp_path / "b" / "aggregate.csv").read_bytes()
    assert (tmp_path / "a" / "snapshot.cfg").is_file()
    assert (tmp_path / "a" / "run_0" / "generations.csv").is_file()


def test_snapshot_replays_run(tmp_path):
    cfg = write_cfg(tmp_path)
    assert entry(["evolve", "--config", cfg, "--seed", "9", "--out", str(tmp_path / "a")]) == 0
    snapshot = tmp_path / "a" / "snapshot.cfg"
    assert "evolution.seed = 9" in snapshot.read_text()
    assert entry(["evolve", "--config", str(snapshot), "--out", str(tmp_path / "replay")]) == 0
    assert ((tmp_path / "a" / "aggregate.csv").read_bytes()
            == (tmp_path / "replay" / "aggregate.csv").read_bytes())


def test_seed_override_changes_results(tmp_path):
    cfg = write_cfg(tmp_path)
    entry(["evolve", "--config", cfg, "--out", str(tmp_path / "a")])
    entry(["evolve", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "c")])
    assert ((tmp_path / "a" / "aggregate.csv").read_bytes()
            != (tmp_path / "c" / "aggregate.csv").read_bytes())


@pytest.mark.parametrize("extra, args, code, message", [
    (["evolution.seed = -1"], [], 2, "seed must be >= 0"),
    (["data.seed = -1"], [], 2, "data.seed must be >= 0"),
    (["data.split_seed = -2"], [], 2, "data.split_seed must be >= 0"),
    ([], ["--seed", "-1"], 2, "seed must be >= 0"),
    (["data.separation = inf"], [], 3, "beyond float range"),
])
def test_unusable_seeds_and_separation_are_typed_errors(tmp_path, capsys, extra, args, code, message):
    # each once passed validation and then failed in numpy, or ran to a
    # result in which every evaluation diverged
    out = tmp_path / "out"
    assert entry(["evolve", "--config", write_cfg(tmp_path, extra), *args,
                  "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not (out / "snapshot.cfg").exists()


def files(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


# Small valid values for every key that sets how much work a run does, so
# that each drawn config runs in a fraction of a second; a huge size is an
# allocation, not a validation question.
SMALL = {
    "evolution.runs": st.integers(1, 2),
    "evolution.generations": st.integers(1, 2),
    "evolution.population_size": st.integers(2, 3),
    "evolution.n_measures": st.integers(1, 3),
    "evolution.default_train_budget": st.sampled_from([1.0, 1.5]),
    "evolution.max_train_budget": st.sampled_from([1.5, 2.0]),
    "evolution.train_longer_increment": st.sampled_from([0.5, 1.0]),
    "data.classes": st.integers(1, 4),
    "data.samples_per_class": st.integers(5, 12),
    "data.dimensions": st.integers(1, 5),
    "data.clusters_per_class": st.integers(1, 3),
    "data.subset_train": st.integers(1, 20),
    "data.subset_validation": st.integers(1, 20),
    "data.subset_test": st.integers(1, 20),
    "genome.modules": st.integers(1, 2),
    "genome.min_layers": st.integers(1, 2),
    "genome.max_layers": st.integers(2, 3),
    "genome.init_layers_min": st.just(2),
    "genome.init_layers_max": st.just(2),
}
# Edge values: sizes may turn 0 or negative, and the budgets infinite or
# nan; seeds and the other numbers may take any of these.
SIZE_EDGES = st.sampled_from(["0", "-1", "inf", "nan"])
INT_EDGES = st.sampled_from(["0", "-1", "-7", "5", str(2**63), str(10**30)])
FLOAT_EDGES = st.sampled_from(["0.0", "-1.5", "0.5", "1e-300", "1e308", "inf", "-inf", "nan"])
STR_VALUES = {
    "fitness.kind": st.sampled_from(["accuracy", "f1", "f2", "f3", "f4"]),
    "genome.grammar": st.sampled_from(["dense_only", "default", "no_such_grammar"]),
    "data.kind": st.sampled_from(["synthetic", "idx"]),
    "data.train_images": st.sampled_from(["", "missing-images.idx"]),
    "data.train_labels": st.sampled_from(["", "missing-labels.idx"]),
}


def edge_value(key):
    if key in SMALL:
        # an int key cannot parse "inf": that is a config error too
        return SIZE_EDGES
    if key in STR_VALUES:
        return STR_VALUES[key]
    return INT_EDGES if KEY_TYPES[key] is int else FLOAT_EDGES


@st.composite
def flat_configs(draw):
    flat = {key: str(draw(values)) for key, values in SMALL.items()}
    edges = draw(st.lists(st.sampled_from(sorted(KEY_TYPES)), max_size=3, unique=True))
    flat.update({key: draw(edge_value(key)) for key in edges})
    return flat


@settings(max_examples=50, deadline=None)
@given(flat_configs(), st.sampled_from(["baseline", "proposed"]))
# noise this wide gives finite windows whose mean overflows
@example({**{key: "1" for key in SMALL}, "evolution.population_size": "2",
          "evolution.n_measures": "2", "evolution.default_train_budget": "1.0",
          "evolution.max_train_budget": "1.5", "evolution.train_longer_increment": "0.5",
          "data.samples_per_class": "5", "genome.max_layers": "2",
          "genome.init_layers_min": "2", "genome.init_layers_max": "2",
          "meter.noise_sigma": "1e308"}, "baseline")
def test_evolve_accepts_a_config_or_fails_with_a_typed_error(flat, mode):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "drawn.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in flat.items()))
        argv = ["evolve", "--config", str(cfg), "--mode", mode, "--out", str(Path(tmp) / "out")]
        code = entry(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            # the resume replays every run's journal and rewrites every file
            written = files(Path(tmp) / "out")
            assert entry(argv) == 0
            assert files(Path(tmp) / "out") == written


def test_missing_idx_paths_are_config_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra=["data.kind = idx"])
    assert entry(["dataset-check", "--config", cfg]) == 2
    assert "data.train_images" in capsys.readouterr().err
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_dataset_check_synthetic(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert entry(["dataset-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "kind: synthetic" in out
    assert "examples: 60" in out
    assert "classes: 3" in out
    assert "features: 5" in out
    assert "train: 36" in out
    assert "validation: 12" in out


def test_probe_prints_watts_and_macs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    entry(["evolve", "--config", cfg, "--out", str(tmp_path / "a")])
    capsys.readouterr()
    genotype = str(tmp_path / "a" / "best_genotype.json")

    assert entry(["probe", genotype, "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert first.startswith("module 0: ")
    assert " W, " in first and first.rstrip().endswith("MACs")

    assert entry(["probe", genotype, "--config", cfg]) == 0
    assert capsys.readouterr().out == first  # deterministic

    assert entry(["probe", genotype, "--config", cfg, "--module", "7"]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert entry(["probe", str(bad), "--config", cfg]) == 2
    assert "genotype file" in capsys.readouterr().err

    not_a_genotype = tmp_path / "wrong.json"
    not_a_genotype.write_text(json.dumps({"version": 1, "no": "modules"}))
    assert entry(["probe", str(not_a_genotype), "--config", cfg]) == 2


# a best_genotype.json "individual" entry written by hand from the
# version 2 format (init_individual on dense_only, seed 0), so that a
# format change shows up here
LEGACY_GENOTYPE = (
    '{"id": 3, "macro": {"genes": {"learning": {"choices": {"learning": [0]}, "values": '
    '{"batch": [[35]], "lr": [[0.08134569689610723]]}}}, "middle_point": 1}, "modules": '
    '[{"layer_genes": [{"choices": {"activation": [1], "dense": [0], "layer": [0]}, '
    '"values": {"units": [[169]]}}, {"choices": {"activation": [0], "dense": [0], '
    '"layer": [0]}, "values": {"units": [[81]]}}, {"choices": {"activation": [0], '
    '"dense": [0], "layer": [0]}, "values": {"units": [[25]]}}]}], "train_budget": 2.0, '
    '"version": 2}'
)


def test_probe_reads_legacy_genotype_files(tmp_path, capsys):
    legacy = json.loads(LEGACY_GENOTYPE)
    assert genotype_payload(load_genotype(legacy)) == legacy  # same format both ways
    path = tmp_path / "best_genotype.json"
    path.write_text(json.dumps({"mode": "proposed", "run": 0, "individual": legacy}))
    assert entry(["probe", str(path), "--config", write_cfg(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("module 0: ")

    # version 1 kept the layer bounds and the start symbol in every module
    old = {**legacy, "version": 1}
    old["modules"] = [{**m, "max_layers": 4, "min_layers": 2, "start_symbol": "layer"}
                      for m in legacy["modules"]]
    path.write_text(json.dumps({"mode": "proposed", "run": 0, "individual": old}))
    assert entry(["probe", str(path), "--config", write_cfg(tmp_path)]) == 2
    assert "unsupported individual record version 1" in capsys.readouterr().err


def test_probe_builds_each_module_once_and_prints_its_macs(tmp_path, capsys, monkeypatch):
    import evopower.network
    import evopower.power

    built = []

    def counting_build_stack(*args, **kwargs):
        built.append(args[1:3])
        return evopower.network.build_stack(*args, **kwargs)

    monkeypatch.setattr(evopower.power, "build_stack", counting_build_stack)
    legacy = json.loads(LEGACY_GENOTYPE)
    two_modules = {**legacy, "modules": legacy["modules"] * 2}
    path = tmp_path / "best_genotype.json"
    path.write_text(json.dumps({"individual": two_modules}))
    assert entry(["probe", str(path), "--config", write_cfg(tmp_path), "--input-dim", "784"]) == 0
    assert built == [(784, 3), (784, 3)]
    macs = 784 * 169 + 169 * 81 + 81 * 25 + 25 * 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["module 0", "module 1"]
    assert all(line.endswith(f" W, {macs} MACs") for line in lines)


@pytest.mark.parametrize("args, message", [
    (["--n-measures", "0"], "--n-measures must be >= 1, got 0"),
    (["--input-dim", "-1"], "--input-dim must be >= 1, got -1"),
    (["--classes", "-2"], "--classes must be >= 1, got -2"),
    (["--input-dim", "0"], "--input-dim must be >= 1, got 0"),
    (["--classes", "0"], "--classes must be >= 1, got 0"),
])
def test_probe_rejects_empty_shapes_and_no_windows(tmp_path, capsys, args, message):
    # each once ended in a numpy or measure_mean traceback, or printed watts
    # for a network with no inputs or no classes
    path = tmp_path / "best_genotype.json"
    path.write_text(json.dumps({"individual": json.loads(LEGACY_GENOTYPE)}))
    assert entry(["probe", str(path), "--config", write_cfg(tmp_path), *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_analyze_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra=["evolution.runs = 2"])
    base_cfg = load_config(cfg)
    assert base_cfg.evolution.runs == 2
    entry(["evolve", "--config", cfg, "--mode", "baseline", "--out", str(tmp_path / "b")])
    entry(["evolve", "--config", cfg, "--mode", "proposed", "--out", str(tmp_path / "p")])
    capsys.readouterr()

    code = entry(["analyze", "--baseline", str(tmp_path / "b"),
                  "--proposed", str(tmp_path / "p"), "--out", str(tmp_path / "stats")])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 5
    assert (tmp_path / "stats" / "summary.csv").is_file()
    assert (tmp_path / "stats" / "pairwise_mann_whitney.csv").is_file()

    assert entry(["analyze", "--baseline", str(tmp_path / "empty"),
                  "--proposed", str(tmp_path / "p"), "--out", str(tmp_path / "s2")]) == 3


def test_env_var_prefixes_relative_out(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path)
    monkeypatch.setenv("EVOPOWER_OUT_ROOT", str(tmp_path / "root"))
    assert entry(["evolve", "--config", cfg, "--out", "rel"]) == 0
    assert (tmp_path / "root" / "rel" / "aggregate.csv").is_file()
    # absolute paths are untouched
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "abs")]) == 0
    assert (tmp_path / "abs" / "aggregate.csv").is_file()
    capsys.readouterr()


def test_checkpoint_conflict_is_runtime_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert entry(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert entry(["evolve", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "a")]) == 4
    assert "does not match" in capsys.readouterr().err
    assert entry(["evolve", "--config", cfg, "--seed", "4", "--fresh",
                  "--out", str(tmp_path / "a")]) == 0


def test_cli_import_leaves_scipy_unloaded():
    # scipy is the tests' statistics oracle, not a runtime dependency;
    # evopower.cli imports every module of the package
    src = str(Path(evopower.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import evopower.cli, sys; assert 'scipy' not in sys.modules, 'scipy was imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
