import numpy as np
import pytest

from evopower.errors import ConfigError, MeasurementError
from evopower.genome import ModuleGene
from evopower.grammar import GeneList, load_packaged_grammar
from evopower.mutation import ModuleArchive, archive_insert
from evopower.network import build, count_macs
from evopower.power import (
    AnalyticMeter,
    AnalyticMeterConfig,
    Meter,
    ScriptedMeter,
    analytic_power,
    build_probe_network,
    measure_mean,
    probe_module_power,
)

GRAMMAR = load_packaged_grammar("default")


def dense_module(units=64):
    genes = GeneList(
        choices={"layer": [0], "dense": [0], "activation": [0]},
        values={"units": [[units]]},
    )
    return ModuleGene([genes])


def test_watt_conversion():
    meter = ScriptedMeter([(5000.0, 0.5)] * 4)
    result = measure_mean(meter, lambda: "done", n_measures=4)
    assert result.samples == [10.0] * 4
    assert result.mean_watts == 10.0
    assert result.output == "done"


def test_ramp_mean():
    readings = [(w * 1000.0, 1.0) for w in range(30, 60)]
    result = measure_mean(ScriptedMeter(readings), lambda: None, n_measures=30)
    assert result.mean_watts == pytest.approx(44.5, abs=1e-12)
    assert len(result.samples) == 30


def test_work_runs_exactly_n_times_and_last_output_wins():
    meter = ScriptedMeter([(1000.0, 1.0)] * 7)
    calls = []
    result = measure_mean(meter, lambda: calls.append(len(calls)) or len(calls), n_measures=7)
    assert len(calls) == 7
    assert result.output == 7  # the final call's return value
    assert meter.start_count == 7


def test_measure_mean_rejects_bad_inputs():
    with pytest.raises(ValueError):
        measure_mean(ScriptedMeter([(1.0, 1.0)]), lambda: None, n_measures=0)
    with pytest.raises(MeasurementError, match="duration"):
        measure_mean(ScriptedMeter([(1000.0, 0.0)]), lambda: None, n_measures=1)
    with pytest.raises(MeasurementError, match="negative energy"):
        measure_mean(ScriptedMeter([(-5.0, 1.0)]), lambda: None, n_measures=1)


def test_scripted_meter_protocol():
    meter = ScriptedMeter([(1000.0, 1.0)] * 2)
    with pytest.raises(MeasurementError):
        meter.read()  # nothing measured yet
    meter.start()
    with pytest.raises(MeasurementError):
        meter.start()  # double start
    meter.stop()
    with pytest.raises(MeasurementError):
        meter.stop()  # stop without start
    assert meter.read() == (1000.0, 1.0)
    meter.observe(object())  # contract hook is a no-op here


def test_scripted_meter_exhaustion_and_cycle():
    meter = ScriptedMeter([(2000.0, 1.0)])
    measure_mean(meter, lambda: None, n_measures=1)
    with pytest.raises(MeasurementError, match="exhausted"):
        measure_mean(meter, lambda: None, n_measures=1)

    cycling = ScriptedMeter([(2000.0, 1.0), (4000.0, 1.0)], cycle=True)
    result = measure_mean(cycling, lambda: None, n_measures=5)
    assert result.samples == [2.0, 4.0, 2.0, 4.0, 2.0]

    with pytest.raises(ConfigError):
        ScriptedMeter([])


def test_analytic_config_validation():
    AnalyticMeterConfig().validate()
    with pytest.raises(ConfigError):
        AnalyticMeterConfig(p_min=100.0, p_max=30.0).validate()
    with pytest.raises(ConfigError):
        AnalyticMeterConfig(k=0.0).validate()
    with pytest.raises(ConfigError):
        AnalyticMeterConfig(noise_sigma=-1.0).validate()


def test_analytic_power_clamps_and_monotonicity():
    cfg = AnalyticMeterConfig()
    assert analytic_power(0, cfg) == 30.0  # log1p(0) = 0 -> floor
    assert analytic_power(10**12, cfg) == 100.0  # ceiling
    previous = 0.0
    for macs in (0, 10, 1_000, 50_000, 134_400, 10**7):
        p = analytic_power(macs, cfg)
        assert p >= previous
        previous = p


def test_analytic_power_reference_anchor():
    # 784-input, 128/128/128 hidden, 10-class stack: 134 400 MACs near 65 W
    assert analytic_power(134_400, AnalyticMeterConfig()) == pytest.approx(65.0, abs=0.05)


def test_analytic_power_accepts_networks():
    from evopower.genome import LayerSpec, PhenotypeSpec

    spec = PhenotypeSpec(
        tuple(LayerSpec("dense", units=128, activation="relu") for _ in range(3)),
        aux_index=0, learning_rate=0.01, batch_size=32,
    )
    net = build(spec, input_dim=784, class_count=10, rng=np.random.default_rng(0))
    assert analytic_power(net, AnalyticMeterConfig()) == analytic_power(count_macs(net), AnalyticMeterConfig())
    with pytest.raises(MeasurementError):
        analytic_power("not a network", AnalyticMeterConfig())


def test_analytic_noise_bounds_and_determinism():
    cfg = AnalyticMeterConfig(noise_sigma=5.0, seed=11)
    rng = np.random.default_rng(11)
    lo, hi = 30.0, 100.0 + 6 * 5.0
    values = [analytic_power(134_400, cfg, rng) for _ in range(5000)]
    assert min(values) >= lo and max(values) <= hi
    assert len(set(values)) > 100  # actually noisy

    a = [analytic_power(134_400, cfg, np.random.default_rng(3)) for _ in range(5)]
    b = [analytic_power(134_400, cfg, np.random.default_rng(3)) for _ in range(5)]
    assert a == b


def test_analytic_meter_round_trip_is_exact():
    from evopower.genome import LayerSpec, PhenotypeSpec

    spec = PhenotypeSpec(
        (LayerSpec("dense", units=32, activation="relu"),
         LayerSpec("dense", units=16, activation="relu")),
        aux_index=0, learning_rate=0.01, batch_size=32,
    )
    net = build(spec, input_dim=8, class_count=4, rng=np.random.default_rng(1))
    cfg = AnalyticMeterConfig()
    meter = AnalyticMeter(cfg)
    meter.observe(net)
    x = np.random.default_rng(2).random((5, 8))
    result = measure_mean(meter, lambda: net.forward(x), n_measures=30)
    expected = analytic_power(count_macs(net), cfg)
    assert result.samples == [expected] * 30
    assert result.mean_watts == expected


@pytest.mark.parametrize("sigma", [0.0, 2.0, 40.0])
def test_analytic_meter_reads_equal_analytic_power(sigma):
    # the meter computes the noiseless draw once per observe; every read
    # must still carry the bits of analytic_power with the same generator
    from evopower.genome import LayerSpec, PhenotypeSpec

    cfg = AnalyticMeterConfig(noise_sigma=sigma, seed=4)
    spec = PhenotypeSpec(
        (LayerSpec("dense", units=32, activation="sigmoid"),
         LayerSpec("dense", units=16, activation="relu")),
        aux_index=0, learning_rate=0.01, batch_size=32,
    )
    net = build(spec, input_dim=8, class_count=4, rng=np.random.default_rng(1))
    for rng_seed in (None, 9):
        meter = AnalyticMeter(cfg, None if rng_seed is None else np.random.default_rng(rng_seed))
        reference = np.random.default_rng(cfg.seed if rng_seed is None else rng_seed)
        for subject in (None, 0, 1, 1000, net, 134_400, 10**9, 10**15, 7):
            if subject is not None:
                meter.observe(subject)
            for _ in range(12):
                meter.start()
                meter.stop()
                millijoules, seconds = meter.read()
                expected = analytic_power(0 if subject is None else subject, cfg, reference)
                # W watts over one millisecond is W millijoules
                assert (millijoules.hex(), seconds) == (expected.hex(), 0.001)


@pytest.mark.parametrize("sigma", [0.0, 2.0])
def test_measure_mean_returns_the_modeled_draw_bit_for_bit(sigma):
    # a 1-second window of watts * 1000 mJ lost an ulp in the * 1000 / 1000
    # round trip for 395 of these MAC counts even without noise
    cfg = AnalyticMeterConfig(noise_sigma=sigma, seed=4)
    meter = AnalyticMeter(cfg)
    reference = np.random.default_rng(cfg.seed)
    for macs in range(0, 200_000, 7):
        meter.observe(macs)
        result = measure_mean(meter, lambda: None, n_measures=1)
        assert result.samples[0].hex() == analytic_power(macs, cfg, reference).hex(), macs


def test_analytic_meter_skips_the_workload_but_keeps_every_window():
    cfg = AnalyticMeterConfig(noise_sigma=2.0, seed=4)
    calls = []

    def work():
        calls.append(1)
        return "out"

    meter = AnalyticMeter(cfg)
    meter.observe(1000)
    skipped = measure_mean(meter, work, n_measures=9)
    assert calls == [] and skipped.output is None
    assert len(skipped.samples) == 9

    forced = AnalyticMeter(cfg)
    forced.runs_workload = True
    forced.observe(1000)
    ran = measure_mean(forced, work, n_measures=9)
    assert len(calls) == 9 and ran.output == "out"
    # same windows, same noise draws: skipping the workload changes no sample
    assert skipped.samples == ran.samples


def test_meters_run_the_workload_by_default():
    class Telemetry(Meter):
        def start(self):
            pass

        def stop(self):
            pass

        def read(self):
            return 2000.0, 1.0

    calls = []
    result = measure_mean(Telemetry(), lambda: calls.append(1) or "out", n_measures=4)
    assert len(calls) == 4 and result.output == "out"
    assert result.samples == [2.0] * 4


def test_analytic_meter_enforces_protocol():
    meter = AnalyticMeter()
    with pytest.raises(MeasurementError):
        meter.read()
    meter.start()
    with pytest.raises(MeasurementError):
        meter.start()
    meter.stop()
    energy, duration = meter.read()
    assert duration == 0.001 and energy == 30.0  # nothing observed -> floor


def test_probe_is_deterministic():
    module = dense_module(48)
    a = probe_module_power(module, GRAMMAR, AnalyticMeter(), (20, 5), n_measures=5)
    b = probe_module_power(module, GRAMMAR, AnalyticMeter(), (20, 5), n_measures=5)
    assert a == b


def test_probe_orders_by_module_size():
    small = probe_module_power(dense_module(16), GRAMMAR, AnalyticMeter(), (20, 5), n_measures=3)
    big = probe_module_power(dense_module(256), GRAMMAR, AnalyticMeter(), (20, 5), n_measures=3)
    assert big >= small


def test_probe_network_shape():
    net = build_probe_network(dense_module(24), GRAMMAR, 10, 3, np.random.default_rng(0))
    assert net.aux_head is None
    assert [l.fan_out for l in net.dense_layers()] == [24, 3]
    assert count_macs(net) == 10 * 24 + 24 * 3


def test_probe_feeds_archive():
    archive = ModuleArchive()
    module = dense_module(32)
    watts = probe_module_power(module, GRAMMAR, AnalyticMeter(), (12, 4), n_measures=3)
    archive_insert(archive, module, watts)
    assert len(archive) == 1
    assert archive.entries[0].power_watts == watts
