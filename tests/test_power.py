import hashlib

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


@pytest.mark.parametrize("readings", [
    [(1e308, 0.001)],  # each window is finite, their sum is not
    [(float("inf"), 1.0)],
    [(float("nan"), 1.0)],
])
def test_measure_mean_refuses_a_mean_that_is_not_finite(readings):
    # the overflow is a meter fault, not a numpy RuntimeWarning
    with pytest.raises(MeasurementError, match="not a finite draw"):
        measure_mean(ScriptedMeter(readings, cycle=True), lambda: None, n_measures=2)


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
    cfg = AnalyticMeterConfig(noise_sigma=5.0)
    rng = np.random.default_rng(11)
    lo, hi = 30.0, 100.0 + 6 * 5.0
    values = [analytic_power(134_400, cfg, rng) for _ in range(5000)]
    assert min(values) >= lo and max(values) <= hi
    assert len(set(values)) > 100  # actually noisy

    a = [analytic_power(134_400, cfg, np.random.default_rng(3)) for _ in range(5)]
    b = [analytic_power(134_400, cfg, np.random.default_rng(3)) for _ in range(5)]
    assert a == b


def test_noise_without_a_generator_is_a_config_error():
    # a fallback generator would draw the same "noise" on every call
    noisy = AnalyticMeterConfig(noise_sigma=2.0)
    with pytest.raises(ConfigError, match="needs a generator"):
        analytic_power(1000, noisy)
    meter = AnalyticMeter(noisy)
    meter.observe(1000)
    with pytest.raises(ConfigError, match="needs a generator"):
        measure_mean(meter, lambda: None, n_measures=1)


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

    cfg = AnalyticMeterConfig(noise_sigma=sigma)
    spec = PhenotypeSpec(
        (LayerSpec("dense", units=32, activation="sigmoid"),
         LayerSpec("dense", units=16, activation="relu")),
        aux_index=0, learning_rate=0.01, batch_size=32,
    )
    net = build(spec, input_dim=8, class_count=4, rng=np.random.default_rng(1))
    for rng_seed in (4, 9):
        meter = AnalyticMeter(cfg, np.random.default_rng(rng_seed))
        reference = np.random.default_rng(rng_seed)
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
    cfg = AnalyticMeterConfig(noise_sigma=sigma)
    meter = AnalyticMeter(cfg, np.random.default_rng(4))
    reference = np.random.default_rng(4)
    for macs in range(0, 200_000, 7):
        meter.observe(macs)
        result = measure_mean(meter, lambda: None, n_measures=1)
        assert result.samples[0].hex() == analytic_power(macs, cfg, reference).hex(), macs


def test_analytic_meter_skips_the_workload_but_keeps_every_window():
    cfg = AnalyticMeterConfig(noise_sigma=2.0)
    calls = []

    def work():
        calls.append(1)
        return "out"

    meter = AnalyticMeter(cfg, np.random.default_rng(4))
    meter.observe(1000)
    skipped = measure_mean(meter, work, n_measures=9)
    assert calls == [] and skipped.output is None
    assert len(skipped.samples) == 9

    forced = AnalyticMeter(cfg, np.random.default_rng(4))
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
    assert a == b and a[1] == 20 * 48 + 48 * 5


def test_probe_orders_by_module_size():
    small, small_macs = probe_module_power(dense_module(16), GRAMMAR, AnalyticMeter(), (20, 5),
                                           n_measures=3)
    big, big_macs = probe_module_power(dense_module(256), GRAMMAR, AnalyticMeter(), (20, 5),
                                       n_measures=3)
    assert big >= small and big_macs > small_macs


class ObservingMeter(AnalyticMeter):
    """An analytic meter that keeps every network it observes."""

    def __init__(self):
        super().__init__()
        self.observed = []

    def observe(self, subject):
        self.observed.append(subject)
        super().observe(subject)


def test_probe_reports_the_macs_of_its_network():
    meter = ObservingMeter()
    watts, macs = probe_module_power(dense_module(24), GRAMMAR, meter, (10, 3), n_measures=2)
    (net,) = meter.observed
    assert net.aux_head is None
    assert [l.fan_out for l in net.dense_layers()] == [24, 3]
    assert macs == count_macs(net) == 10 * 24 + 24 * 3
    assert watts == analytic_power(macs, AnalyticMeterConfig())


def test_probe_feeds_archive():
    archive = ModuleArchive()
    module = dense_module(32)
    watts, _ = probe_module_power(module, GRAMMAR, AnalyticMeter(), (12, 4), n_measures=3)
    archive_insert(archive, module, watts)
    assert len(archive) == 1
    assert archive.entries[0].power_watts == watts


class InputRecordingMeter(ScriptedMeter):
    """A scripted meter that runs the workload and keeps the input of
    every forward pass of the network it observes."""

    def __init__(self, readings):
        super().__init__(readings, cycle=True)
        self.inputs = []

    def observe(self, net):
        forward = net.forward

        def recorded(x, *args, **kwargs):
            self.inputs.append(x)
            return forward(x, *args, **kwargs)

        net.forward = recorded


def test_probe_draws_its_batch_only_for_a_meter_that_runs_the_workload():
    module = dense_module(24)
    scripted = InputRecordingMeter([(60000.0, 1.0)])
    assert probe_module_power(module, GRAMMAR, scripted, (20, 5), n_measures=3, seed=9) == (
        60.0, 20 * 24 + 24 * 5)
    # the batch the probe has always drawn after the weights, each window
    assert len(scripted.inputs) == 3 and all(x is scripted.inputs[0] for x in scripted.inputs)
    batch = scripted.inputs[0]
    assert batch.dtype == np.float32 and batch.shape == (128, 20)
    assert hashlib.sha256(batch.tobytes()).hexdigest()[:16] == "11140d9b79e4c05c"
    # the analytic meter never runs the workload, and reads what it did
    # when the probe drew a batch for it too
    analytic = probe_module_power(module, GRAMMAR, AnalyticMeter(), (20, 5), n_measures=3, seed=9)
    assert analytic == (48.96543538596236, 20 * 24 + 24 * 5)
    idx_shaped = probe_module_power(module, GRAMMAR, AnalyticMeter(), (784, 10), n_measures=3,
                                    seed=9)
    assert idx_shaped == (59.2107824697685, 784 * 24 + 24 * 10)
