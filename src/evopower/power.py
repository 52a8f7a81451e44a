"""Power measurement: meter contract, measurement loop, module probe.

Meters expose ``start() / stop() / read()``, where ``read`` reports the
energy in millijoules and the duration in seconds for the last start/stop
window.  The measurement loop takes ``n_measures`` windows and converts
each to watts::

    watts = millijoules / (1000 * seconds)

returning all samples and their mean.  A meter that reads real telemetry
needs the workload running inside each window, so the loop runs it once
per window and also returns its last output.  A meter that models power
from the network it observed sets ``runs_workload = False``; the loop
then takes the same windows without running the workload.  Real
telemetry stays behind the contract; this package ships two
implementations:

* :class:`ScriptedMeter` replays a fixed list of readings and enforces
  the protocol strictly (useful in tests);
* :class:`AnalyticMeter` models a device whose draw grows with the
  per-sample multiply-accumulate count of the measured network,
  ``P = clamp(p_min + k * log1p(macs), p_min, p_max)`` plus optional
  truncated Gaussian noise.  The default coefficient ``k`` places a
  784-input, three-by-128-unit, ten-class reference stack near 65 W,
  mid-band of a typical [30, 100] W desktop GPU envelope.

The analytic meter learns what it is measuring through ``observe``,
a no-op on the base contract, called by the evaluation pipeline with the
network about to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MeasurementError
from .genome import ModuleGene, module_layer_specs
from .grammar import Grammar
from .network import Network, build_stack, count_macs

DEFAULT_N_MEASURES = 30
DEFAULT_P_MIN_W = 30.0
DEFAULT_P_MAX_W = 100.0
# 30 + k * log1p(134400 macs) = 65 for the reference stack above
DEFAULT_K = 2.964
NOISE_TRUNCATION_SIGMAS = 6.0
# the analytic meter's window: W watts for WINDOW_S seconds is W millijoules
WINDOW_S = 0.001


class Meter:
    """Measurement contract; subclasses implement the three-call protocol.

    ``runs_workload`` says whether a window's reading depends on the
    workload running inside it (true for real telemetry).  Meters that
    compute the draw from what :meth:`observe` told them set it false.
    """

    runs_workload = True

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def read(self) -> tuple[float, float]:
        """(energy in millijoules, duration in seconds) for the last window."""
        raise NotImplementedError

    def observe(self, subject) -> None:
        """Hint describing the workload about to run; ignored by default."""


@dataclass
class MeasureResult:
    output: object
    samples: list[float]
    mean_watts: float


def measure_mean(meter: Meter, work, n_measures: int = DEFAULT_N_MEASURES) -> MeasureResult:
    """Take n_measures meter windows, running ``work`` inside each one
    when the meter reads the workload (``meter.runs_workload``).

    Returns the last output of ``work`` (None when the meter skips it) and
    the per-window watt samples with their mean.  Zero or negative
    durations and negative energies are meter faults.
    """
    if n_measures < 1:
        raise ValueError(f"n_measures must be >= 1, got {n_measures}")
    samples = []
    output = None
    for _ in range(n_measures):
        meter.start()
        if meter.runs_workload:
            output = work()
        meter.stop()
        millijoules, seconds = meter.read()
        if seconds <= 0:
            raise MeasurementError(f"meter reported non-positive duration {seconds}")
        if millijoules < 0:
            raise MeasurementError(f"meter reported negative energy {millijoules}")
        samples.append(millijoules / (1000.0 * seconds))
    return MeasureResult(output, samples, float(np.mean(samples)))


class ScriptedMeter(Meter):
    """Replays canned (millijoules, seconds) readings; strict protocol.

    With ``cycle=True`` the script repeats instead of exhausting, which
    keeps long smoke runs simple.
    """

    def __init__(self, readings: list[tuple[float, float]], cycle: bool = False):
        if not readings:
            raise ConfigError("scripted meter needs at least one reading")
        self.readings = list(readings)
        self.cycle = cycle
        self._cursor = 0
        self._state = "idle"  # idle -> running -> ready
        self.start_count = 0

    def start(self) -> None:
        if self._state == "running":
            raise MeasurementError("start() while already measuring")
        self._state = "running"
        self.start_count += 1

    def stop(self) -> None:
        if self._state != "running":
            raise MeasurementError("stop() without start()")
        self._state = "ready"

    def read(self) -> tuple[float, float]:
        if self._state != "ready":
            raise MeasurementError("read() before a start/stop pair completed")
        if self._cursor >= len(self.readings):
            if not self.cycle:
                raise MeasurementError(f"scripted meter exhausted after {len(self.readings)} readings")
            self._cursor = 0
        value = self.readings[self._cursor]
        self._cursor += 1
        self._state = "idle"
        return value


@dataclass
class AnalyticMeterConfig:
    p_min: float = DEFAULT_P_MIN_W
    p_max: float = DEFAULT_P_MAX_W
    k: float = DEFAULT_K
    noise_sigma: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.p_min < self.p_max:
            raise ConfigError(f"need 0 <= p_min < p_max, got [{self.p_min}, {self.p_max}]")
        if not self.k > 0:
            raise ConfigError(f"k must be positive, got {self.k}")
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def _subject_macs(subject) -> int:
    if isinstance(subject, Network):
        return count_macs(subject)
    if isinstance(subject, (int, np.integer)):
        if subject < 0:
            raise MeasurementError(f"negative MAC count {subject}")
        return int(subject)
    raise MeasurementError(f"cannot derive a MAC count from {type(subject).__name__}")


def analytic_power(subject, cfg: AnalyticMeterConfig, rng: np.random.Generator | None = None) -> float:
    """Modeled draw for a network or raw MAC count.

    Deterministic when ``noise_sigma`` is 0; otherwise adds Gaussian noise
    truncated at six sigmas and floor-clamped at ``p_min``, so the result
    always lies in ``[p_min, p_max + 6 * sigma]``.
    """
    cfg.validate()
    return _add_noise(_noiseless_power(_subject_macs(subject), cfg), cfg, rng)


def _noiseless_power(macs: int, cfg: AnalyticMeterConfig) -> float:
    return min(max(cfg.p_min + cfg.k * np.log1p(macs), cfg.p_min), cfg.p_max)


def _add_noise(base: float, cfg: AnalyticMeterConfig, rng: np.random.Generator | None) -> float:
    """One draw around ``base``; ``rng`` is untouched when noise is off."""
    if cfg.noise_sigma == 0.0:
        return float(base)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    cap = NOISE_TRUNCATION_SIGMAS * cfg.noise_sigma
    noise = float(np.clip(rng.normal(0.0, cfg.noise_sigma), -cap, cap))
    return float(max(cfg.p_min, base + noise))


class AnalyticMeter(Meter):
    """Deterministic (or seeded-noise) stand-in for device telemetry.

    Reports a synthetic one-millisecond window whose energy in
    millijoules is the modeled draw of the last observed network in
    watts.  ``1000.0 * 0.001`` is exactly 1.0, so :func:`measure_mean`
    returns that draw bit for bit, with or without noise.  The reading
    never depends on the workload, so :func:`measure_mean` does not run
    it.  Each read equals :func:`analytic_power` of the observed network
    with this meter's generator; the noiseless part is computed once per
    :meth:`observe`.
    """

    runs_workload = False

    def __init__(self, cfg: AnalyticMeterConfig | None = None, rng: np.random.Generator | None = None):
        self.cfg = cfg or AnalyticMeterConfig()
        self.cfg.validate()
        if rng is None and self.cfg.noise_sigma > 0:
            rng = np.random.default_rng(self.cfg.seed)
        self._rng = rng  # None only when noise is off and reads never draw
        self._base = _noiseless_power(0, self.cfg)
        self._state = "idle"

    def observe(self, subject) -> None:
        self._base = _noiseless_power(_subject_macs(subject), self.cfg)

    def start(self) -> None:
        if self._state == "running":
            raise MeasurementError("start() while already measuring")
        self._state = "running"

    def stop(self) -> None:
        if self._state != "running":
            raise MeasurementError("stop() without start()")
        self._state = "ready"

    def read(self) -> tuple[float, float]:
        if self._state != "ready":
            raise MeasurementError("read() before a start/stop pair completed")
        self._state = "idle"
        return _add_noise(self._base, self.cfg, self._rng), WINDOW_S


def build_probe_network(
    module: ModuleGene,
    grammar: Grammar,
    input_dim: int,
    class_count: int,
    rng: np.random.Generator,
) -> Network:
    """Input layer, the module's layers, and a softmax output head."""
    return build_stack(module_layer_specs(module, grammar), input_dim, class_count, rng)


def probe_module_power(
    module: ModuleGene,
    grammar: Grammar,
    meter: Meter,
    io_shape: tuple[int, int],
    n_measures: int = DEFAULT_N_MEASURES,
    batch_size: int = 128,
    seed: int = 0,
) -> float:
    """Measure a module in isolation on random inputs; the temporary
    network is discarded afterwards."""
    input_dim, class_count = io_shape
    rng = np.random.default_rng(seed)
    net = build_probe_network(module, grammar, input_dim, class_count, rng)
    batch = rng.random((batch_size, input_dim)).astype(net.dtype)
    meter.observe(net)
    result = measure_mean(meter, lambda: net.forward(batch), n_measures)
    return result.mean_watts
