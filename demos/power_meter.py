"""
Measuring watts without a wattmeter
===================================

The measurement protocol is three calls: start, run the workload, stop,
then read back (millijoules, seconds).  A scripted meter replays canned
readings for tests; the analytic meter maps a model's per-sample MAC
count into a bounded watt range so desk runs behave like telemetry.
Its reading depends only on the observed network, so ``measure_mean``
takes its windows without running the workload inside them.
"""

import numpy as np

from evopower.genome import LayerSpec, PhenotypeSpec
from evopower.network import build, count_macs
from evopower.power import (
    AnalyticMeter,
    AnalyticMeterConfig,
    ScriptedMeter,
    measure_mean,
)

# watts = mJ / (1000 * s), one reading per window
meter = ScriptedMeter([(5000.0, 0.5), (1000.0, 1.0), (1500.0, 0.25)])
res = measure_mean(meter, work=lambda: None, n_measures=3)
print("scripted watts:", res.samples, " mean %.3f W" % res.mean_watts)

# the analytic meter needs to see the workload before measuring; watts
# grow with log(1 + MACs) between the idle floor and the cap
cfg = AnalyticMeterConfig(noise_sigma=0.0)
meter = AnalyticMeter(cfg)
rng = np.random.default_rng(3)
for units in (16, 64, 256):
    spec = PhenotypeSpec(
        (LayerSpec("dense", units, "relu"), LayerSpec("dense", units, "relu")),
        0, 0.05, 32,
    )
    net = build(spec, input_dim=32, class_count=10, rng=rng)
    meter.observe(net)
    res = measure_mean(meter, work=lambda: None, n_measures=5)
    print("units %3d -> %6d MACs -> %.2f W" % (units, count_macs(net), res.mean_watts))

# with noise enabled the readings scatter around the analytic value; the
# noise comes from the generator the caller passes, which a noisy meter needs
noisy = AnalyticMeter(AnalyticMeterConfig(noise_sigma=2.0), rng=np.random.default_rng(11))
noisy.observe(net)
res = measure_mean(noisy, work=lambda: None, n_measures=8)
print("noisy samples:", ["%.1f" % w for w in res.samples])
