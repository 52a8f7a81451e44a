"""Fitness functions over the two partitions' accuracy and power.

Three power-aware forms plus the plain accuracy baseline:

    f1 = min(T_l, acc_left) + min(T_r, acc_right) + 1 / power_left
    f2 = min(T_l, acc_left) + min(T_r, acc_right) + w / power_left
    f3 = acc_left + acc_right                      while both accuracies
                                                   are at or below their
                                                   thresholds,
       = acc_left + acc_right + w / power_left     once either exceeds it

with default thresholds T_l = 0.80, T_r = 0.85 and weight w = 10.  The
right-partition threshold is deliberately the higher one.  The weight is
tied to the dynamic range of the measured device and is configurable;
with draws in the tens of watts a weight of 10 keeps the power term
comparable to a few accuracy points.

Failed evaluations map to ``WORST_FITNESS`` (negative infinity), which
compares below every finite value, rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

WORST_FITNESS = float("-inf")

DEFAULT_THRESHOLD_LEFT = 0.80
DEFAULT_THRESHOLD_RIGHT = 0.85
DEFAULT_POWER_WEIGHT = 10.0

KINDS = ("accuracy", "f1", "f2", "f3")


@dataclass
class FitnessConfig:
    kind: str = "f3"
    threshold_left: float = DEFAULT_THRESHOLD_LEFT
    threshold_right: float = DEFAULT_THRESHOLD_RIGHT
    power_weight: float = DEFAULT_POWER_WEIGHT

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"fitness kind must be one of {KINDS}, got {self.kind!r}")
        for name, t in (("threshold_left", self.threshold_left),
                        ("threshold_right", self.threshold_right)):
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {t}")
        if not self.power_weight >= 0:
            raise ConfigError(f"power_weight must be >= 0, got {self.power_weight}")


def _check_power(power_left: float) -> None:
    if power_left <= 0:
        raise ValueError(f"power_left must be positive, got {power_left}")


def fitness_f1(
    acc_left: float,
    acc_right: float,
    power_left: float,
    threshold_left: float = DEFAULT_THRESHOLD_LEFT,
    threshold_right: float = DEFAULT_THRESHOLD_RIGHT,
) -> float:
    """Capped accuracies plus an unweighted inverse-power reward."""
    _check_power(power_left)
    return min(threshold_left, acc_left) + min(threshold_right, acc_right) + 1.0 / power_left


def fitness_f2(
    acc_left: float,
    acc_right: float,
    power_left: float,
    threshold_left: float = DEFAULT_THRESHOLD_LEFT,
    threshold_right: float = DEFAULT_THRESHOLD_RIGHT,
    power_weight: float = DEFAULT_POWER_WEIGHT,
) -> float:
    """As f1 with the inverse-power term scaled by ``power_weight``."""
    _check_power(power_left)
    return (
        min(threshold_left, acc_left)
        + min(threshold_right, acc_right)
        + power_weight / power_left
    )


def fitness_f3(
    acc_left: float,
    acc_right: float,
    power_left: float,
    threshold_left: float = DEFAULT_THRESHOLD_LEFT,
    threshold_right: float = DEFAULT_THRESHOLD_RIGHT,
    power_weight: float = DEFAULT_POWER_WEIGHT,
) -> float:
    """Pure accuracy until either partition clears its threshold, then the
    power reward switches on."""
    _check_power(power_left)
    total = acc_left + acc_right
    if acc_left <= threshold_left and acc_right <= threshold_right:
        return total
    return total + power_weight / power_left


def fitness_accuracy(acc: float) -> float:
    """Identity on the main-head accuracy; the baseline objective."""
    return acc


def evaluate_fitness(cfg: FitnessConfig, acc_left: float, acc_right: float, power_left: float) -> float:
    """Dispatch on ``cfg.kind``; the baseline uses the left accuracy only."""
    cfg.validate()
    if cfg.kind == "accuracy":
        return fitness_accuracy(acc_left)
    if cfg.kind == "f1":
        return fitness_f1(acc_left, acc_right, power_left, cfg.threshold_left, cfg.threshold_right)
    if cfg.kind == "f2":
        return fitness_f2(
            acc_left, acc_right, power_left,
            cfg.threshold_left, cfg.threshold_right, cfg.power_weight,
        )
    return fitness_f3(
        acc_left, acc_right, power_left,
        cfg.threshold_left, cfg.threshold_right, cfg.power_weight,
    )
