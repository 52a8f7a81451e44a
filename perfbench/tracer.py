"""Spans at the points where ``evopower.evolution`` calls into each layer.

The engine imports its collaborators by name (``from .network import
train``), so replacing those names on the ``evolution`` module records
every call the engine makes into a layer, and none of the calls layers
make among themselves.  Spans stay in memory; ``metrics()`` folds them
into per-layer totals once the experiment has finished.

A wrapped name that no longer exists raises :class:`TraceError` at
install time, and so does an expected span that never fired: a refactor
should break the trace rather than silently report a layer as idle.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import dataclass

# name on evopower.evolution -> layer it belongs to
WRAPPED = {
    "init_individual": "genome",
    "to_phenotype": "genome",
    "build": "network",
    "train": "network",
    "split": "network",
    "evaluate_accuracy": "network",
    "measure_mean": "power",
    "probe_module_power": "power",
    "mutate": "mutation",
    "archive_insert": "mutation",
    "evaluate_fitness": "fitness",
    "write_rows_csv": "evolution",
}
ROOT_SPAN = "run_experiment"
PROBE_SPANS = ("probe_module_power", "archive_insert")
# the tail percentile is the highest of these with >= TAIL_MIN samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN = 10


class TraceError(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    evaluation: int | None  # index into Tracer.evaluations


@dataclass
class Evaluation:
    individual: int  # id of the individual whose to_phenotype call opened it
    seconds: float = 0.0
    pending_meters: int = 0
    done: bool = False


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile with at least
    TAIL_MIN samples above it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = int(pct / 100.0 * n)
        if n - rank >= TAIL_MIN or pct == TAIL_PERCENTILES[-1]:
            return pct, ordered[min(rank, n - 1)]
    raise AssertionError("unreachable")


class Tracer:
    """Records spans on ``module``, normally ``evopower.evolution``.

    ``count_macs`` and ``diverged_error`` are the network layer's MAC
    counter and divergence exception; they are passed in so that tests
    can trace a fake engine.
    """

    def __init__(self, module, max_train_budget: float, count_macs, diverged_error):
        self.module = module
        self.max_train_budget = max_train_budget
        self.count_macs = count_macs
        self.diverged_error = diverged_error
        self.spans: list[Span] = []
        self.evaluations: list[Evaluation] = []
        self._originals: dict = {}
        self._stack: list[int] = []
        self._current: int | None = None  # evaluation being trained
        self._meter_queue: deque[int] = deque()  # trained, awaiting their two meterings
        self._last_metered: int | None = None
        self.train_samples = 0
        self.train_macs = 0
        self.diverged = 0
        self.windows = 0
        self.children = 0
        self.noop_children = 0

    def install(self) -> None:
        for name in (ROOT_SPAN, *WRAPPED):
            if not callable(getattr(self.module, name, None)):
                raise TraceError(f"{self.module.__name__}.{name} no longer exists; update the tracer")
        for name in (ROOT_SPAN, *WRAPPED):
            original = getattr(self.module, name)
            self._originals[name] = original
            setattr(self.module, name, self._wrap(name, original))

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(self.module, name, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            evaluation = self._before(name, args)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, evaluation)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.diverged_error:
                # only train raises it; the engine scores the individual as diverged
                self.diverged += 1
                self.evaluations[evaluation].done = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if evaluation is not None:
                    self.evaluations[evaluation].seconds += span.end - span.start
            self._after(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _before(self, name: str, args) -> int | None:
        """Which evaluation a span belongs to.  With one worker the
        engine trains a generation's slots in order and then meters them
        in the same order, so a FIFO of trained evaluations pairs each
        measure_mean call with the individual it meters."""
        if name == "to_phenotype":
            self.evaluations.append(Evaluation(individual=int(args[0].id)))
            self._current = len(self.evaluations) - 1
            return self._current
        if name in ("build", "train", "split", "evaluate_accuracy"):
            return self._current
        if name == "measure_mean":
            if not self._meter_queue:
                raise TraceError("measure_mean called with no trained evaluation waiting")
            return self._meter_queue[0]
        if name == "evaluate_fitness":
            return self._last_metered
        return None

    def _after(self, name: str, args, kwargs, result) -> None:
        if name == "train":
            samples = int(result.epochs_run) * int(args[1].shape[0])
            self.train_samples += samples
            self.train_macs += self.count_macs(args[0]) * samples
        elif name == "split":
            self.evaluations[self._current].pending_meters = 2
            self._meter_queue.append(self._current)
        elif name == "measure_mean":
            self.windows += int(args[2] if len(args) > 2 else kwargs["n_measures"])
            head = self.evaluations[self._meter_queue[0]]
            head.pending_meters -= 1
            if head.pending_meters == 0:
                head.done = True
                self._last_metered = self._meter_queue.popleft()
        elif name == "mutate":
            parent, child = args[0], result
            self.children += 1
            same_budget = min(child.train_budget, self.max_train_budget) == parent.train_budget
            if same_budget and child.genotype_key() == parent.genotype_key():
                self.noop_children += 1

    # ------------------------------------------------------------ results

    def totals(self) -> dict[str, tuple[float, int]]:
        out = {name: (0.0, 0) for name in (ROOT_SPAN, *WRAPPED)}
        for span in self.spans:
            seconds, calls = out[span.name]
            out[span.name] = (seconds + span.end - span.start, calls + 1)
        return out

    def check(self, evaluations: int, expects_probes: bool) -> None:
        """Fail when a span that must fire never did, or when the
        evaluation attribution disagrees with the engine's own count."""
        totals = self.totals()
        expected = [n for n in (ROOT_SPAN, *WRAPPED) if expects_probes or n not in PROBE_SPANS]
        idle = [n for n in expected if totals[n][1] == 0]
        if idle:
            raise TraceError(f"expected spans recorded no calls: {idle}")
        done = sum(e.done for e in self.evaluations)
        if done != evaluations:
            raise TraceError(f"traced {done} evaluations, the engine counted {evaluations}")

    def metrics(self) -> dict[str, float]:
        totals = self.totals()
        out = {}
        for name, layer in WRAPPED.items():
            out[f"{layer}.{name}.s"], out[f"{layer}.{name}.calls"] = totals[name]
        children = sum(
            span.end - span.start for span in self.spans if span.parent is not None
        )
        eval_times = [e.seconds for e in self.evaluations if e.done]
        tail_pct, tail = tail_percentile(eval_times)
        train_s, meter_s = totals["train"][0], totals["measure_mean"][0]
        return {
            **out,
            "network.train.samples": self.train_samples,
            "network.train.us_per_sample": 1e6 * train_s / max(self.train_samples, 1),
            "network.train.gmacs_per_s": 3 * self.train_macs / max(train_s, 1e-12) / 1e9,
            "network.train.diverged": self.diverged,
            "power.measure_mean.windows": self.windows,
            "power.measure_mean.us_per_window": 1e6 * meter_s / max(self.windows, 1),
            "mutation.mutate.noop_share": self.noop_children / max(self.children, 1),
            "mutation.mutate.noop_base": self.children,
            "evolution.self_s": totals[ROOT_SPAN][0] - children,
            "evolution.eval_s.p50": statistics.median(eval_times),
            "evolution.eval_s.tail": tail,
            "evolution.eval_s.tail_pct": tail_pct,
            "evolution.eval_s.count": len(eval_times),
        }
