"""evopower benchmark: end-to-end experiment timings and per-layer traces.

One client runs one repetition at a time (a closed loop).  A repetition
is a fresh process (``rep.py``) that parses ``configs/desk.cfg`` with the
workload's overrides, loads the grammar and the dataset, and calls
``run_experiment``, as ``evopower evolve`` does.  BLAS keeps its default
thread count, which the machine line records.

    python3 perfbench/run.py --workload desk-proposed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                      # every workload, traced and not
    python3 perfbench/run.py --smoke --seconds 1  # seconds-long check of the harness

``--trace 0`` times untraced repetitions for ``--seconds`` (at least two,
plus set-up-only processes for the median ``setup_s``) and reports the
``end_to_end`` metrics of BENCHMARK.json.  ``--trace 1`` runs one
untraced and one traced repetition and reports the ``per_layer`` metrics,
including the tracing overhead.  Every repetition's outputs are checked;
all repetitions of a workload at one seed must write byte-identical CSVs.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, overrides

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_ONLY_REPS = 3
MIN_REPS = 2
# every run must end well inside the 180 s a run is allowed
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


@dataclass
class Rep:
    tag: str
    report: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    disk_mb: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors


def _csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _disk_mb(out: Path) -> float:
    """Bytes the experiment left behind, without the winner's weight dump:
    its size is set by which architecture won, not by the engine."""
    files = [p for p in out.rglob("*") if p.is_file() and p.name != "best_weights.bin"]
    return sum(p.stat().st_size for p in files) / 1e6


def spawn(workload: Workload, flat: dict[str, str], run_dir: Path, tag: str, deadline: float,
          trace: bool = False, setup_only: bool = False) -> Rep:
    out = run_dir / tag
    spec = {
        "root": str(ROOT),
        "flat": flat,
        "mode": workload.mode,
        "out": str(out),
        "report": str(run_dir / f"{tag}.json"),
        "trace": trace,
        "setup_only": setup_only,
        "expects_probes": workload.expects_probes,
    }
    rep = Rep(tag)
    try:
        spec["t0"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        rep.errors.append(f"{tag}: timed out")
        return rep
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        rep.errors.append(f"{tag}: exit status {proc.returncode}: {tail[0]}")
        sys.stderr.write(proc.stderr)
        return rep
    rep.report = json.loads(Path(spec["report"]).read_text())
    rep.errors.extend(f"{tag}: {f}" for f in rep.report.get("failures", []))
    if not setup_only:
        rep.digest = _csv_digest(out)
        rep.disk_mb = _disk_mb(out)
        shutil.rmtree(out)
    return rep


def check_digests(reps: list[Rep]) -> None:
    """Every repetition at one seed must write the same CSV bytes; the
    ones that differ from the first are failures."""
    done = [r for r in reps if r.ok]
    for r in done[1:]:
        if r.digest != done[0].digest:
            r.errors.append("CSVs differ from the first repetition at this seed")


def measure(workload: Workload, flat: dict, run_dir: Path, seconds: float,
            setup_reps: int, deadline: float) -> tuple[list[Rep], dict]:
    start = time.monotonic()
    setups = [
        spawn(workload, flat, run_dir, f"setup{i}", deadline, setup_only=True)
        for i in range(setup_reps)
    ]
    reps: list[Rep] = []
    last = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        if deadline - t < 1.0:
            break
        reps.append(spawn(workload, flat, run_dir, f"rep{len(reps)}", deadline))
        last = time.monotonic() - t
    check_digests(reps)
    good = [r.report for r in reps if r.ok]
    if not good:
        raise BenchError("no repetition finished")
    med = statistics.median
    metrics = {
        "wall_s": med(r["wall_s"] for r in good),
        "evals_per_s": med(r["evaluations"] / r["wall_s"] for r in good),
        "setup_s": med(r.report["setup_s"] for r in setups + reps if r.ok),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in good),
        "disk_mb": med(r.disk_mb for r in reps if r.ok),
        "ok_share": sum(r.ok for r in setups + reps) / len(setups + reps),
    }
    return setups + reps, metrics


def trace(workload: Workload, flat: dict, run_dir: Path, deadline: float) -> tuple[list[Rep], dict]:
    plain = spawn(workload, flat, run_dir, "untraced", deadline)
    traced = spawn(workload, flat, run_dir, "traced", deadline, trace=True)
    reps = [plain, traced]
    check_digests(reps)
    if not (plain.ok and traced.ok):
        raise BenchError("; ".join(plain.errors + traced.errors))
    metrics = dict(traced.report["layers"])
    for key in ("setup.import_s", "config.load_s", "grammar.load_s", "data.load_s"):
        metrics[key] = statistics.median(r.report[key] for r in reps)
    metrics["process.cpu_s"] = plain.report["process.cpu_s"]
    metrics["trace.overhead_s"] = traced.report["wall_s"] - plain.report["wall_s"]
    return reps, metrics


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 smoke: bool, spec: dict) -> dict:
    """Print one workload's metrics, checks and machine, and return the
    result object the last stdout line carries."""
    if not all((ROOT / p).is_file() for p in ("configs/desk.cfg", "src/evopower/evolution.py")):
        raise BenchError(f"{ROOT} holds no evopower source tree")
    flat = overrides(workload, seed, smoke)
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        if traced:
            reps, metrics = trace(workload, flat, run_dir, deadline)
        else:
            setup_reps = 1 if smoke else SETUP_ONLY_REPS
            reps, metrics = measure(workload, flat, run_dir, seconds, setup_reps, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = sorted({m["name"] for m in wanted} - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print(f"# workload {workload.name} seed {seed} trace {int(traced)}: {workload.why}")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    for r in reps:
        if "wall_s" in r.report:
            print(f"info {r.tag}: wall_s = {r.report['wall_s']!r} s, "
                  f"evaluations = {r.report['evaluations']}")
    failed = [r for r in reps if not r.ok]
    for r in failed:
        for err in r.errors:
            print(f"check FAILED: {err}")
    print(f"checks: {len(reps) - len(failed)}/{len(reps)} repetitions passed")
    done = next(r.report for r in reps if r.ok and "wall_s" in r.report)
    print(f"info best_fitness = {done['best_fitness']!r}")
    print(f"info best_power_left_w = {done['best_power_left_w']!r}")
    print(f"machine {json.dumps(done['machine'], sort_keys=True)}")
    return {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per untraced run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a one-generation toy run")
    args = parser.parse_args(argv)
    # a terminated run still kills its repetition process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    try:
        for name in names:
            for traced in modes:
                results[f"{name}/trace{int(traced)}"] = run_workload(
                    WORKLOADS[name], args.seed, seconds, traced, args.smoke, spec
                )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "runs": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
