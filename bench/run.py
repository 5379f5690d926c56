"""Replica-round benchmark of banditlab.

Usage, from the root of a checkout:

    python3 bench/run.py --workload finite-arm --seed 1 --seconds 30 --trace 0

Each experiment of the workload goes INI text -> harness.parse_config ->
harness.run_experiment -> harness.emit, repeated in passes until the
time is spent. With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics, whose times are scaled to reference
speed (see REF_LOOP_S); with --trace 1 untraced and traced passes
alternate and it carries the per-layer metrics. Lines before it
give the per-experiment digests, the failures and the machine record.
See bench/README.md for the metrics and the reasons for each workload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import metrics
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 9
# End-to-end times are reported at reference speed: as they would read on
# a machine where reference_loop() takes this many seconds.
REF_LOOP_S = 0.15
# Least seconds of measured work between two reference loops.
REF_EVERY_S = 0.5


class ProgramMissing(RuntimeError):
    pass


def import_program(root: Path = ROOT):
    """Import banditlab from the checkout's own src/, never from elsewhere."""
    src = root / "src"
    if not (src / "banditlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no banditlab sources under {src}")
    sys.path.insert(0, str(src))
    import banditlab

    if not Path(banditlab.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"banditlab was imported from {banditlab.__file__}, not {src}")
    return banditlab


@dataclass
class Outcome:
    """One experiment of one pass."""

    name: str  # the experiment's label, and its fixed seed if it has one
    experiment_s: float = 0.0  # parse_config to the last report written
    run_s: float = 0.0  # run_experiment alone
    digest: str = ""
    error: str = ""
    ref: int = 0  # index of the reference time taken last before it


def content_digest(report) -> str:
    text = json.dumps(report.content_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(harness, exp: workloads.Experiment, report, out_dir: Path) -> str:
    """Empty when the report keeps its asserted caps and every emitted file
    holds it; otherwise what is wrong."""
    violated = [name for name in harness.assert_bounds(report) if name in exp.asserted]
    if violated:
        return f"mean + 2 SEM exceeds {', '.join(violated)}"
    for fmt in exp.formats:
        text = (out_dir / f"{exp.name}.{fmt}").read_text()
        if fmt == "csv":
            rows = text.splitlines()
            if len(rows) != exp.horizon + 2 or \
                    float(rows[-1].split(",")[1]) != report.mean_terminal:
                return "csv report does not hold the regret curve"
        elif fmt == "json":
            if harness.RegretReport.from_dict(json.loads(text)).content_dict() \
                    != report.content_dict():
                return "json report does not round-trip"
        elif fmt == "svg" and not text.rstrip().endswith("</svg>"):
            return "svg report is truncated"
    return ""


def run_pass(harness, experiments, seed: int, out_dir: Path,
             tracer: Tracer | None = None, stick: Yardstick | None = None) -> list[Outcome]:
    """Every experiment once, through the public entry points only.

    Functions are looked up on the module at call time, so a traced pass
    goes through the tracer's wrappers; its spans are filed by experiment.
    """
    outcomes = []
    for exp in experiments:
        if tracer is not None:
            tracer.experiment = exp.name
        out = Outcome(exp.name, ref=stick.tick() if stick else 0)
        text = exp.ini(seed, str(out_dir))
        try:
            t0 = time.perf_counter()
            config = harness.parse_config(text)
            t1 = time.perf_counter()
            report = harness.run_experiment(config)
            t2 = time.perf_counter()
            for fmt in exp.formats:
                harness.emit(report, fmt, out_dir / f"{exp.name}.{fmt}")
            t3 = time.perf_counter()
            out.experiment_s, out.run_s = t3 - t0, t2 - t1
            out.digest = content_digest(report)
            out.error = check_report(harness, exp, report, out_dir)
        except Exception as exc:  # a failing experiment is counted, not fatal
            out.error = f"{type(exc).__name__}: {exc}"
        outcomes.append(out)
    return outcomes


class Ledger:
    """Outcomes of every pass, with the repeat-digest check."""

    def __init__(self, experiments):
        self.experiments = experiments
        self.passes: list[list[Outcome]] = []
        self.first_digest: dict[str, str] = {}

    def add(self, outcomes: list[Outcome]) -> None:
        for out in outcomes:
            if out.error:
                continue
            first = self.first_digest.setdefault(out.name, out.digest)
            if out.digest != first:
                out.error = "content digest differs from an earlier repeat"
        self.passes.append(outcomes)

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    @property
    def failures(self) -> list[Outcome]:
        return [o for p in self.passes for o in p if o.error]

    def us_by_label(self, outcomes: list[Outcome]) -> dict[str, float]:
        """Microseconds per replica-round of each experiment in one pass: the
        run_experiment time of the experiments with that label over their
        replica-rounds."""
        run_s: dict[str, float] = {}
        rounds: dict[str, int] = {}
        for exp, out in zip(self.experiments, outcomes):
            if not out.error:
                run_s[exp.label] = run_s.get(exp.label, 0.0) + out.run_s
                rounds[exp.label] = rounds.get(exp.label, 0) + exp.replica_rounds
        return {label: 1e6 * run_s[label] / rounds[label] for label in run_s}


def reference_loop() -> float:
    """Seconds for a fixed bandit-like loop, the machine-speed yardstick that
    the reported times are scaled by: exponential weights over 8 arms in
    small numpy calls, against an adversary that rereads the whole history
    of plays every 8th round. banditlab's rounds do both kinds of work."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=12345))
    scores = np.zeros(8)
    history = []
    t0 = time.perf_counter()
    for i in range(5000):
        p = np.exp(-0.01 * scores)
        p /= p.sum()
        arm = min(int(np.searchsorted(np.cumsum(p), rng.random())), 7)
        history.append(arm)
        if i % 8 == 0:
            scores[np.bincount(tuple(history), minlength=8).argmax()] += 1.0
    return time.perf_counter() - t0


class Yardstick:
    """Reference-loop times taken between units of measured work, whenever
    REF_EVERY_S have passed since the last one, so that each unit has one
    on either side.

    The machine's speed drifts by half within minutes on a shared host, and
    it slows a unit and the reference loops around it alike. A unit's time
    times REF_LOOP_S over the mean of its two neighbours is its time at
    reference speed, whatever the speed of the machine.
    """

    def __init__(self):
        self.refs = [reference_loop()]
        self.last = time.perf_counter()

    def tick(self) -> int:
        """Call before a unit of work; returns the index of the reference
        time that precedes it."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.close()
        return len(self.refs) - 1

    def close(self) -> None:
        """Take a reference time now; call once more after the last unit."""
        self.refs.append(reference_loop())
        self.last = time.perf_counter()

    def scale(self, ref: int) -> float:
        return 2 * REF_LOOP_S / (self.refs[ref] + self.refs[ref + 1])


def machine_record(ref_loop_s: float) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "ref_loop_s": ref_loop_s}


def setup_seconds(workload: str, seed: int) -> float:
    """`import banditlab` plus parsing the workload's configs in a fresh
    interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed), "--src", str(ROOT / "src")]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.split()[-1])


def keep_going(started: float, seconds: float, pass_s: float, done: int, least: int) -> bool:
    """Another pass fits in the budget, or fewer than `least` passes ran."""
    return done < least or time.perf_counter() - started + pass_s <= seconds


def timed_run(harness, workload: str, experiments, seed: int, seconds: float,
              out_dir: Path, ledger: Ledger, stick: Yardstick) -> tuple[dict, dict]:
    """End-to-end values at reference speed, and as measured.

    Each experiment and set-up probe is scaled to reference speed by the
    reference times on either side of it (see Yardstick); the medians are
    then taken over the run.
    """
    setup_seconds(workload, seed)  # compiles bytecode; not counted
    setup = []  # (reference index, seconds)
    started = time.perf_counter()
    pass_s = 0.0
    while keep_going(started, seconds, pass_s, len(ledger.passes), 3):
        t0 = time.perf_counter()
        if len(setup) < SETUP_REPEATS:  # spread over the run, between passes
            setup.append((stick.tick(), setup_seconds(workload, seed)))
        ledger.add(run_pass(harness, experiments, seed, out_dir, stick=stick))
        pass_s = time.perf_counter() - t0
    while len(setup) < SETUP_REPEATS:
        setup.append((stick.tick(), setup_seconds(workload, seed)))
    stick.close()

    def medians(passes, setup_s) -> dict:
        """Each experiment's median over the passes, summed over experiments;
        experiments that share a label share one replica-round cost."""
        run_s, rounds, experiment_s = {}, {}, 0.0
        for exp, outcomes in zip(experiments, zip(*passes)):
            done = [o for o in outcomes if not o.error]
            if done:
                run_s[exp.label] = run_s.get(exp.label, 0.0) + statistics.median(
                    o.run_s for o in done)
                rounds[exp.label] = rounds.get(exp.label, 0) + exp.replica_rounds
                experiment_s += statistics.median(o.experiment_s for o in done)
        return {"us_per_replica_round": sum(1e6 * run_s[k] / rounds[k] for k in run_s),
                "experiment_s": experiment_s, "setup_s": statistics.median(setup_s)}

    scaled = [[replace(o, run_s=o.run_s * stick.scale(o.ref),
                       experiment_s=o.experiment_s * stick.scale(o.ref)) for o in p]
              for p in ledger.passes]
    values = medians(scaled, [s * stick.scale(ref) for ref, s in setup])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, medians(ledger.passes, [s for _, s in setup])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def traced_run(banditlab, experiments, seed: int, seconds: float, out_dir: Path,
               ledger: Ledger, stick: Yardstick) -> dict:
    """Alternate untraced and traced passes; counts must repeat exactly.
    Takes a reference time after each pair, for the machine record only."""
    harness = banditlab.harness
    tracer = Tracer()
    untraced_s, traced_s, layers, replica_ms = [], [], [], []
    started = time.perf_counter()
    pair_s = 0.0
    while keep_going(started, seconds, pair_s, len(traced_s), 2):
        t0 = time.perf_counter()
        plain = run_pass(harness, experiments, seed, out_dir)
        ledger.add(plain)
        tracer.reset()
        with tracer.installed(banditlab):
            traced = run_pass(harness, experiments, seed, out_dir, tracer)
        ledger.add(traced)
        stick.close()
        pair_s = time.perf_counter() - t0
        untraced_s.append(sum(o.experiment_s for o in plain))
        traced_s.append(sum(o.experiment_s for o in traced))
        layers.append(metrics.span_metrics(tracer.stats, experiments))
        replica_ms += [1e3 * d for (_, name), s in tracer.stats.items()
                       if name == "harness.run_replica" for d in s.durations]
        changed = [n for n in metrics.COUNTS if layers[-1][n] != layers[0][n]]
        for outcome in traced:
            if changed and not outcome.error:
                outcome.error = f"counts differ between traced passes: {', '.join(changed)}"

    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out.update({name: layers[0][name] for name in metrics.COUNTS})
    out["harness.run_replica.p50_ms"] = percentile(replica_ms, 0.50)
    out["harness.run_replica.p90_ms"] = percentile(replica_ms, 0.90)
    # paired, so that a drift in machine speed between pairs cancels
    out["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_s, untraced_s))
    plain = [ledger.us_by_label(p) for p in ledger.passes[0::2]]
    for label in metrics.EXPERIMENT_LABELS:
        values = [us[label] for us in plain if label in us]
        out[f"experiment.{label}.us_per_replica_round"] = (
            statistics.median(values) if values else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        banditlab = import_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(run(banditlab, args.workload, args.seed, args.seconds, args.trace)))
    return 0


def run(banditlab, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload and print the record lines; returns the result."""
    experiments = workloads.WORKLOADS[workload]
    ledger = Ledger(experiments)
    stick = Yardstick()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        if trace:
            values = traced_run(banditlab, experiments, seed, seconds, Path(tmp), ledger,
                                stick)
        else:
            values, measured = timed_run(banditlab.harness, workload, experiments, seed,
                                         seconds, Path(tmp), ledger, stick)
    machine = machine_record(statistics.median(stick.refs))
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    if trace:
        values["machine.ref_loop_s"] = machine["ref_loop_s"]

    print(f"workload {workload} seed {seed} trace {trace}: {len(ledger.passes)} passes")
    for exp in experiments:
        print(f"  {exp.name:36s} {exp.horizon:>7d} rounds x {exp.replicas:<5d} "
              f"sha256 {ledger.first_digest.get(exp.name, '-')}")
    failures = ledger.failures
    for out in failures:
        print(f"  FAILED {out.name}: {out.error}")
    print(f"  failed_ratio {len(failures) / ledger.attempted:.6g} failed/attempted "
          f"({len(failures)} of {ledger.attempted} experiments)")
    print(f"  machine {json.dumps(machine)}")
    for name, unit, better in declared:
        print(f"  {name} {values[name]:.6g} {unit} ({better} is better)")
    if not trace:
        print("  as measured: " + ", ".join(
            f"{name} {measured[name]:.6g} {unit}" for name, unit, _ in declared
            if name in measured))
    return {
        "correct": not failures,
        "attempted": ledger.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in declared},
    }


if __name__ == "__main__":
    sys.exit(main())
