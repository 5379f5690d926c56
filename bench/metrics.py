"""Names, units and directions of the benchmark's metrics, and the per-layer
numbers derived from one traced pass.

BENCHMARK.json lists the same names, units and directions; the bounds of
the end-to-end metrics live only there.
"""
from __future__ import annotations

from tracer import DUAL_EVALS
from workloads import WORKLOADS

# (name, unit, better); reported with tracing off
END_TO_END = [
    ("us_per_replica_round", "us", "lower"),
    ("experiment_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

EXPERIMENT_LABELS = list(dict.fromkeys(
    e.label for experiments in WORKLOADS.values() for e in experiments))

_SELF_S = [
    "harness.parse_config", "harness.build_environment", "harness.run_replica",
    "harness.run_experiment", "harness.compute_overlay",
    "harness.emit.csv", "harness.emit.json", "harness.emit.svg",
    "env.derive_stream", "env.sample_categorical", "env.StochasticEnv.sample_reward",
    "env.NonObliviousAdversary.loss_vector",
    "stochastic.UcbState.select", "stochastic.UcbState.update",
    "adversarial.Exp3State.select", "adversarial.Exp3State.update",
    "adversarial.importance_loss_estimate",
    "mirror.OsmdMsets.select", "mirror.OsmdMsets.update", "mirror.omd_step",
    "mirror.semibandit_estimate", "mirror.Exp2State.init", "mirror.Exp2State.select",
    "mirror.Exp2State.update",
    "geometry.project_capped_simplex_potential", "geometry.project_capped_simplex_negent",
    "geometry.madow_sample", "geometry.doptimal_design",
    "convex.run_sgs",
]
_CALLS = [
    "harness.run_replica", "env.derive_stream", "env.sample_categorical",
    "geometry.project_capped_simplex_potential", "geometry.doptimal_design",
]

# (name, unit, better); reported by the traced run
PER_LAYER = (
    [(f"{span}.self_s", "s", "lower") for span in _SELF_S]
    + [(f"{span}.calls", "count", "lower") for span in _CALLS]
    + [
        ("harness.run_replica.p50_ms", "ms", "lower"),
        ("harness.run_replica.p90_ms", "ms", "lower"),
        ("env.NonObliviousAdversary.loss_vector.growth", "ratio", "lower"),
        ("adversarial.exp_weights.calls_per_round", "calls/round", "lower"),
        ("geometry.project_capped_simplex_potential.dual_evals_per_call", "evals/call",
         "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("machine.ref_loop_s", "s", "lower"),
    ]
    + [(f"experiment.{label}.us_per_replica_round", "us", "lower")
       for label in EXPERIMENT_LABELS]
)

# per-pass counts: a traced pass of the same seed must repeat them exactly
COUNTS = [f"{span}.calls" for span in _CALLS] + [
    "adversarial.exp_weights.calls_per_round",
    "geometry.project_capped_simplex_potential.dual_evals_per_call",
]


def span_metrics(stats: dict, experiments) -> dict:
    """Self times, counts and ratios of one traced pass over `experiments`.

    `stats` maps (experiment name, span name) to a tracer.SpanStat.
    """

    def total(span: str, field: str) -> float:
        return sum(getattr(s, field) for (_, name), s in stats.items() if name == span)

    out = {f"{span}.self_s": total(span, "self_s") for span in _SELF_S}
    out.update({f"{span}.calls": total(span, "calls") for span in _CALLS})

    # exp_weights calls per replica-round, over the experiments that call it
    weighted = [(stats[(e.name, "adversarial.exp_weights")].calls, e.replica_rounds)
                for e in experiments if (e.name, "adversarial.exp_weights") in stats]
    rounds = sum(r for _, r in weighted)
    out["adversarial.exp_weights.calls_per_round"] = (
        sum(c for c, _ in weighted) / rounds if rounds else 0.0)

    projections = total("geometry.project_capped_simplex_potential", "calls")
    out["geometry.project_capped_simplex_potential.dual_evals_per_call"] = (
        total(DUAL_EVALS, "calls") / projections if projections else 0.0)

    # per-call time in the last tenth of each replica's rounds over the first tenth
    first = last = 0.0
    for e in experiments:
        stat = stats.get((e.name, "env.NonObliviousAdversary.loss_vector"))
        tenth = e.horizon // 10
        if stat is None or tenth == 0:
            continue
        for r in range(e.replicas):
            calls = stat.durations[r * e.horizon:(r + 1) * e.horizon]
            first += sum(calls[:tenth])
            last += sum(calls[-tenth:])
    out["env.NonObliviousAdversary.loss_vector.growth"] = last / first if first else 0.0
    return out
