"""Span tracing of banditlab's modules from outside the package.

`Tracer.installed()` wraps the public functions and methods listed in
TARGETS for the duration of a `with` block and restores every patched
attribute on exit. A function is patched under every name a banditlab
module binds it to, because modules import helpers such as
`derive_stream` or `madow_sample` by name and call them through their
own globals. Methods are patched on the class that defines them.

Spans are aggregated in memory by (experiment, span name): call count,
self time (the span's time minus the time covered by its child spans) and,
for a few spans, the per-call durations.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name); the span name of harness.emit
# carries the report format, its second argument.
TARGETS = [
    ("harness", "parse_config", "harness.parse_config"),
    ("harness", "build_environment", "harness.build_environment"),
    ("harness", "run_replica", "harness.run_replica"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "compute_overlay", "harness.compute_overlay"),
    ("harness", "emit", "harness.emit"),
    ("env", "derive_stream", "env.derive_stream"),
    ("env", "sample_categorical", "env.sample_categorical"),
    ("env", "StochasticEnv.sample_reward", "env.StochasticEnv.sample_reward"),
    ("env", "NonObliviousAdversary.loss_vector", "env.NonObliviousAdversary.loss_vector"),
    ("stochastic", "UcbState.select", "stochastic.UcbState.select"),
    ("stochastic", "UcbState.update", "stochastic.UcbState.update"),
    ("adversarial", "Exp3State.select", "adversarial.Exp3State.select"),
    ("adversarial", "Exp3State.update", "adversarial.Exp3State.update"),
    ("adversarial", "importance_loss_estimate", "adversarial.importance_loss_estimate"),
    ("adversarial", "exp_weights", "adversarial.exp_weights"),
    ("mirror", "OsmdMsets.select", "mirror.OsmdMsets.select"),
    ("mirror", "OsmdMsets.update", "mirror.OsmdMsets.update"),
    ("mirror", "omd_step", "mirror.omd_step"),
    ("mirror", "semibandit_estimate", "mirror.semibandit_estimate"),
    ("mirror", "Exp2State.__init__", "mirror.Exp2State.init"),
    ("mirror", "Exp2State.select", "mirror.Exp2State.select"),
    ("mirror", "Exp2State.update", "mirror.Exp2State.update"),
    ("geometry", "project_capped_simplex_potential",
     "geometry.project_capped_simplex_potential"),
    ("geometry", "project_capped_simplex_negent", "geometry.project_capped_simplex_negent"),
    ("geometry", "madow_sample", "geometry.madow_sample"),
    ("geometry", "doptimal_design", "geometry.doptimal_design"),
    ("convex", "run_sgs", "convex.run_sgs"),
]

# spans whose per-call durations are kept, for percentiles and growth
KEEP_DURATIONS = {"harness.run_replica", "env.NonObliviousAdversary.loss_vector"}
DUAL_EVALS = "geometry.project_capped_simplex_potential.dual_evals"


@dataclasses.dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0
    durations: list = dataclasses.field(default_factory=list)


def package_modules() -> list:
    """Every imported banditlab module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "banditlab" or name.startswith("banditlab."))]


class Tracer:
    def __init__(self):
        self.experiment = ""  # name of the experiment the next spans are filed under
        self.stats: dict[tuple[str, str], SpanStat] = {}
        self._stack: list[float] = []  # child time covered, per open span

    def reset(self) -> None:
        self.stats = {}

    def _stat(self, name: str) -> SpanStat:
        key = (self.experiment, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = SpanStat()
        return stat

    def count(self, name: str) -> None:
        self._stat(name).calls += 1

    def span(self, fn, name):
        """Wrap `fn` in a span; `name` is a string or a function of the call's
        positional arguments."""
        stack = self._stack
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += dt
                stat = self._stat(name if isinstance(name, str) else name(args))
                stat.calls += 1
                stat.self_s += dt - covered
                if keep:
                    stat.durations.append(dt)

        return wrapper

    def _counting_projection(self, fn):
        """Hand the projection a PotentialSpec whose psi counts its calls:
        each evaluation of psi is one evaluation of the dual equation."""

        def counted_psi(psi):
            @functools.wraps(psi)
            def inner(u):
                self.count(DUAL_EVALS)
                return psi(u)
            return inner

        @functools.wraps(fn)
        def project(w, m, psi, *args, **kwargs):
            return fn(w, m, dataclasses.replace(psi, psi=counted_psi(psi.psi)),
                      *args, **kwargs)

        return project

    def _wrapper_for(self, module: str, path: str, name: str, original):
        if module == "harness" and path == "emit":
            return self.span(original, lambda args: f"harness.emit.{args[1]}")
        if path == "project_capped_simplex_potential":
            original = self._counting_projection(original)
        return self.span(original, name)

    @contextmanager
    def installed(self, package):
        """Patch every target for the duration of the block, then restore."""
        patched: list[tuple[object, str, object]] = []
        try:
            for module, path, name in TARGETS:
                owner = getattr(package, module)
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                if classes:
                    original = owner.__dict__[attr]  # defined on this class
                    holders = [owner]
                else:
                    original = getattr(owner, attr)
                    holders = [m for m in package_modules()
                               if vars(m).get(attr) is original]
                wrapper = self._wrapper_for(module, path, name, original)
                for holder in holders:
                    patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)
            self._stack.clear()
