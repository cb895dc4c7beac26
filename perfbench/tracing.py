"""Spans and counters around each zepl layer, recorded from outside.

``Tracer.install`` replaces the module attributes the program calls through
(``oracle.solve_ivp``, ``oracle.integrate_radial``, ``closedform.laguerre``
next to ``specfn.laguerre``, ...) with wrappers that record a span (name,
start, end, parent, op) and update counters.  Spans stay in memory until
``write`` at the end of the run.  A layer's self time is its spans' duration
minus the time their direct children cover.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import Counter, defaultdict

import numpy as np

from ops import SUITES
from zepl import cli, closedform, dirac, halfline, oracle, oscillator, powerlaw, specfn, verify


# Self-time metrics: metric -> span name, or a prefix ending in "." that
# sums every span of one module.  Every traced run prints all metrics below.
SELF_TIME = {
    "oracle.shoot.s": "oracle.shoot",
    "oracle.mismatch.s": "oracle.mismatch",
    "oracle.integrate_radial.s": "oracle.integrate_radial",
    "oracle.solve_ivp.s": "oracle.solve_ivp",
    "oracle.quad.s": "oracle.quad",
    "powerlaw.wavefunction.s": "powerlaw.wavefunction",
    "powerlaw.norm.s": "powerlaw.norm",
    "powerlaw.classify.s": "powerlaw.classify",
    "powerlaw.residual.s": "powerlaw.residual",
    "powerlaw.pct_identity.s": "powerlaw.pct_identity",
    "powerlaw.nodes.s": "powerlaw.nodes",
    "powerlaw.degenerate_pairs.s": "powerlaw.degenerate_pairs",
    "powerlaw.effective_potential.s": "powerlaw.effective_potential",
    "specfn.laguerre.s": "specfn.laguerre",
    "closedform.eval.s": "closedform.eval",
    "halfline.eigenfunction.s": "halfline.eigenfunction",
    "halfline.residual.s": "halfline.residual",
    "dirac.s": "dirac.",
    "oscillator.s": "oscillator.",
    **{f"verify.suite.{name}.s": f"verify.suite.{name}" for name in SUITES},
    "cli.overhead_s": "cli.main",
}
COUNTERS = (
    "oracle.shoot.calls", "oracle.shoot.levels", "oracle.mismatch.calls",
    "oracle.integrate_radial.calls", "oracle.solve_ivp.calls", "oracle.rhs_evals",
    "oracle.quad.calls", "oracle.quad.panels", "oracle.quad.unconverged",
    "specfn.laguerre.calls", "specfn.laguerre.points",
    "closedform.eval.calls", "closedform.eval.points",
)
RATIOS = {
    "oracle.mismatch_per_level": ("oracle.mismatch.calls", "oracle.shoot.levels"),
    "oracle.rhs_evals_per_level": ("oracle.rhs_evals", "oracle.shoot.levels"),
}


METRIC_UNITS = {**{name: "s" for name in SELF_TIME},
                **{name: "count" for name in (*COUNTERS, *RATIOS)}}


def _count_panels(counts, _args, result):
    counts["oracle.quad.panels"] += result.panels
    counts["oracle.quad.unconverged"] += int(not result.converged)


def _count_levels(counts, _args, result):
    counts["oracle.shoot.levels"] += len(result.values)


def _count_rhs(counts, _args, result):
    counts["oracle.rhs_evals"] += result.nfev


def _count_points(key):
    def count(counts, args, _result):
        counts[key] += int(np.size(args[-1]))
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.recording = False
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, owner, attr: str, name, count=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            span = name(args) if callable(name) else name
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span, time.perf_counter(), 0.0, parent, tracer.op])
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = time.perf_counter()
                tracer.counts[span + ".calls"] += 1
            if count is not None:
                count(tracer.counts, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        w = self._wrap
        w(oracle, "shoot_coupling", "oracle.shoot", _count_levels)
        w(oracle, "shoot_energy_bender", "oracle.shoot", _count_levels)
        w(oracle, "coupling_mismatch", "oracle.mismatch")
        w(oracle, "integrate_radial", "oracle.integrate_radial")
        w(oracle, "solve_ivp", "oracle.solve_ivp", _count_rhs)
        w(oracle, "quad_seminfinite", "oracle.quad", _count_panels)
        for attr, span in (("wavefunction", "wavefunction"), ("norm", "norm"),
                           ("classify", "classify"), ("schrodinger_residual", "residual"),
                           ("pct_identity_check", "pct_identity"),
                           ("interior_node_count", "nodes"),
                           ("degenerate_pairs", "degenerate_pairs"),
                           ("effective_potential_eval", "effective_potential")):
            w(powerlaw, attr, f"powerlaw.{span}")
        # closedform holds its own binding of laguerre; specfn's derivatives
        # call the specfn one.  Both count as the one kernel.
        laguerre_points = _count_points("specfn.laguerre.points")
        w(specfn, "laguerre", "specfn.laguerre", laguerre_points)
        w(closedform, "laguerre", "specfn.laguerre", laguerre_points)
        for attr in ("value", "__call__", "_derivs"):
            w(closedform.ClosedFormSolution, attr, "closedform.eval",
              _count_points("closedform.eval.points"))
        w(halfline, "eigenfunction", "halfline.eigenfunction")
        w(halfline, "residual_41", "halfline.residual")
        for module in (dirac, oscillator):
            prefix = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                if not isinstance(getattr(module, attr), type):
                    w(module, attr, f"{prefix}.{attr}")
        w(verify, "run_suite", lambda args: f"verify.suite.{args[0]}")
        w(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything recorded."""
        own = self.self_times()
        out = {}
        for metric, span in SELF_TIME.items():
            if span.endswith("."):
                total = sum(v for k, v in own.items() if k.startswith(span))
            else:
                total = own.get(span, 0.0)
            out[metric] = total
        for key in COUNTERS:
            out[key] = self.counts[key]
        for metric, (num, den) in RATIOS.items():
            out[metric] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "op"))
            out.writerows(self.spans)
