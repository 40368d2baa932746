"""Span tracer that instruments condenser_widths from outside the package.

``Tracer.install`` replaces every module attribute that refers to a traced
function with a wrapper, in every module of the package, so names imported
elsewhere (``kernel_from_phi`` in ``equilibrium``, ``measure`` and ``nwidth``)
are traced too; methods are replaced on their class.  ``uninstall`` puts the
originals back.  Each call records a span (name, parent span, start, end);
counters are added at the same boundaries.  Self time of a span is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import defaultdict
from time import perf_counter

import numpy as np


# ---------------------------------------------------------------------------
# counters recorded at the wrapped boundaries; each hook sees
# (tracer, parent span name, positional args, return value)


def _count_kernel(tr, parent, args, out):
    tr.counts["geometry.kernel_from_phi.entries"] += np.size(out)
    # the exchange engine builds one kernel column per call, with a single pole
    if parent == "equilibrium.exchange" and np.ndim(args[1]) == 0:
        tr.counts["equilibrium.exchange.columns"] += 1


def _count_exchange(tr, parent, args, out):
    tr.counts["equilibrium.exchange.atoms"] += len(out)


def _count_log_potential(tr, parent, args, out):
    mu, z = args[0], args[1]
    tr.counts["measure.log_potential.pairs"] += np.size(z) * len(mu)


def _count_chunks(tr, parent, args, out):
    tr.counts["parallel.chunks"] += len(out)


def _count_sweep(tr, parent, args, out):
    atoms = len(args[0])
    tr.counts["balayage.atoms_swept"] += atoms
    tr.counts["balayage.cell_evaluations"] += atoms * len(out)


def _keep_scorer(tr, parent, args, out):
    tr.scorers.append(args[0])


PACKAGE = "condenser_widths"

# (module, attribute, span name, counter hook); "Class.method" patches the class.
# The task-level entry points are spans too, so that cli.run.self_s keeps only
# the CLI's own work (config echo, JSON and file writes).
TARGETS = [
    ("cli", "run", "cli.run", None),
    ("geometry", "Condenser.validate", "geometry.validate", None),
    ("geometry", "sample_curve", "geometry.sample_curve", None),
    ("geometry", "phi_exterior", "geometry.phi_exterior", None),
    ("geometry", "green_pole_infinity", "geometry.green_pole_infinity", None),
    ("geometry", "kernel_from_phi", "geometry.kernel_from_phi", _count_kernel),
    ("equilibrium", "equilibrium_result", "equilibrium.equilibrium_result", None),
    ("equilibrium", "theta_sweep", "equilibrium.theta_sweep", None),
    ("equilibrium", "fekete_green", "equilibrium.fekete_green", None),
    ("equilibrium", "condenser_capacity", "equilibrium.condenser_capacity", None),
    ("equilibrium", "_exchange_maximize", "equilibrium.exchange", _count_exchange),
    ("equilibrium", "gamma_field", "equilibrium.gamma_field", None),
    ("equilibrium", "leja_weighted", "equilibrium.leja_weighted", None),
    ("equilibrium", "support_S_theta", "equilibrium.support_S_theta", None),
    ("measure", "energy_J", "measure.energy_J", None),
    ("measure", "log_potential", "measure.log_potential", _count_log_potential),
    ("extremal", "chi_asymptotic_pair", "extremal.chi_asymptotic_pair", None),
    ("extremal", "chi_bruteforce", "extremal.chi_bruteforce", None),
    ("extremal", "NormRatioScorer.__init__", "extremal.NormRatioScorer.init", _keep_scorer),
    ("extremal", "_coordinate_descent", "extremal.descent", None),
    ("balayage", "balayage_to_E", "balayage.balayage_to_E", None),
    ("balayage", "balayage_to_gamma", "balayage.balayage_to_gamma", None),
    ("balayage", "counting_alpha_beta", "balayage.counting_alpha_beta", None),
    ("balayage", "_sweep_to_circle", "balayage.sweep_to_circle", _count_sweep),
    ("parallel", "run_chunked", "parallel.run_chunked", _count_chunks),
]


class Tracer:
    """Records spans and counters of wrapped package functions."""

    def __init__(self):
        self.spans = []      # [name, parent span id, start, end]; end None while open
        self.stack = []      # ids of open spans
        self.counts = defaultdict(float)
        self.scorers = []    # NormRatioScorer instances created while traced
        self._patches = []   # (owner, attribute, original)

    # -- instrumentation ----------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, parent, perf_counter(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, spans[parent][0] if parent is not None else None, args, out)
            return out

        return wrapper

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        modules.append(pkg)
        for mod_name, attr, span, hook in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(span, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(span, orig, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def harvest_scorers(self):
        """Fold the evaluation counts of finished scorers into the counters."""
        self.counts["extremal.scored_configs"] += sum(s.evals_used for s in self.scorers)
        self.scorers.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self):
        """Per span name: calls, seconds and self seconds; plus the call tree
        aggregated by (parent name, name)."""
        child_time = defaultdict(float)
        for name, parent, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        edges = defaultdict(lambda: {"calls": 0, "s": 0.0})
        for sid, (name, parent, t0, t1) in enumerate(self.spans):
            dur = t1 - t0
            st = stats[name]
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - child_time[sid]
            edge = edges[(self.spans[parent][0] if parent is not None else "", name)]
            edge["calls"] += 1
            edge["s"] += dur
        tree = [{"parent": p, "name": n, **v} for (p, n), v in sorted(edges.items())]
        return dict(stats), tree


# per-layer metrics: (name, unit, source, key); source "span" reads the span
# statistic ``key`` (calls, s, self_s), source "count" reads a counter
PER_LAYER = [
    ("equilibrium.fekete_green.s", "s", "span", "s"),
    ("equilibrium.fekete_green.calls", "count", "span", "calls"),
    ("equilibrium.condenser_capacity.s", "s", "span", "s"),
    ("equilibrium.condenser_capacity.calls", "count", "span", "calls"),
    ("equilibrium.exchange.s", "s", "span", "s"),
    ("equilibrium.exchange.self_s", "s", "span", "self_s"),
    ("equilibrium.exchange.columns", "count", "count", None),
    ("equilibrium.exchange.columns_per_atom", "columns/atom", "ratio", None),
    ("equilibrium.gamma_field.s", "s", "span", "s"),
    ("equilibrium.gamma_field.calls", "count", "span", "calls"),
    ("equilibrium.leja_weighted.s", "s", "span", "s"),
    ("equilibrium.support_S_theta.s", "s", "span", "s"),
    ("measure.energy_J.s", "s", "span", "s"),
    ("measure.log_potential.s", "s", "span", "s"),
    ("measure.log_potential.calls", "count", "span", "calls"),
    ("measure.log_potential.pairs", "count", "count", None),
    ("geometry.sample_curve.calls", "count", "span", "calls"),
    ("geometry.phi_exterior.calls", "count", "span", "calls"),
    ("geometry.green_pole_infinity.calls", "count", "span", "calls"),
    ("geometry.kernel_from_phi.s", "s", "span", "s"),
    ("geometry.kernel_from_phi.calls", "count", "span", "calls"),
    ("geometry.kernel_from_phi.entries", "count", "count", None),
    ("geometry.validate.s", "s", "span", "s"),
    ("geometry.validate.calls", "count", "span", "calls"),
    ("extremal.chi_asymptotic_pair.s", "s", "span", "s"),
    ("extremal.chi_bruteforce.s", "s", "span", "s"),
    ("extremal.NormRatioScorer.init.s", "s", "span", "s"),
    ("extremal.descent.self_s", "s", "span", "self_s"),
    ("extremal.scored_configs", "count", "count", None),
    ("balayage.balayage_to_E.s", "s", "span", "s"),
    ("balayage.balayage_to_gamma.s", "s", "span", "s"),
    ("balayage.counting_alpha_beta.s", "s", "span", "s"),
    ("balayage.atoms_swept", "count", "count", None),
    ("balayage.cell_evaluations", "count", "count", None),
    ("parallel.run_chunked.calls", "count", "span", "calls"),
    ("parallel.chunks", "count", "count", None),
    ("cli.run.self_s", "s", "span", "self_s"),
    ("cli.result_bytes", "bytes", "count", None),
    # traced pass wall time minus the median untraced pass, set by the worker
    ("trace.overhead_s", "s", "overhead", None),
    ("trace.overhead_pct", "%", "overhead", None),
]


def layer_metrics(stats: dict, counts: dict) -> dict:
    """The per-layer metrics from span statistics and counters, by name."""
    out = {}
    for name, _unit, source, key in PER_LAYER:
        if source == "span":
            out[name] = float(stats.get(name.rsplit(".", 1)[0], {}).get(key, 0))
        elif source == "count":
            out[name] = float(counts.get(name, 0.0))
    atoms = counts.get("equilibrium.exchange.atoms", 0.0)
    out["equilibrium.exchange.columns_per_atom"] = (
        out["equilibrium.exchange.columns"] / atoms if atoms else 0.0)
    return out


def top_self_times(stats: dict, n: int = 6):
    ranked = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:n]
    return [{"span": k, "self_s": v["self_s"], "calls": v["calls"]} for k, v in ranked]
