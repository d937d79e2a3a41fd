"""Per-layer spans for the traced run, recorded from outside hjmech.

``Tracer.install()`` wraps hjmech's public functions with shims that
record a span (name, start, end, parent, op id) per call.  A shim is
installed wherever the wrapped function is reachable: the module that
defines it, every hjmech module that imported it by name, and the class
for methods.  Spans stay in memory until the run writes them out.  The
untraced run installs no shims.

A layer's self time is its spans' durations minus the time covered by
their direct children; the op's root span is ``cli``, so the self times
of one op add up to its wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Dict, List

# layer -> functions, as "module:attribute" or "module:Class.method"
LAYERS = {
    "model.load": ["model:load"],
    "expr.parse": ["expr:parse"],
    "expr.diff": ["expr:diff"],
    "expr.substitute": ["expr:substitute"],
    "expr.print": ["expr:to_text"],
    "expr.evaluate": ["expr:evaluate"],
    "lagrangian.hessian": ["lagrangian:LagrangianSystem.hessian"],
    "lagrangian.cartan": ["lagrangian:LagrangianSystem.cartan"],
    "lagrangian.el_field": [
        "lagrangian:LagrangianSystem.euler_lagrange_field",
        "lagrangian:LagrangianSystem.euler_lagrange_expressions"],
    "hamiltonian.legendre": ["hamiltonian:legendre"],
    "hamiltonian.h": ["hamiltonian:hamiltonian"],
    "hamiltonian.field": ["hamiltonian:hamiltonian_field",
                          "hamiltonian:HamiltonianSystem.field"],
    "forms.pullback": ["forms:CoordMap.pull_function",
                       "forms:CoordMap.pull_oneform",
                       "forms:CoordMap.pull_twoform"],
    "forms.d": ["forms:differential", "forms:exterior_derivative"],
    "hj.tangency": ["hj:gen_lag_residuals", "hj:gen_ham_residuals"],
    "hj.closedness": ["hj:lag_closedness", "hj:ham_closedness"],
    "hj.energy": ["hj:lag_energy_residuals", "hj:ham_energy_residuals"],
    "hj.hj_equation": ["hj:hj_equation", "hj:lag_genfunc_residuals"],
    "hj.transport": ["hj:transport"],
    "hj.involution": ["hj:involution_check"],
    "hj.associated": ["hj:associated_field"],
    "numeric.integrate": ["numeric:integrate"],
    "numeric.lift": ["numeric:verify_lifting"],
    "numeric.csv": ["numeric:Trajectory.to_csv"],
    "report.render": ["report:Report.render"],
}
# layers whose results are residual reports, counted into hj.*
REPORT_LAYERS = ("hj.tangency", "hj.closedness", "hj.energy",
                 "hj.hj_equation", "hj.involution")
ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op]
        self.stack: List[int] = []
        self.op = -1
        self.counts: Counter = Counter()

    # -- recording ------------------------------------------------------

    def _shim(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def shim(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        shim.__wrapped__ = fn
        return shim

    def call(self, op_id, fn, *args):
        """Run fn as the root span of op ``op_id``."""
        self.op = op_id
        return self._shim(ROOT, fn)(*args)

    def _count_report(self, report):
        for e in report.entries:
            self.counts["hj.entries"] += 1
            if e.verdict == "exact-zero":
                self.counts["hj.exact_zero"] += 1
            elif e.numeric_max is None:
                self.counts["hj.unsampled_entries"] += 1
            else:
                self.counts["hj.sampled_entries"] += 1

    def _count_steps(self, trajectory):
        self.counts["numeric.steps"] += trajectory.times.size - 1

    def install(self):
        """Put a shim in front of every function named in LAYERS."""
        modules = [m for name, m in sys.modules.items()
                   if name == "hjmech" or name.startswith("hjmech.")]
        for layer, targets in LAYERS.items():
            on_result = None
            if layer in REPORT_LAYERS:
                on_result = self._count_report
            elif layer == "numeric.integrate":
                on_result = self._count_steps
            for target in targets:
                modname, attr = target.split(":")
                owner = importlib.import_module("hjmech." + modname)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                shim = self._shim(layer, original, on_result)
                setattr(owner, attr, shim)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, shim)

    # -- reading ----------------------------------------------------------

    def self_ms(self) -> Dict[str, float]:
        """Summed self time per layer, in ms; the root's is ``cli.self``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        out[ROOT] = 0.0
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[idx]) * 1e3
        return out

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[0] == layer)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart\tend\tparent\top\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                f.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                        % (idx, name, start, end, parent, op))


def layer_metrics(tracer: Tracer, passes: int, wall_s: float) -> Dict[str, tuple]:
    """Per-pass layer metrics: name -> (value, unit)."""
    self_ms = tracer.self_ms()
    out = {}
    for layer in LAYERS:
        out[layer + ".ms"] = (self_ms[layer] / passes, "ms")
    out["cli.self.ms"] = (self_ms[ROOT] / passes, "ms")
    out["expr.evaluate.calls"] = (tracer.calls("expr.evaluate") / passes, "count")
    counts = tracer.counts
    for name in ("hj.entries", "hj.sampled_entries", "hj.unsampled_entries",
                 "numeric.steps"):
        out[name] = (counts[name] / passes, "count")
    entries = counts["hj.entries"]
    out["hj.exact_zero_share"] = (
        counts["hj.exact_zero"] / entries if entries else 0.0, "ratio")
    steps = counts["numeric.steps"]
    out["numeric.us_per_step"] = (
        self_ms["numeric.integrate"] * 1e3 / steps if steps else 0.0, "us")
    out["trace.wall_s"] = (wall_s, "s")
    return out
