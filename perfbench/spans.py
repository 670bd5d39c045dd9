"""Span tracer for the traced run.

Nothing under src/ changes.  ``install`` replaces nhimlab's layer functions
at run time: every public function of a layer module, in the module that
defines it and under every name another nhimlab module imported it as (so
``lambdalemma.step_jet`` and ``tangentflow.jacobian`` open spans), the
construction of ``ChartPoint`` and ``TangentVector``, and the integrator
entry points ``_kernels.advance`` / ``_kernels.advance_sampled``.  The
callables a workload passes in (MapSpec remainders, GraphPair graphs) are
counted by ``count_map`` / ``count_graphs``; their own time stays in the
span that called them.

Spans are folded into per-name totals as they close: calls, inclusive time,
and self time (inclusive minus the time covered by child spans).
"""

import dataclasses
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("geometry", "normalform", "tangentflow", "lambdalemma", "straighten", "models", "cli")
# private helpers that carry a metric of their own
PRIVATE_SPANS = {"cli": ("_write_json", "_write_csv")}
INVERSE = "straighten.straighten_inverse"


class Tracer:
    def __init__(self):
        self.stack = []  # [name, seconds covered by child spans] per open span
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, inclusive, self]
        self.counts = defaultdict(int)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, work=None):
        """``fn`` inside a span; ``work(args)`` adds to the ``<name>.work`` count."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            if work is not None:
                counts[name + ".work"] += work(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn, inside=None):
        """``fn`` counted under ``name``; calls made directly inside the span
        ``inside`` are counted again under ``name + '.inside'``."""
        counts, stack = self.counts, self.stack

        def counted(*args, **kwargs):
            counts[name] += 1
            if inside is not None and stack and stack[-1][0] == inside:
                counts[name + ".inside"] += 1
            return fn(*args, **kwargs)

        return counted

    def count_map(self, f):
        return dataclasses.replace(f, r_map=self.counter("normalform.r_map.evals", f.r_map))

    def count_graphs(self, gp):
        name = "straighten.graph_evals"
        return dataclasses.replace(
            gp, G_s=self.counter(name, gp.G_s, INVERSE), G_u=self.counter(name, gp.G_u, INVERSE)
        )

    def install(self):
        import nhimlab
        from nhimlab import _kernels, geometry

        modules = {layer: importlib.import_module(f"nhimlab.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE_SPANS.get(layer, ()):
                    continue
                replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in list(modules.values()) + [nhimlab]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        for cls in (geometry.ChartPoint, geometry.TangentVector):
            cls.__post_init__ = self.wrap(f"geometry.{cls.__name__}", cls.__post_init__)
        # only these two names: advance_sampled_python calls advance_python
        # itself, and wrapping that too would count its steps twice
        _kernels.advance = self.wrap("kernels.advance", _kernels.advance, work=lambda a: int(a[2]))
        _kernels.advance_sampled = self.wrap(
            "kernels.advance_sampled", _kernels.advance_sampled, work=lambda a: int(a[2]) * int(a[3])
        )

    def layer_metrics(self):
        """Per-layer metrics of the spans since the last reset (one solve)."""
        return layer_metrics(self.spans, self.counts)


def layer_metrics(spans, counts):
    """name -> (value, unit) for every per-layer metric in BENCHMARK.json."""

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def mean(names, scale):
        n = sum(calls(x) for x in names)
        return scale * sum(total(x) for x in names) / n if n else 0.0

    def self_s(layer):
        return sum(v[2] for k, v in spans.items() if k.startswith(layer + "."))

    node = ("tangentflow.step_jet", "tangentflow.stable_restricted_step")
    kernels = ("kernels.advance", "kernels.advance_sampled")
    steps = sum(counts.get(k + ".work", 0) for k in kernels)
    inverses = calls(INVERSE)
    return {
        "lambdalemma.self_s": (self_s("lambdalemma"), "s"),
        "lambdalemma.node_steps": (sum(calls(x) for x in node), "count"),
        "lambdalemma.node_step_us": (mean(node, 1e6), "us"),
        "lambdalemma.c1_distance_us": (mean(["lambdalemma.c1_distance"], 1e6), "us"),
        "lambdalemma.seed_mesh_ms": (mean(["lambdalemma.seed_mesh"], 1e3), "ms"),
        "lambdalemma.domination_s": (total("lambdalemma.verify_bound_domination"), "s"),
        "tangentflow.self_s": (self_s("tangentflow"), "s"),
        "tangentflow.step_jet.calls": (calls("tangentflow.step_jet"), "count"),
        "tangentflow.step_jet_us": (mean(["tangentflow.step_jet"], 1e6), "us"),
        "geometry.self_s": (self_s("geometry"), "s"),
        "geometry.sup_norm.calls": (calls("geometry.vec_sup_norm"), "count"),
        "geometry.objects": (calls("geometry.ChartPoint") + calls("geometry.TangentVector"), "count"),
        "normalform.self_s": (self_s("normalform"), "s"),
        "normalform.jacobian.calls": (calls("normalform.jacobian"), "count"),
        "normalform.jacobian_us": (mean(["normalform.jacobian"], 1e6), "us"),
        "normalform.apply_map_us": (mean(["normalform.apply_map"], 1e6), "us"),
        "normalform.r_map.evals": (counts.get("normalform.r_map.evals", 0), "count"),
        "normalform.validate_s": (total("normalform.validate_conditions"), "s"),
        "normalform.bounds_s": (total("normalform.estimate_bounds"), "s"),
        "straighten.self_s": (self_s("straighten"), "s"),
        "straighten.inverse.calls": (inverses, "count"),
        "straighten.inverse_us": (mean([INVERSE], 1e6), "us"),
        "straighten.graph_evals": (counts.get("straighten.graph_evals", 0), "count"),
        "straighten.graph_evals_per_inverse": (
            counts.get("straighten.graph_evals.inside", 0) / inverses if inverses else 0.0,
            "ratio",
        ),
        "models.self_s": (self_s("models"), "s"),
        "models.poincare.calls": (calls("models.poincare_map"), "count"),
        "models.poincare_ms": (mean(["models.poincare_map"], 1e3), "ms"),
        "models.energy_us": (mean(["models.hamiltonian_energy"], 1e6), "us"),
        "kernels.calls": (sum(calls(x) for x in kernels), "count"),
        "kernels.steps": (steps, "count"),
        "kernels.step_us": (1e6 * sum(total(x) for x in kernels) / steps if steps else 0.0, "us"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.write_ms": (1e3 * (total("cli._write_json") + total("cli._write_csv")), "ms"),
    }
