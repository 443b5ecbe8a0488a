"""Outside-in span tracer for the traced benchmark run.

`Tracer.install()` replaces the public functions and methods of every
`saddle_sa` module with wrappers that record one span per call: name, start,
end and parent span.  Spans stay in a flat in-memory array until `write()`
dumps them as CSV after the timed region, each tagged with its request id:
the (N, trial) run it belongs to.  `uninstall()` puts every original binding
back.

Two things make the patching more than a `setattr` on the defining module:

- `saddle_sa.prox` in the package namespace is the `prox()` function, not the
  module, so modules are reached through `importlib.import_module`.
- Functions such as `as_vector`, `run_saps` and `minimax_gap` are bound by
  name in the modules that import them, so every module (and the package
  namespace) whose attribute *is* the original gets the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array

import numpy as np

PACKAGE = "saddle_sa"
MODULES = ("core", "prox", "cones", "oracles", "saps", "lsaal", "metrics", "data", "cli")
# Private cli helpers that bound the phases the per-layer metrics report.
CLI_PHASES = ("_experiment_shared", "_build_dataset", "_emit_trace", "_write_csv")
RUNNERS = ("run_saps", "run_lsaal", "run_laam")
FLUSH_AT = 1 << 16  # span fields buffered before moving into the compact array


def _public_members(module):
    """Public functions and classes defined in `module` itself."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj


class Tracer:
    """Records spans around the public surface of the `saddle_sa` modules.

    A span gets its id when it starts (so children can name their parent)
    and is stored when it ends, as five int64 fields: id, name id, parent id,
    start and end in perf_counter nanoseconds.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._spans = array("q")
        self._pending = []
        self._next_id = itertools.count().__next__
        self._stack = [-1]
        self.requests = []  # (N, trial) of each run_single_trial call, in order
        self._patches = []  # (owner, attribute, original)
        self.main_pass_grads = 0  # see _count_main_pass

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _flush(self):
        self._spans.fromlist(self._pending)
        self._pending.clear()

    def wrap(self, name, fn):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._id(name)
        pending, flush, stack = self._pending, self._flush, self._stack
        next_id, clock = self._next_id, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = next_id()
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                pending.extend((idx, nid, parent, t0, t1))
                if len(pending) >= FLUSH_AT:
                    flush()

        return traced

    # -- patching ----------------------------------------------------------

    def _modules(self):
        package = importlib.import_module(PACKAGE)
        return package, [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package, modules = self._modules()
        namespaces = [package] + modules
        functions = {}  # original function -> wrapper
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in _public_members(module):
                if inspect.isfunction(obj):
                    functions[obj] = self._function_wrapper(short, name, obj)
                    continue
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") or not inspect.isfunction(member):
                        continue
                    self._patch(obj, attr, self.wrap(f"{short}.{name}.{attr}", member))
            if short == "cli":
                for name in CLI_PHASES:
                    obj = getattr(module, name)
                    functions[obj] = self.wrap(f"cli.{name}", obj)
        # Patch every binding of each function, wherever it was imported.
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in functions:
                    self._patch(namespace, attr, functions[value])

    def _function_wrapper(self, short, name, fn):
        traced = self.wrap(f"{short}.{name}", fn)
        if name == "run_single_trial":
            return self._per_request(traced)
        if name in RUNNERS:
            return self._with_traced_hooks(traced)
        if name == "x_subproblem_gradient":
            return self._count_main_pass(traced)
        return traced

    def _per_request(self, traced):
        """Remember the (N, trial) of each trial; its spans are the request."""

        @functools.wraps(traced)
        def run_single_trial(config, N, trial, shared):
            self.requests.append((N, trial))
            return traced(config, N, trial, shared)

        return run_single_trial

    def _with_traced_hooks(self, traced):
        """Metric hooks are closures in cli; time them where the solver calls them."""

        @functools.wraps(traced)
        def runner(problem, config, metric_hooks=()):
            hooks = [self.wrap("metrics.hook", hook) for hook in metric_hooks]
            return traced(problem, config, hooks)

        return runner

    def _count_main_pass(self, traced):
        """Count gradient calls at the current inner iterate.

        solve_x_subproblem takes one gradient per projected-gradient pass at
        its iterate `x`, and an extra one at a candidate `x_new` when a
        decrease is below rounding noise.  Passes minus subproblems is the
        number of accepted steps.
        """

        @functools.wraps(traced)
        def x_subproblem_gradient(spec, x):
            if sys._getframe(1).f_locals.get("x") is x:
                self.main_pass_grads += 1
            return traced(spec, x)

        return x_subproblem_gradient

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def _arrays(self):
        """(name id, duration, parent id, start) per span, indexed by span id."""
        self._flush()
        spans = np.asarray(self._spans, dtype=np.int64).reshape(-1, 5)
        spans = spans[np.argsort(spans[:, 0])]
        return spans[:, 1], spans[:, 4] - spans[:, 3], spans[:, 2], spans[:, 3]

    def stats(self):
        """name -> (calls, inclusive ns, self ns); self = span minus its children."""
        ids, dur, parent, _ = self._arrays()
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(own[i])) for i, name in enumerate(self.names)}

    def outermost_ns(self, prefix):
        """Inclusive time of spans under `prefix` whose parent is outside it."""
        ids, dur, parent, _ = self._arrays()
        inside = np.array([n.startswith(prefix) for n in self.names] + [False], dtype=bool)
        mine = inside[ids]
        parent_inside = inside[np.where(parent >= 0, ids[np.maximum(parent, 0)], -1)]
        return float(dur[mine & ~parent_inside].sum())

    def layer_metrics(self, saps_iterations, data_points):
        """Per-layer metrics of one traced experiment (see BENCHMARK.json)."""
        st = self.stats()
        none = (0, 0.0, 0.0)

        def total(pred):
            """(calls, inclusive ns, self ns) summed over matching span names."""
            return tuple(map(sum, zip(none, *(v for n, v in st.items() if pred(n)))))

        def exact(name):
            return st.get(name, none)

        def method(module, name):
            return total(lambda n: n.startswith(module + ".") and n.endswith("." + name))

        def ratio(a, b):
            return a / b if b else 0.0

        def us(t):
            return ratio(t[1] / 1e3, t[0])

        step, sub, hook = exact("saps.saps_step"), exact("lsaal.solve_x_subproblem"), exact("metrics.hook")
        outer, objectives = sub[0], exact("lsaal.x_subproblem_objective")[0]
        out = {
            "saps.step_us": us(step),
            "saps.average_us": us(exact("saps.streaming_average")),
            "saps.loop_self_us": ratio(exact("saps.run_saps")[2] / 1e3, saps_iterations),
            "saps.steps": step[0],
        }
        for metric, t in (("oracles.sample", method("oracles", "sample")),
                          ("oracles.evaluate_batch", method("oracles", "evaluate_batch")),
                          ("oracles.full_batch", method("oracles", "full_batch")),
                          ("prox.ScaledL1", exact("prox.ScaledL1.prox")),
                          ("prox.PositivePartSum", exact("prox.PositivePartSum.prox")),
                          ("prox.BlockSeparable", exact("prox.BlockSeparable.prox")),
                          ("cones.polar_project", method("cones", "polar_project")),
                          ("core.as_vector", exact("core.as_vector"))):
            out[f"{metric}_us"], out[f"{metric}_calls"] = us(t), t[0]
        out.update({
            "lsaal.subproblem_us": us(sub),
            "lsaal.y_update_us": us(exact("lsaal.y_update")),
            "lsaal.outer_iters": outer,
            "lsaal.grad_evals_per_outer": ratio(exact("lsaal.x_subproblem_gradient")[0], outer),
            "lsaal.objective_evals_per_outer": ratio(objectives, outer),
            "lsaal.accept_ratio": ratio(self.main_pass_grads - outer, objectives),
            "metrics.hook_us_per_row": us(hook),
            "metrics.rows": hook[0],
            "cli.setup_ms": exact("cli._experiment_shared")[1] / 1e6,
            "cli.emit_ms": (exact("cli._emit_trace")[2] + exact("cli._write_csv")[2]) / 1e6,
            "data.build_ms": self.outermost_ns("data.") / 1e6,
            "data.points": data_points,
        })
        for module in MODULES:
            out[f"{module}.self_ms"] = total(lambda n, p=module + ".": n.startswith(p))[2] / 1e6
        out["trace.spans"] = len(self._spans) // 5
        return out

    def write(self, path):
        """Dump spans as CSV: span id, name, start_ns, end_ns, parent id, request.

        The request is the (N, trial) run a span belongs to, or "experiment"
        for spans outside every trial.
        """
        ids, dur, parent, start = self._arrays()
        trial_id = self._name_ids.get("cli.run_single_trial", -1)
        labels = iter(f"N{N}_trial{t}" for N, t in self.requests)
        request = []
        for nid, p in zip(ids.tolist(), parent.tolist()):
            request.append(next(labels) if nid == trial_id else request[p] if p >= 0 else "experiment")
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,request\n")
            fh.writelines(
                f"{i},{names[n]},{s},{s + d},{p},{r}\n"
                for i, (n, s, d, p, r) in enumerate(zip(ids.tolist(), start.tolist(), dur.tolist(),
                                                        parent.tolist(), request)))
