"""Per-layer spans, timed from outside the program.

``Tracer.install()`` replaces each public layer function listed in
``SPANS`` with a timing wrapper at every binding the package holds: the
defining module, and each ``from .module import name`` copy in the other
nlskam modules and the package ``__init__``.  Wrapping only the defining
module would miss every call made through such a copy.  After patching,
no module-level name, class attribute, or entry of a module-level dict,
list or tuple may still refer to an unwrapped function; ``install``
raises if one does.

A span's self time is its duration minus the time of the wrapped spans it
called.  Work counts are taken after the wrapped call returns and outside
every span's time.  ``lattice`` gets no span: its functions run 1e5-1e6
times per task, so wrapping them would distort the run; their cost lands
in the self time of the hamiltonian spans that call them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# Defining module -> wrapped public names ("Class.method" for methods).
SPANS = {
    "hamiltonian": (
        "poisson_bracket", "Hamiltonian.collected", "Hamiltonian.expanded",
        "norm", "prune", "class_split", "linear_combine", "vf_sup_norm",
        "multiply", "lie_transform", "Hamiltonian.dumps"),
    "homological": ("solve_homological",),
    "diophantine": (
        "enumerate_ells", "sample_strong_frequency", "resonance_measure"),
    "nls": ("build_cubic_nls",),
    "driver": ("kam_step", "initial_state"),
    "verification": (
        "verify_scalar_lemma", "verify_norm_lemma", "random_hamiltonian"),
    "cli": ("dispatch",),
}
NORM_KINDS = ("sup_rho", "star_rho", "plus_rho")


def span_names():
    """Every span name, in report order."""
    names = []
    for mod, attrs in SPANS.items():
        for attr in attrs:
            if attr == "norm":
                names.extend(f"{mod}.norm.{k}" for k in NORM_KINDS)
            else:
                names.append(f"{mod}.{attr}")
    return names


class Tracer:
    def __init__(self):
        self.stats = {name: {"calls": 0, "self_s": 0.0}
                      for name in span_names()}
        self._stack = []        # child time accumulated per open span
        self._orig = {}         # "mod.attr" -> unwrapped object

    # -- counting ------------------------------------------------------------

    def _counts(self, span, args, kwargs, result, before):
        """Work counts of one finished call, as {quantity: increment}."""
        if span == "hamiltonian.poisson_bracket":
            expanded = self._orig["hamiltonian.Hamiltonian.expanded"]
            pairs = len(expanded(args[0])) * len(expanded(args[1]))
            return {"pairs": pairs, "terms_out": len(result)}
        if span == "hamiltonian.Hamiltonian.collected":
            return {"terms_out": len(result)}
        if span == "hamiltonian.prune":
            return {"terms_in": len(args[0]),
                    "terms_dropped": len(args[0]) - len(result)}
        if span == "hamiltonian.Hamiltonian.dumps":
            return {"bytes": len(result.encode())}
        if span == "homological.solve_homological":
            return {"solved_terms": result.stats["solved_terms"],
                    "deferred_terms": result.stats["deferred_terms"]}
        if span == "diophantine.enumerate_ells":
            return {"ells": len(result)}
        if span == "diophantine.sample_strong_frequency":
            return {"tries": result[1] + 1}
        if span == "diophantine.resonance_measure":
            trials = kwargs["trials"] if "trials" in kwargs else args[1]
            ells = self.stats["diophantine.enumerate_ells"].get("ells", 0)
            # draws @ L.T materialises a trials x ells float64 matrix
            return {"trials": trials,
                    "bytes_computed": trials * (ells - before) * 8}
        if span == "nls.build_cubic_nls":
            return {"terms": len(result)}
        return {}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        counts = self._counts

        def wrapper(*args, **kwargs):
            if name == "hamiltonian.norm":
                kind = kwargs["kind"] if "kind" in kwargs else args[1]
                span = f"{name}.{kind}"
            else:
                span = name
            before = stats["diophantine.enumerate_ells"].get("ells", 0)
            stack.append(0.0)
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                child = stack.pop()
                st = stats.setdefault(span, {"calls": 0, "self_s": 0.0})
                st["calls"] += 1
                st["self_s"] += (t1 - t0) - child
                if done:
                    for key, n in counts(span, args, kwargs, result,
                                         before).items():
                        st[key] = st.get(key, 0) + n
                if stack:
                    stack[-1] += clock() - t0

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every span at every binding; raise if one is missed."""
        layers = {m: importlib.import_module(f"nlskam.{m}") for m in SPANS}
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nlskam"
                                         or n.startswith("nlskam."))]
        wrappers = {}
        for modname, attrs in SPANS.items():
            mod = layers[modname]
            for attr in attrs:
                key = f"{modname}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(key, orig))
                else:
                    orig = getattr(mod, attr)
                    wrappers[id(orig)] = self._wrap(key, orig)
                self._orig[key] = orig
        for m in package:
            for attr, val in list(vars(m).items()):
                if id(val) in wrappers:
                    setattr(m, attr, wrappers[id(val)])
        missed = self._unwrapped_refs(package)
        if missed:
            raise RuntimeError(f"unwrapped layer functions remain: {missed}")

    def _unwrapped_refs(self, package):
        origs = {id(o) for o in self._orig.values()}
        missed = []
        for m in package:
            for attr, val in vars(m).items():
                held = [val]
                if isinstance(val, dict):
                    held.extend(val.values())
                elif isinstance(val, (list, tuple)):
                    held.extend(val)
                elif isinstance(val, type):
                    held.extend(vars(val).values())
                for obj in held:
                    if id(obj) in origs:
                        missed.append(f"{m.__name__}.{attr}")
        return missed

    # -- reporting -----------------------------------------------------------

    def snapshot(self):
        """A deep copy of the per-span statistics."""
        return {span: dict(st) for span, st in self.stats.items()}


def difference(after, before):
    """Per-span statistics accumulated between two snapshots."""
    out = {}
    for span, st in after.items():
        prev = before.get(span, {})
        out[span] = {k: v - prev.get(k, 0) for k, v in st.items()}
    return out


# Work counts per span, beyond calls and self_s, with their units.
QUANTITIES = {
    "hamiltonian.poisson_bracket": {
        "pairs": "count", "terms_out": "count", "yield": "ratio"},
    "hamiltonian.Hamiltonian.collected": {"terms_out": "count"},
    "hamiltonian.prune": {"terms_in": "count", "terms_dropped": "count"},
    "hamiltonian.Hamiltonian.dumps": {"bytes": "B"},
    "homological.solve_homological": {
        "solved_terms": "count", "deferred_terms": "count"},
    "diophantine.enumerate_ells": {"ells": "count"},
    "diophantine.sample_strong_frequency": {"tries": "count"},
    "diophantine.resonance_measure": {
        "trials": "count", "bytes_computed": "B"},
    "nls.build_cubic_nls": {"terms": "count"},
    "cli.dispatch": {"bytes_written": "B"},
}


def layer_units():
    """Every per-layer metric name -> unit."""
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        for q, unit in QUANTITIES.get(span, {}).items():
            units[f"{span}.{q}"] = unit
    return units


def layer_metrics(per_task):
    """Median over traced tasks of every per-layer metric.

    ``per_task`` holds one ``difference`` per traced task.  A quantity a
    task never recorded reads 0; yield is terms_out / pairs of the task.
    """
    units = layer_units()
    samples = {name: [] for name in units}
    for delta in per_task:
        for name in units:
            span, q = name.rsplit(".", 1)
            st = delta.get(span, {})
            if q == "yield":
                pairs = st.get("pairs", 0)
                samples[name].append(st.get("terms_out", 0) / pairs
                                     if pairs else 0.0)
            else:
                samples[name].append(st.get(q, 0))
    return {name: (statistics.median(v), units[name])
            for name, v in samples.items()}
