"""Span tracing around dicbound's public functions, installed from outside.

A ``Tracer`` replaces each listed function on every ``dicbound.*`` module
attribute bound to that function object, so calls made through
``from .x import f`` names are caught too (``dicbound.prover.solve_feasibility``,
``dicbound.regions.induce_joint``).  ``uninstall`` puts every original back.

Each call becomes a span (name, start, end, parent, operation id) kept in
memory; self time is a span's duration minus its child spans.  Per-layer
metrics are normalized per operation, because a closed loop runs more
operations when a layer gets faster and raw totals would hide the gain.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from time import perf_counter


def _count_len(field):
    def count(counters, args, kwargs, result):
        counters[field] = counters.get(field, 0) + len(result)

    return count


def _count_induce_joint(counters, args, kwargs, result):
    counters["atoms"] = counters.get("atoms", 0) + len(result.atoms)


def _count_linprog(counters, args, kwargs, result):
    a_eq = kwargs.get("A_eq")
    if a_eq is not None:
        counters["columns"] = counters.get("columns", 0) + a_eq.shape[1]
    counters["ok"] = counters.get("ok", 0) + bool(result.success)


def _count_solve_feasibility(counters, args, kwargs, result):
    columns = args[0] if args else kwargs["columns"]
    counters["columns"] = counters.get("columns", 0) + len(columns)
    counters["infeasible"] = counters.get("infeasible", 0) + (not result.feasible)


def _count_prove(counters, args, kwargs, result):
    key = "provable" if result.status == "Provable" else "not_provable"
    counters[key] = counters.get(key, 0) + 1


# (module, function) -> (reported stats, counter hook reading args/result)
LAYERS = {
    ("entropy", "induce_joint"): (("calls", "busy_s", "atoms"), _count_induce_joint),
    ("entropy", "conditional_entropy"): (("calls", "busy_s"), None),
    ("regions", "bound_vector"): (("self_s",), None),
    ("regions", "load_templates"): (("calls", "busy_s"), None),
    ("extend", "chain_closed_form"): (("calls", "busy_s"), None),
    ("extend", "builtin_recipe"): (("calls", "busy_s"), None),
    ("extend", "build_extended"): (("calls", "busy_s"), None),
    ("extend", "verify_chain_identity"): (("self_s",), None),
    ("channels", "validate_channel"): (("calls", "busy_s"), None),
    ("networks", "cond_entropy_network"): (("calls", "busy_s"), None),
    ("networks", "network_entropy"): (("calls", "busy_s"), None),
    ("gcs", "validate_chain"): (("calls", "busy_s"), None),
    ("gcs", "evaluate_chain"): (("calls", "self_s"), None),
    ("gcs", "enumerate_chains"): (("calls", "chains"), _count_len("chains")),
    ("prover", "elemental_inequalities"): (("calls", "busy_s", "columns"), _count_len("columns")),
    ("prover", "verify_certificate"): (("calls", "busy_s"), None),
    ("prover", "linprog"): (("calls", "busy_s", "columns", "ok"), _count_linprog),
    ("exactlp", "solve_feasibility"): (
        ("calls", "busy_s", "columns", "infeasible"),
        _count_solve_feasibility,
    ),
    ("prover", "prove"): (("calls", "self_s"), _count_prove),
}

UNITS = {
    "calls": "calls/op",
    "busy_s": "s/op",
    "self_s": "s/op",
    "atoms": "atoms/op",
    "chains": "chains/op",
    "columns": "columns/op",
    "ok": "calls/op",
    "infeasible": "calls/op",
}

# metrics derived from several layers, or from the traced run as a whole
EXTRA_UNITS = {
    "exactlp.solves_per_verdict": "solves/verdict",
    "prover.verdict.provable": "verdicts/op",
    "prover.verdict.not_provable": "verdicts/op",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_share": "share",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for (module, func), (stats, _) in LAYERS.items():
        for stat in stats:
            out[f"{module}.{func}.{stat}"] = UNITS[stat]
    out.update(EXTRA_UNITS)
    return out


def _dicbound_modules():
    return [m for name, m in list(sys.modules.items()) if name == "dicbound" or name.startswith("dicbound.")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, child_s)
        self.counters: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._op = -1
        self._op_start = 0.0
        self._ids = itertools.count()
        self._patched: list[tuple] = []  # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        for (module, func), (_, hook) in LAYERS.items():
            name = f"{module}.{func}"
            original = getattr(importlib.import_module(f"dicbound.{module}"), func, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for mod in _dicbound_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, func, hook):
        counters = self.counters.setdefault(name, {})
        stack = self._stack
        spans = self.spans
        next_id = self._ids.__next__

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next_id(), 0.0]  # span id, child seconds
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    (frame[0], parent[0] if parent else None, self._op, name, start, end, frame[1])
                )
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- operation boundaries ---------------------------------------------

    def begin_op(self, op_id: int):
        self._op = op_id
        self._stack.append([next(self._ids), 0.0])
        self._op_start = perf_counter()

    def end_op(self):
        frame = self._stack.pop()
        end = perf_counter()
        self.spans.append((frame[0], None, self._op, "op", self._op_start, end, frame[1]))

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, scales: dict[int, float]) -> dict[str, float]:
        """Per-operation layer metrics from the recorded spans and counters.

        ``scales`` maps each operation id to its wall-to-reference factor, so
        times come out in reference seconds like the end-to-end latencies.
        """
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        names = {s[0]: s[3] for s in self.spans}
        parents = {s[0]: s[1] for s in self.spans}
        for sid, parent, op, name, start, end, child in self.spans:
            scale = scales.get(op, 1.0)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child) * scale
            # busy time counts only the outermost span of a name, so a
            # function that calls itself is not counted twice
            ancestor = parent
            while ancestor is not None and names.get(ancestor) != name:
                ancestor = parents.get(ancestor)
            if ancestor is None:
                busy[name] = busy.get(name, 0.0) + (end - start) * scale
        per_op = 1.0 / max(len(scales), 1)
        out = {}
        for (module, func), (stats, _) in LAYERS.items():
            name = f"{module}.{func}"
            for stat in stats:
                if stat == "calls":
                    value = calls.get(name, 0)
                elif stat == "busy_s":
                    value = busy.get(name, 0.0)
                elif stat == "self_s":
                    value = self_s.get(name, 0.0)
                else:
                    value = self.counters.get(name, {}).get(stat, 0)
                out[f"{name}.{stat}"] = value * per_op
        proves = calls.get("prover.prove", 0)
        solves = calls.get("exactlp.solve_feasibility", 0)
        out["exactlp.solves_per_verdict"] = solves / proves if proves else 0.0
        verdicts = self.counters.get("prover.prove", {})
        out["prover.verdict.provable"] = verdicts.get("provable", 0) * per_op
        out["prover.verdict.not_provable"] = verdicts.get("not_provable", 0) * per_op
        return out

    def write_spans(self, path):
        """Tab-separated spans: id, parent, op, name, start, end (seconds)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for sid, parent, op, name, start, end, _ in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{op}\t{name}\t{start!r}\t{end!r}\n")
