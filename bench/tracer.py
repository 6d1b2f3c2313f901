"""Span tracer for the benchmark's traced run.

Wraps the public layer functions of motzkinq from outside the package: each
wrapper replaces the function in every module namespace that binds it (so
``kernels.s_values`` and ``chains.s_values`` are both seen), records one span
per call in memory, and is removed again by :meth:`Tracer.uninstall`.  The
untraced rounds run the package untouched.

A span is ``(layer, start, end, parent, op, work)``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the benchmark op that caused
it, and ``work`` a unit count taken from the call (states, levels, orders,
path steps), 0 where the layer has none.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter
from types import ModuleType

import numpy as np


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# (home module, function, layer, work units of one call)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("kernels", "local_limit_error_fixed_q", "kernels.local_limit",
     lambda a, k, r: math.floor(_arg(a, k, 0, "N") * _arg(a, k, 1, "t"))),
    ("kernels", "local_limit_error_q_to_1", "kernels.local_limit",
     lambda a, k, r: math.floor(_arg(a, k, 0, "N") * _arg(a, k, 1, "t"))),
    ("kernels", "zeta_transition", "kernels.zeta", None),
    ("kernels", "yakubovich_kernel", "kernels.yakubovich", None),
    ("chains", "transition_arrays", "chains.transition_arrays",
     lambda a, k, r: _arg(a, k, 1, "cap") + 1),
    ("chains", "simulate_chain", "chains.simulate",
     lambda a, k, r: _arg(a, k, 1, "steps")),
    ("ascpoly", "s_values", "ascpoly.s_values",
     lambda a, k, r: _arg(a, k, 0, "nmax") + 1),
    ("ascpoly", "nu_integrate", "ascpoly.nu_integrate", None),
    ("ascpoly", "motzkin_poly_table", "ascpoly.poly_table",
     lambda a, k, r: (_arg(a, k, 0, "nmax") + 1) * int(np.size(_arg(a, k, 1, "xs")))),
    ("qspecial", "bessel_k_imag_grid", "qspecial.bessel_grid",
     lambda a, k, r: int(np.size(_arg(a, k, 0, "us")))),
    ("qspecial", "bessel_k_imag", "qspecial.bessel_k", None),
    ("qspecial", "qpoch_infinite", "qspecial.qpoch", None),
    ("qspecial", "qpoch_finite", "qspecial.qpoch", None),
    ("qspecial", "qpoch_log_abs", "qspecial.qpoch", None),
    ("motzkin", "sample_paths", "motzkin.sample",
     lambda a, k, r: _arg(a, k, 0, "L") * _arg(a, k, 2, "count")),
    ("motzkin", "matrix_ansatz_expectation", "motzkin.transfer", None),
    ("motzkin", "integral_expectation", "motzkin.integral", None),
    ("motzkin", "enumerate_paths", "motzkin.enumerate", lambda a, k, r: len(r)),
    ("verify", "run_checks", "verify.run_checks", None),
]

# self time of these spans is reported under another name: what remains of a
# local-limit call once its wrapped children are removed is the tridiagonal
# stepping, and what remains of the CLI is argument parsing and formatting
SELF_NAMES = {"kernels.local_limit": "chains.step", "cli.main": "cli.self"}


class Tracer:
    """Collects spans from wrapped motzkinq functions; one per process."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, layer: str, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = None
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                units = work(args, kwargs, result) if (ok and work) else 0
                spans[idx] = (layer, start, end, parent, self.op, units)

        return traced

    def install(self) -> None:
        for home, name, layer, work in TARGETS:
            fn = getattr(self.modules[home], name)
            wrapper = self._wrap(layer, fn, work)
            for mod in self.modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()


def durations(spans: list[tuple], op_scale: list[float]) -> list[float]:
    """Span durations on the scale of their op (see speed.SpeedClock)."""
    return [(s[2] - s[1]) * op_scale[s[4]] for s in spans]


def self_times(spans: list[tuple], dur: list[float]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = list(dur)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            out[s[3]] -= d
    return out


def _outermost(spans: list[tuple]) -> list[bool]:
    """True for spans with no ancestor of the same layer, so recursive or
    nested calls of one layer are not counted twice in its total."""
    flags = []
    for s in spans:
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        flags.append(p < 0)
    return flags


def layer_totals(spans: list[tuple], dur: list[float]) -> dict[str, dict[str, float]]:
    """Per layer: calls, inclusive seconds (outermost spans), self seconds
    and work units."""
    tot: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
    for s, d, st, outer in zip(spans, dur, self_times(spans, dur), _outermost(spans)):
        t = tot[s[0]]
        t["calls"] += 1
        t["self_s"] += st
        t["work"] += s[5]
        if outer:
            t["s"] += d
    return tot


def self_by_op_kind(spans: list[tuple], dur: list[float], op_kinds: list[str],
                    op_walls: list[float]) -> dict[str, dict[str, float]]:
    """Self seconds per layer for each op kind; time of an op not covered by
    any span is booked as 'bench' (the benchmark's own call overhead)."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    covered: dict[int, float] = defaultdict(float)
    for s, d, st in zip(spans, dur, self_times(spans, dur)):
        out[op_kinds[s[4]]][SELF_NAMES.get(s[0], s[0])] += st
        if s[3] < 0:
            covered[s[4]] += d
    for op, wall in enumerate(op_walls):
        out[op_kinds[op]]["bench"] += wall - covered[op]
    return {k: dict(v) for k, v in out.items()}


def chain_counts(spans: list[tuple]) -> tuple[int, int]:
    """(state_steps, cap_regrowths): state_steps sums (cap+1)*k over the
    transition tables built inside each local-limit call; a regrowth is every
    table after the first inside one local-limit or simulation call."""
    tables: dict[int, int] = defaultdict(int)
    state_steps = 0
    for s in spans:
        if s[0] != "chains.transition_arrays" or s[3] < 0:
            continue
        parent = spans[s[3]]
        if parent[0] == "kernels.local_limit":
            state_steps += s[5] * parent[5]
        if parent[0] in ("kernels.local_limit", "chains.simulate"):
            tables[s[3]] += 1
    return state_steps, sum(n - 1 for n in tables.values())
