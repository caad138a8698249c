"""Span tracing from outside the package, for the traced benchmark run.

``Tracer.install`` replaces the public functions listed in ``HOOKS`` by
wrappers, at every ``switchbif`` module attribute that refers to them
(modules import each other's functions by name, so each call site has
its own reference).  A wrapper records a span (name, start, end,
parent, op id) plus counters read at the same boundary, but only while
an op id is set; outside ops it calls straight through.

RHS evaluations have no public boundary.  They are counted by wrapping
the per-quadrant closures that ``switchbif.numeric._compiled_fields``
returns; if that name is gone, ``rhs_hook`` is False and the metrics
that need it read null.

Spans stay in memory until ``dump``; ``layer_metrics`` derives self
times (span duration minus the time its child spans cover) from them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

import numpy as np

#: module -> public functions wrapped as that module's layer boundary
HOOKS = {
    "cli": ("main",),
    "config": ("parse_config", "paper_example_config"),
    "analytic": ("flow_linear", "section_map", "delta", "delta_prime",
                 "classify_origin", "poincare_linear"),
    "model": ("eval_terms", "collect_terms"),
    "numeric": ("integrate", "poincare_numeric", "return_residual", "delta_numeric"),
    "rootfind": ("brent", "expand_bracket"),
    "bifurcation": ("find_critical_lambda", "fit_local_expansion",
                    "bifurcation_direction", "continue_branch", "fit_scaling_law",
                    "check_global_conditions"),
}

# span record fields
NAME, START, END, PARENT, OP, ERROR, RHS0, RHS1, ATTRS = range(9)


def _integrate_attrs(attrs, args, kwargs, result):
    attrs["steps"] = result.n_steps
    attrs["events"] = len(result.events)
    attrs["t_final"] = result.t_final


def _eval_terms_attrs(attrs, args, kwargs, result):
    # computed, not measured: read x1 and x2 once and write the result once
    attrs["bytes"] = (np.asarray(args[1]).nbytes + np.asarray(args[2]).nbytes
                      + np.asarray(result).nbytes)


def _global_check_attrs(attrs, args, kwargs, result):
    attrs["samples"] = result.samples_used


def _continue_branch_attrs(attrs, args, kwargs, result):
    attrs["lambdas"] = len(list(args[1]))


_RESULT_HOOKS = {
    "numeric.integrate": _integrate_attrs,
    "model.eval_terms": _eval_terms_attrs,
    "bifurcation.check_global_conditions": _global_check_attrs,
    "bifurcation.continue_branch": _continue_branch_attrs,
}
#: root finders: count evaluations of the function they are given
_COUNT_FIRST_ARG = ("rootfind.brent", "rootfind.expand_bracket")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.rhs = [0]
        self.rhs_hook = False
        self.missing: list[str] = []

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "switchbif" or name.startswith("switchbif.")]
        for short, names in HOOKS.items():
            mod = importlib.import_module(f"switchbif.{short}")
            for fname in names:
                original = getattr(mod, fname, None)
                if original is None:
                    tracer.missing.append(f"{short}.{fname}")
                    continue
                wrapper = tracer._wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        numeric = importlib.import_module("switchbif.numeric")
        compiled = getattr(numeric, "_compiled_fields", None)
        if compiled is not None:
            numeric._compiled_fields = tracer._counting_fields(compiled)
            tracer.rhs_hook = True
        return tracer

    def _wrap(self, name, fn):
        on_result = _RESULT_HOOKS.get(name)
        count_arg = name in _COUNT_FIRST_ARG
        spans, stack, rhs = self.spans, self.stack, self.rhs

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.op,
                    None, rhs[0], None, {}]
            if count_arg:
                f, attrs = args[0], span[ATTRS]
                attrs["evals"] = 0

                def counted(*a):
                    attrs["evals"] += 1
                    return f(*a)
                args = (counted,) + args[1:]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                span[RHS1] = rhs[0]
                stack.pop()
            if on_result is not None:
                on_result(span[ATTRS], args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_fields(self, compiled):
        rhs = self.rhs

        def count(f):
            def counted(x1, x2):
                rhs[0] += 1
                return f(x1, x2)
            return counted

        def counting_fields(*args, **kwargs):
            fields = compiled(*args, **kwargs)
            if self.op is None:
                return fields
            return {q: count(f) for q, f in fields.items()}
        return counting_fields

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error",
                                  "rhs_start", "rhs_end", "attrs"],
                       "spans": self.spans}, fh)


def _children_time(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return covered


def layer_metrics(spans, ops, rhs_hook: bool) -> dict:
    """Per-layer metrics over the spans of the given op ids.

    Counts and times are per op unless the name says otherwise; a ratio
    whose base is zero on a workload reads 0.
    """
    ops = set(ops)
    n_ops = max(1, len(ops))
    covered = _children_time(spans)
    sel = [i for i, s in enumerate(spans) if s[OP] in ops]

    def named(prefix):
        return [i for i in sel if spans[i][NAME].startswith(prefix)]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_ms(idx):
        return 1e3 * sum(dur(i) - covered[i] for i in idx)

    def attr(idx, key):
        return sum(spans[i][ATTRS].get(key, 0) for i in idx)

    def per_op(x):
        return x / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    cli = named("cli.")
    config = [i for i in named("config.") if not _inside(spans, i, "config.")]
    analytic = named("analytic.")
    eval_terms = named("model.eval_terms")
    integ = named("numeric.integrate")
    returns = named("numeric.poincare_numeric")
    brent = named("rootfind.brent")
    expand = named("rootfind.expand_bracket")
    bif = named("bifurcation.")
    branch = named("bifurcation.continue_branch")
    gcheck = named("bifurcation.check_global_conditions")

    rhs_total = sum(spans[i][RHS1] - spans[i][RHS0] for i in cli)
    rhs_returns = sum(spans[i][RHS1] - spans[i][RHS0] for i in returns)
    steps = attr(integ, "steps")
    parent_of = {"bifurcation.continue_branch": "scan", "rootfind.expand_bracket": "bracket",
                 "rootfind.brent": "brent"}
    split = {"scan": 0, "bracket": 0, "brent": 0}
    branch_returns = 0
    for i in returns:
        p = spans[i][PARENT]
        kind = parent_of.get(spans[p][NAME]) if p >= 0 else None
        if kind is not None:
            split[kind] += 1
            branch_returns += 1
    gcheck_s = sum(dur(i) for i in gcheck)

    m = {
        "cli.self_ms_per_op": (per_op(self_ms(cli)), "ms/op"),
        "config.parse_ms": (per_op(1e3 * sum(dur(i) for i in config)), "ms/op"),
        "config.parse_calls": (per_op(len(named("config.parse_config"))), "count/op"),
        "analytic.calls": (per_op(len(analytic)), "count/op"),
        "analytic.self_ms_per_op": (per_op(self_ms(analytic)), "ms/op"),
        "model.rhs_evals": (per_op(rhs_total) if rhs_hook else None, "count/op"),
        "model.eval_terms_calls": (per_op(len(eval_terms)), "count/op"),
        "model.eval_terms_ms": (per_op(1e3 * sum(dur(i) for i in eval_terms)), "ms/op"),
        "numeric.integrate_calls": (per_op(len(integ)), "count/op"),
        "numeric.integrate_self_ms": (per_op(self_ms(integ)), "ms/op"),
        "numeric.steps_accepted": (per_op(steps), "count/op"),
        "numeric.events": (per_op(attr(integ, "events")), "count/op"),
        "numeric.returns": (per_op(len(returns)), "count/op"),
        "numeric.return_ms_p50": (1e3 * statistics.median([dur(i) for i in returns])
                                  if returns else 0.0, "ms"),
        "numeric.rhs_evals_per_return": (ratio(rhs_returns, len(returns))
                                         if rhs_hook else None, "count"),
        "numeric.useful_eval_ratio": (ratio(6 * steps, rhs_total) if rhs_hook else None,
                                      "ratio"),
        "numeric.failed_integrations": (per_op(sum(1 for i in integ if spans[i][ERROR])),
                                        "count/op"),
        "numeric.sim_time_per_s": (ratio(attr(integ, "t_final"),
                                         sum(dur(i) for i in integ)), "1/s"),
        "rootfind.brent_calls": (per_op(len(brent)), "count/op"),
        "rootfind.brent_evals": (per_op(attr(brent, "evals")), "count/op"),
        "rootfind.expand_calls": (per_op(len(expand)), "count/op"),
        "rootfind.expand_evals": (per_op(attr(expand, "evals")), "count/op"),
        "rootfind.self_ms": (per_op(self_ms(brent + expand)), "ms/op"),
        "bifurcation.returns_per_point": (ratio(branch_returns, attr(branch, "lambdas")),
                                          "count"),
        "bifurcation.scan_returns": (per_op(split["scan"]), "count/op"),
        "bifurcation.bracket_returns": (per_op(split["bracket"]), "count/op"),
        "bifurcation.brent_returns": (per_op(split["brent"]), "count/op"),
        "bifurcation.self_ms": (per_op(self_ms(bif)), "ms/op"),
        "bifurcation.global_check_ms": (per_op(1e3 * gcheck_s), "ms/op"),
        "bifurcation.samples_per_s": (ratio(attr(gcheck, "samples"), gcheck_s), "1/s"),
        "bifurcation.global_check_bytes_computed": (
            per_op(sum(spans[i][ATTRS].get("bytes", 0) for i in eval_terms
                       if _inside(spans, i, "bifurcation.check_global_conditions"))),
            "B/op"),
    }
    return m


def _inside(spans, i, prefix) -> bool:
    """Whether span i has an ancestor whose name starts with prefix."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME].startswith(prefix):
            return True
        p = spans[p][PARENT]
    return False


def calibration_counters(spans, rhs_hook: bool) -> dict:
    """Work counters of the calibration ops (reported, never asserted)."""
    def of(op):
        return layer_metrics(spans, [op], rhs_hook)

    branch = of("calib-branch")
    out = {
        "calib.branch_rhs_evals": (branch["model.rhs_evals"][0], "count"),
        "calib.branch_returns": (branch["numeric.returns"][0], "count"),
        "calib.branch_scan_returns": (branch["bifurcation.scan_returns"][0], "count"),
        "calib.branch_bracket_returns": (branch["bifurcation.bracket_returns"][0], "count"),
        "calib.branch_brent_returns": (branch["bifurcation.brent_returns"][0], "count"),
    }
    for x in ("x0.5", "x1e-4"):
        out[f"calib.return_{x}_rhs_evals"] = (of(f"calib-{x}")["model.rhs_evals"][0], "count")
    return out
