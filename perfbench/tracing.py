"""In-memory spans around the public functions of each solarinvest layer.

The tracer patches functions on their *defining* module (or class), never on
the ``solarinvest`` re-export, because the package resolves its internal
calls through module globals at call time: ``cli.sweep_boundaries`` reaches
``boundary.integrate_boundary``, which reaches ``boundary.solve_x_tilde`` and
``boundary.ode_rhs``, and ``FundamentalSolution`` reaches
``fundamental.log_weighted_integral``.  Patching the defining module is
therefore enough to see every nested call.

A span is ``(id, name, start, end, parent id, op id, info)``.  Spans of one
timed operation share its op id; set-up spans carry a string label instead.
``info`` holds the error class when the call raised, otherwise a small
per-function summary of the result (quadrature level and achieved tolerance,
path-steps simulated, policy name).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import math
import statistics
import time
from collections import Counter, defaultdict


def _quad_info(args, kwargs, result):
    _, achieved, level = result
    return (level, achieved)


def _estimate_info(args, kwargs, result):
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    steps = int(round(result.horizon / result.dt))
    return (policy.name, result.n_paths * steps)


def _estimate_many_info(args, kwargs, result):
    first = result[0]
    steps = int(round(first.horizon / first.dt))
    return ("many", len(result) * first.n_paths * steps)


def _path_info(args, kwargs, result):
    return ("record", len(result.t) - 1)


def _patch_targets(si):
    """(owner, attribute, span name, info function) for every traced call."""
    f, m, b, v, s, c = (si.fundamental, si.model, si.boundary, si.value,
                        si.simulate, si.cli)
    vf = v.ValueFunction
    return [
        (f, "log_weighted_integral", "fundamental.log_weighted_integral", _quad_info),
        (m, "params_from_dict", "model.params_from_dict", None),
        (b, "integrate_boundary", "boundary.integrate_boundary", None),
        (b, "solve_x_tilde", "boundary.solve_x_tilde", None),
        (b, "ode_rhs", "boundary.ode_rhs", None),
        (vf, "__init__", "value.build", None),
        (vf, "w", "value.w", None),
        (vf, "partials", "value.partials", None),
        (vf, "hjb_residual", "value.hjb_residual", None),
        (s, "estimate_value_many", "simulate.estimate_value_many", _estimate_many_info),
        (s, "estimate_value", "simulate.estimate_value", _estimate_info),
        (s, "simulate_path", "simulate.simulate_path", _path_info),
        (c, "sweep_boundaries", "cli.sweep_boundaries", None),
    ]


class Tracer:
    """Collects spans in memory; :meth:`install` patches the package."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.op = "setup"
        self.psi_lookups = 0
        self._ids = itertools.count()

    def install(self, si) -> None:
        for owner, attr, name, info in _patch_targets(si):
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, info))
        # every psi lookup on the solve path goes through log_psi_deriv; it is
        # counted, not spanned, because it runs ~10x as often as the quadrature
        fs_cls = si.fundamental.FundamentalSolution
        lookup = fs_cls.log_psi_deriv

        @functools.wraps(lookup)
        def counted(*args, **kwargs):
            self.psi_lookups += 1
            return lookup(*args, **kwargs)

        fs_cls.log_psi_deriv = counted

    def _wrap(self, fn, name, info):
        spans, stack, ids, clock = self.spans, self.stack, self._ids, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            detail = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    detail = info(args, kwargs, result)
                return result
            except BaseException as exc:
                detail = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, tracer.op, detail))

        return traced

    def open_op(self, op) -> int:
        """Start the root span of one timed operation; returns its id."""
        self.op = op
        sid = next(self._ids)
        self.stack.append(sid)
        return sid

    def close_op(self, sid, t0, t1) -> None:
        self.stack.pop()
        self.spans.append((sid, "bench.op", t0, t1, self.stack[-1], self.op, None))
        self.op = "between"

    def record(self, name, t0, t1) -> None:
        """Add a span for work the benchmark itself did inside an operation."""
        self.spans.append((next(self._ids), name, t0, t1, self.stack[-1], self.op, None))

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op,info\n")
            for sid, name, t0, t1, parent, op, detail in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{op},"
                         f"\"{'' if detail is None else detail}\"\n")


# -- analysis -------------------------------------------------------------------

def median(values):
    vals = list(values)
    return statistics.median(vals) if vals else 0.0


def layer_metrics(tracer: Tracer, psi_lookups: int) -> dict:
    """Per-layer numbers from the spans of one traced worker.

    Timed operations (integer op ids) give every metric except the
    ``value.build_*`` pair, which also looks at set-up spans labelled
    ``setup`` (warm: same ``FundamentalSolution`` that solved the boundary)
    and ``setup.cold`` (a fresh one).
    """
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, _, t0, t1, parent, _, _ in spans:
        child_time[parent] += t1 - t0

    def self_time(s):
        return (s[3] - s[2]) - child_time[s[0]]

    measured = [s for s in spans if isinstance(s[5], int)]
    ops = [s for s in measured if s[1] == "bench.op"]
    op_ids = {s[0] for s in ops}
    op_time = sum(s[3] - s[2] for s in ops) or math.nan
    named = defaultdict(list)
    layer_self = Counter()
    for s in measured:
        named[s[1]].append(s)
        layer_self[s[1].split(".", 1)[0]] += self_time(s)

    def durations(name, top_level=False):
        return [s[3] - s[2] for s in named[name]
                if not top_level or s[4] in op_ids]

    def errors(name, kinds=None):
        return sum(1 for s in named[name]
                   if isinstance(s[6], str) and (kinds is None or s[6] in kinds))

    def frac(layer):
        return layer_self[layer] / op_time if ops else 0.0

    quad = named["fundamental.log_weighted_integral"]
    levels = [s[6][0] for s in quad if isinstance(s[6], tuple)]
    achieved = [s[6][1] for s in quad if isinstance(s[6], tuple)]
    rhs = named["boundary.ode_rhs"]
    integrates = named["boundary.integrate_boundary"]

    # boundary self time per solve: the integrate span's subtree, minus the
    # quadrature (and any other non-boundary work) nested inside it
    integrate_root = {}

    def root_of(sid):
        chain = []
        while sid != -1 and sid not in integrate_root:
            s = by_id.get(sid)
            if s is None:
                break
            if s[1] == "boundary.integrate_boundary":
                integrate_root[sid] = sid
                break
            chain.append(sid)
            sid = s[4]
        root = integrate_root.get(sid)
        for c in chain:
            integrate_root[c] = root
        return root

    boundary_self = Counter()
    for s in measured:
        if s[1].startswith("boundary."):
            root = root_of(s[0])
            if root is not None:
                boundary_self[root] += self_time(s)

    builds_warm = [s[3] - s[2] for s in spans if s[1] == "value.build"
                   and s[5] != "setup.cold" and not isinstance(s[6], str)]
    builds_cold = [s[3] - s[2] for s in spans if s[1] == "value.build"
                   and s[5] == "setup.cold"]

    def rate(policy):
        rates = [s[6][1] / (s[3] - s[2]) for s in spans
                 if isinstance(s[5], int) and isinstance(s[6], tuple)
                 and s[6][0] == policy]
        return median(rates)

    n_quad = len(quad)
    return {
        "fundamental.quad_calls": n_quad,
        "fundamental.quad_us_p50": 1e6 * median(durations("fundamental.log_weighted_integral")),
        "fundamental.quad_self_frac": frac("fundamental"),
        "fundamental.quad_level_mean": sum(levels) / len(levels) if levels else 0.0,
        "fundamental.quad_level_max": max(levels, default=0),
        "fundamental.quad_achieved_max": max(achieved, default=0.0),
        "fundamental.quad_calls_per_rhs": n_quad / len(rhs) if rhs else 0.0,
        "fundamental.quad_calls_per_query": n_quad / len(ops) if ops else 0.0,
        "fundamental.quad_errors": errors("fundamental.log_weighted_integral"),
        "fundamental.reuse_frac": 1.0 - n_quad / psi_lookups if psi_lookups else 0.0,
        "boundary.integrate_s": median(durations("boundary.integrate_boundary")),
        "boundary.anchor_s": median(durations("boundary.solve_x_tilde")),
        "boundary.rhs_calls": len(rhs),
        "boundary.rhs_us_p50": 1e6 * median(durations("boundary.ode_rhs")),
        "boundary.self_s": median(boundary_self[s[0]] for s in integrates),
        "boundary.self_frac": frac("boundary"),
        "boundary.integration_errors": errors("boundary.integrate_boundary"),
        "value.build_s_warm": median(builds_warm),
        "value.build_s_cold": median(builds_cold),
        "value.w_us_p50": 1e6 * median(durations("value.w", top_level=True)),
        "value.partials_us_p50": 1e6 * median(durations("value.partials", top_level=True)),
        "value.hjb_us_p50": 1e6 * median(durations("value.hjb_residual", top_level=True)),
        "value.self_frac": frac("value"),
        "simulate.many_s": median(durations("simulate.estimate_value_many", top_level=True)),
        "simulate.optimal_msteps_per_s": rate("optimal") / 1e6,
        "simulate.static_msteps_per_s": rate("never_install") / 1e6,
        "simulate.record_steps_per_s": rate("record"),
        "simulate.self_frac": frac("simulate"),
        "model.params_from_dict_us": 1e6 * median(durations("model.params_from_dict")),
        "model.rejections": errors("model.params_from_dict", {"ValidationError"}),
        "model.self_frac": frac("model"),
        "cli.sweep_boundaries_s": median(durations("cli.sweep_boundaries")),
        "cli.self_frac": frac("cli"),
        "bench.self_frac": frac("bench"),
        "trace.spans": len(spans),
    }
