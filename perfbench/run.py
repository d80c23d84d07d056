"""Benchmark of the solarinvest pipeline: one command, four seeded workloads.

    python3 perfbench/run.py --workload {sweep,query,verify,fuzz} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy, and the run
fails (exit 2, no result) when that is missing.

Each run starts worker processes one after another (``worker.py``) and never
more than one at a time; every worker is one closed-loop caller on the
public API.  With ``--trace 0`` three workers set the workload up (two stop
there) and the last one measures it for ``--seconds``; ``setup_s`` is the
median of the three set-ups.  With ``--trace 1`` an untraced worker and a
traced one measure the same inputs one after the other; the per-layer
numbers come from the traced one's spans and the tracing overhead from the
difference of the two.  ``--tiny`` shrinks every size for the smoke test.

Standard output holds a readable report, one line per metric (name, value,
unit, details), and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics below with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full report
and, for traced runs, the spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
BUDGET_S = 170.0
SETUPS = 3

WORKLOADS = ("sweep", "query", "verify", "fuzz")
WORK_UNITS = {"sweep": "RK4 boundary steps", "query": "queries",
              "verify": "Monte Carlo rounds", "fuzz": "parameter sets"}

# (name, unit, better); BENCHMARK.json lists the same, checked by the smoke test
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("fundamental.quad_calls", "count", "lower"),
    ("fundamental.quad_us_p50", "us", "lower"),
    ("fundamental.quad_self_frac", "frac", "lower"),
    ("fundamental.quad_level_mean", "level", "lower"),
    ("fundamental.quad_level_max", "level", "lower"),
    ("fundamental.quad_achieved_max", "log", "lower"),
    ("fundamental.quad_calls_per_rhs", "count", "lower"),
    ("fundamental.quad_calls_per_query", "count", "lower"),
    ("fundamental.quad_errors", "count", "lower"),
    ("fundamental.reuse_frac", "frac", "higher"),
    ("boundary.integrate_s", "s", "lower"),
    ("boundary.anchor_s", "s", "lower"),
    ("boundary.rhs_calls", "count", "lower"),
    ("boundary.rhs_us_p50", "us", "lower"),
    ("boundary.self_s", "s", "lower"),
    ("boundary.self_frac", "frac", "lower"),
    ("boundary.integration_errors", "count", "lower"),
    ("boundary.fp_warnings", "count", "lower"),
    ("value.build_s_warm", "s", "lower"),
    ("value.build_s_cold", "s", "lower"),
    ("value.w_us_p50", "us", "lower"),
    ("value.partials_us_p50", "us", "lower"),
    ("value.hjb_us_p50", "us", "lower"),
    ("value.self_frac", "frac", "lower"),
    ("simulate.many_s", "s", "lower"),
    ("simulate.optimal_msteps_per_s", "M/s", "higher"),
    ("simulate.static_msteps_per_s", "M/s", "higher"),
    ("simulate.record_steps_per_s", "1/s", "higher"),
    ("simulate.self_frac", "frac", "lower"),
    ("model.params_from_dict_us", "us", "lower"),
    ("model.rejections", "count", "lower"),
    ("model.self_frac", "frac", "lower"),
    ("cli.sweep_boundaries_s", "s", "lower"),
    ("cli.self_frac", "frac", "lower"),
    ("bench.self_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class RunError(Exception):
    pass


def _worker(args, mode, deadline, trace=0, spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time budget exhausted before the next worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker exceeded the {BUDGET_S:.0f} s budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _timing(name, samples, scale, unit):
    """Report line for a timing: median, highest percentile with >= 10
    samples beyond it, sample count."""
    vals = sorted(v * scale for v in samples)
    n = len(vals)
    detail = f"n={n}"
    if n > 10:
        detail += f", p{100.0 * (n - 10) / n:.2f}={vals[n - 11]:.6g} {unit}"
    return (name, _median(vals), unit, detail)


def _end_to_end_lines(workload, res, runs, contract):
    """Report lines of the end-to-end metrics.

    The workload's own timings are as measured; ``setup_s`` and
    ``work_per_s`` are at the reference speed, like the result line.
    """
    lat = res["latencies_s"]
    attempted = max(res["attempted"], 1)
    w = res["workload"]
    raw_setups = ", ".join(f"{r['setup_raw_s']:.4f}" for r in runs)
    lines = [
        ("setup_s", contract["setup_s"], "s",
         f"at reference speed; median of {len(runs)}, as measured {raw_setups}"),
        ("work_per_s", contract["work_per_s"], "1/s",
         f"{WORK_UNITS[workload]} per second at reference speed"),
        ("speed", res["speed"], "x", "host speed / reference speed"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", ""),
        ("failed_frac", res["failed"] / attempted, "frac",
         f"{res['failed']}/{res['attempted']} {res['failures'] or ''}".strip()),
    ]
    if workload == "sweep":
        lines += [_timing("solve_s_p50", lat, 1.0, "s"),
                  ("solves_per_s", len(lat) / res["elapsed_s"], "1/s", f"{len(lat)} solves")]
    elif workload == "query":
        lines += [_timing("query_us_p50", lat, 1e6, "us"),
                  ("query_us_p99", 1e6 * _percentile(lat, 99.0), "us", f"n={len(lat)}")]
        lines += [(f"query_share_{r}", w[f"share_{r}"], "frac", "traffic")
                  for r in ("W", "I1", "I2")]
    elif workload == "verify":
        lines += [_timing("verify_s_p50", lat, 1.0, "s"),
                  ("mc_msteps_per_s", w["mc_msteps_per_s"], "M/s",
                   "jobs x paths x steps in estimate_value_many"),
                  ("trace_steps_per_s", w["trace_steps_per_s"], "1/s", "simulate_path")]
    else:
        lines += [("fuzz_solved_frac", w["fuzz_solved_frac"], "frac", f"{len(lat)} attempts"),
                  ("fuzz_untyped_frac", w["fuzz_untyped_frac"], "frac", "")]
        lines += [(k, v, "count", "outcome") for k, v in w.items() if k.startswith("fuzz.")]
    return lines


def _percentile(values, q):
    vals = sorted(values)
    if not vals:
        return 0.0
    return vals[max(0, math.ceil(q / 100.0 * len(vals)) - 1)]


def _contract(res, runs):
    """End-to-end metrics at the reference speed (see reference.py)."""
    norm = res["norm_latencies_s"]
    return {
        "setup_s": _median([r["setup_s"] for r in runs]),
        "work_per_s": sum(res["work"]) / sum(norm),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: one set-up, short solves, few paths")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "solarinvest" / "__init__.py").is_file():
        print(f"run.py: no solarinvest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            base = _worker(args, "measure", deadline)
            res = _worker(args, "measure", deadline, trace=1,
                          spans_out=OUT / f"spans-{tag}.csv.gz")
            runs = [base, res]
        else:
            probes = [_worker(args, "setup", deadline)
                      for _ in range(0 if args.tiny else SETUPS - 1)]
            res = _worker(args, "measure", deadline)
            runs = probes + [res]
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    shown = base if args.trace else res
    lines = _end_to_end_lines(args.workload, shown, runs, _contract(shown, runs))
    metrics_src = _contract(res, runs)
    units = {name: unit for name, unit, _ in END_TO_END}
    if args.trace:
        layers = dict(res["layers"])
        # both workers time the same inputs; compare at the reference speed
        untraced = sum(base["norm_latencies_s"]) / len(base["norm_latencies_s"])
        traced = sum(res["norm_latencies_s"]) / len(res["norm_latencies_s"])
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        metrics_src = layers
        units = {name: unit for name, unit, _ in PER_LAYER}
        lines += [(name, layers[name], unit, "per layer") for name, unit, _ in PER_LAYER]
        lines.append(("trace.spans", layers["trace.spans"], "count", "spans written"))
        lines.append(("trace.quad_plus_boundary_frac",
                      layers["fundamental.quad_self_frac"] + layers["boundary.self_frac"],
                      "frac", "of traced op time; the rest is other layers and overhead"))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics_src[name], "unit": unit}
                    for name, unit in units.items()},
    }

    OUT.mkdir(exist_ok=True)
    report = {"args": vars(args), "report": [list(line) for line in lines],
              "result": result, "warnings": res["warnings"]}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"# solarinvest benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
    for name, value, unit, detail in lines:
        print(f"{name:<34} {value:>16.6g} {unit:<6} {detail}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
