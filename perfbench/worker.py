"""One benchmark process: import the package, set up one workload, measure it.

Started by ``run.py``; not meant to be run by hand.  With ``--mode setup``
the process stops after set-up, so ``run.py`` can take the median of
several set-ups.  With ``--mode measure`` it then runs the workload's units
in a closed loop for ``--seconds`` seconds.  The last line of its standard
output is one JSON object with the raw numbers; ``run.py`` turns them into
the report.

Set-up runs from ``--spawned`` (the parent's ``time.monotonic()`` just before
it started this process; the clock is system-wide) to the end of set-up, so
it includes interpreter start-up and imports.  Every time is reported twice:
as measured, and rescaled to the reference speed (see ``reference.py``) by
reference kernels timed around set-up and between operations.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Ops:
    """Times operations, records failures and numpy warnings per operation.

    An operation's time is made of segments.  A reference sample is taken
    before an operation when ``REF_INTERVAL_S`` has passed since the last
    one, and ``checkpoint`` takes one inside a long operation between two
    segments, so every segment is bracketed by samples.  A sample runs the
    kernel once per ``REF_INTERVAL_S`` elapsed since the previous one (at
    most ``MAX_RUNS`` times), which keeps the kernel's share of the run
    time, and so the noise of the rescaling, alike for short and long
    operations.
    """

    REF_INTERVAL_S = 0.25
    MAX_RUNS = 4

    def __init__(self, tracer, caught, ref_kind):
        self.tracer = tracer
        self.caught = caught
        self.ref_kind = ref_kind
        self.latencies = []
        self.work = []
        self.attempted = 0
        self.failed_ops = set()
        self.failures = Counter()
        self.warnings = Counter()
        self.op = None
        self.refs = []          # (start, span, mean kernel time) per sample
        self.segments = []      # (op, start, end) of timed work
        self._seg_start = 0.0

    def sample(self):
        since = time.perf_counter() - sum(self.refs[-1][:2]) if self.refs else 0.0
        runs = min(self.MAX_RUNS, max(1, int(since / self.REF_INTERVAL_S)))
        t0 = time.perf_counter()
        kernel = statistics.fmean(reference.sample(self.ref_kind) for _ in range(runs))
        self.refs.append((t0, time.perf_counter() - t0, kernel))

    def maybe_sample(self):
        start, span, _ = self.refs[-1]
        if time.perf_counter() - (start + span) >= self.REF_INTERVAL_S:
            self.sample()

    def checkpoint(self):
        """Inside an operation: close the running segment, sample, reopen."""
        t0 = time.perf_counter()
        self.segments.append((self.op, self._seg_start, t0))
        self.sample()
        self._seg_start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record("reference.sample", t0, self._seg_start)

    def run(self, fn, typed=None, work=1.0):
        """Run one timed operation; returns (result, exception or None).

        ``work`` is the operation's size in the workload's unit of work.  An
        exception counts as a failure unless it is an instance of ``typed``
        (the workload's expected error class).
        """
        self.maybe_sample()
        self.op = self.attempted
        self.attempted += 1
        first_segment = len(self.segments)
        tracer = self.tracer
        if tracer is not None:
            sid = tracer.open_op(self.op)
        exc = out = None
        t0 = self._seg_start = time.perf_counter()
        try:
            out = fn()
        except Exception as err:  # reported per operation, never fatal
            exc = err
        t1 = time.perf_counter()
        self.segments.append((self.op, self._seg_start, t1))
        if tracer is not None:
            tracer.close_op(sid, t0, t1)
        self.latencies.append(sum(b - a for _, a, b in self.segments[first_segment:]))
        self.work.append(work)
        if self.caught:
            for w in self.caught:
                if issubclass(w.category, RuntimeWarning):
                    self.warnings[Path(w.filename).stem] += 1
            self.caught.clear()
        if exc is not None and not (typed and isinstance(exc, typed)):
            self.check(type(exc).__name__)
        return out, exc

    def check(self, reason):
        """Mark the latest operation failed when ``reason`` is not None.

        Before the first timed operation this checks set-up, which then
        counts as one attempted operation of its own.
        """
        if reason is None:
            return
        if self.op is None:
            self.attempted += 1
            self.op = "setup"
        self.failed_ops.add(self.op)
        self.failures[reason] += 1

    def normalised_latencies(self):
        """Operation times rescaled by the reference samples around them."""
        starts = [s for s, _, _ in self.refs]
        ends = [s + span for s, span, _ in self.refs]
        nominal = reference.NOMINAL_S[self.ref_kind]
        per_op = defaultdict(float)
        for op, a, b in self.segments:
            near = self.refs[max(0, bisect.bisect_right(ends, a) - 1):
                             bisect.bisect_left(starts, b) + 1]
            local = statistics.fmean(k for _, _, k in near)
            per_op[op] += (b - a) * nominal / local
        return [per_op[op] for op in sorted(per_op)]


def _import_package():
    src = ROOT / "src"
    if not (src / "solarinvest" / "__init__.py").is_file():
        sys.exit(f"worker: no solarinvest package under {src}")
    sys.path.insert(0, str(src))
    import solarinvest
    import solarinvest.boundary
    import solarinvest.cli
    import solarinvest.errors
    import solarinvest.fundamental
    import solarinvest.model
    import solarinvest.simulate
    import solarinvest.value
    if not Path(solarinvest.__file__).resolve().is_relative_to(src):
        sys.exit(f"worker: imported solarinvest from {solarinvest.__file__}, not {src}")
    return solarinvest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    # set-up is rescaled by "interp" samples: one now, one after each
    # checkpoint the workload's set-up makes, one at its end
    ops = Ops(tracer=None, caught=None, ref_kind="interp")
    ops.sample()
    si = _import_package()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(si)
    sizes = workloads.TINY if args.tiny else workloads.FULL
    rng = np.random.default_rng(
        np.random.SeedSequence([args.seed, sorted(workloads.WORKLOADS).index(args.workload)]))
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(si, rng, args.seed, sizes, tracer)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ops.tracer, ops.caught = tracer, caught
        workload.setup(ops)
        caught.clear()
        setup_raw = time.monotonic() - args.spawned - sum(span for _, span, _ in ops.refs)
        ops.sample()
        setup_s = setup_raw * reference.NOMINAL_S["interp"] / statistics.fmean(
            k for _, _, k in ops.refs)
        result = {"setup_s": setup_s, "setup_raw_s": setup_raw,
                  "attempted": ops.attempted, "failed": len(ops.failed_ops)}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        if tracer is not None:
            tracer.psi_lookups = 0
        ops.ref_kind, ops.refs, ops.segments = cls.REF_KIND, [], []
        ops.sample()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            workload.run_unit(ops)
        elapsed = time.perf_counter() - start
        ops.sample()

    refs = [k for _, _, k in ops.refs]
    result.update({
        "attempted": ops.attempted,
        "failed": len(ops.failed_ops),
        "failures": dict(ops.failures),
        "warnings": dict(ops.warnings),
        "elapsed_s": elapsed,
        "latencies_s": ops.latencies,
        "work": ops.work,
        "norm_latencies_s": ops.normalised_latencies(),
        "speed": reference.NOMINAL_S[cls.REF_KIND] / statistics.median(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workload": workload.summary(),
    })
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, tracer.psi_lookups)
        layers["boundary.fp_warnings"] = ops.warnings.get("boundary", 0)
        result["layers"] = layers
        if args.spans_out:
            tracer.write(Path(args.spans_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
