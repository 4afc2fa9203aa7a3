"""contab benchmark: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-dp --seed 1 --seconds 30 --trace 0

It imports contab from the checkout's src/ and runs whole passes over the
workload's operations (see workloads.py) until the next pass would overrun
--seconds.  Every result is checked against its oracle; an exception is
recorded with its type and the pass goes on.  With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer metrics from spans recorded
around contab's public functions (see spans.py).  Human-readable lines come
first; the last line of standard output is one JSON object.  Details of every
run (machine facts, each operation's outcome, the spans) go to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# settings that would change caps behind the benchmark's back
PINNED_ENV = ("CONTAB_STRETCH", "CONTAB_MAX_STATES", "CONTAB_MAX_EVALS")
# idle OpenBLAS workers spin on the second core and slow the Python thread
BLAS_THREADS = "1"
SETUP_PROBES = 5
SETUP_PROBE = "import sys, contab; sys.stdout.write('ready\\n'); sys.stdout.flush()"
MC_SHAPE_NAMES = [workloads.name(quad) for quad, _samples in workloads.MC_SHAPES]


@dataclass
class Outcome:
    """How one operation ended: ok, cap (an expected budget hit), wrong or error."""

    op: str
    status: str
    seconds: float
    cpu_seconds: float
    speed: float        # machine speed during the call, see SpeedProbe
    error: str | None = None
    detail: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status in ("wrong", "error")


@dataclass
class Pass:
    """One pass over the workload: its outcomes and, when traced, its spans."""

    outcomes: list[Outcome]
    tracer: spans.Tracer | None = None

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def ref_seconds(self) -> float:
        return sum(o.seconds * o.speed for o in self.outcomes)

    @property
    def cpu_seconds(self) -> float:
        return sum(o.cpu_seconds for o in self.outcomes)

    def statuses(self) -> list[str]:
        return [o.status for o in self.outcomes]


class SpeedProbe:
    """Samples how fast this machine runs a fixed Python loop while passes run.

    On a shared machine the same code runs at speeds up to 60% apart from one
    second to the next, as other tenants come and go on the cores.  Every
    PERIOD seconds a timer signal times the loop.  An operation's wall time
    times the mean speed of the samples taken during it (REFERENCE over the
    loop's time) is its time at a steady reference speed; pass_ref_s sums
    those.  The samples add about 0.4% to the wall time.
    """

    PERIOD = 0.02
    LOOPS = 1500
    REFERENCE = 1e-4   # seconds the loop is taken to need at the reference speed

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        self._sample(None, None)   # so that speed() always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i
        self.samples.append(time.perf_counter() - t0)

    def speed(self, since: int) -> float:
        """Mean speed relative to the reference over the samples after `since`."""
        recent = self.samples[since:] or self.samples[-1:]
        return statistics.fmean(self.REFERENCE / s for s in recent)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "contab" / "__init__.py").is_file():
        print(f"bench: no contab sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 1
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    setup = [] if args.trace else setup_seconds()
    contab = import_contab()
    ops = workloads.build(args.workload, args.seed, contab)

    passes: list[Pass] = []
    min_passes = 2 if args.trace else 1   # a traced run needs a plain and a traced pass
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            tracer = spans.Tracer() if args.trace and len(passes) % 2 == 1 else None
            gc.collect()
            passes.append(Pass(run_pass(ops, contab, probe, tracer), tracer))
            elapsed = time.perf_counter() - start
            if (len(passes) >= min_passes
                    and elapsed + statistics.median(p.seconds for p in passes) > args.seconds):
                break

    outcomes = [o for p in passes for o in p.outcomes]
    correct = not any(o.status == "wrong" for o in outcomes)
    if args.trace:
        # tracing must not change how any operation ends
        correct = correct and all(p.statuses() == passes[0].statuses() for p in passes)
        metrics = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(setup, passes)
    report(args, passes, metrics)
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": sum(o.failed for o in outcomes), "metrics": metrics}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds() -> list[float]:
    """Seconds from spawning `python -c 'import contab'` until the import is done.

    The first probe also writes bytecode caches, which users pay once per
    install, so it is left out.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], env=env,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.read(6)
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise SystemExit(f"bench: importing contab failed (exit {proc.returncode})")
    return times[1:]


def import_contab():
    sys.path.insert(0, str(SRC))
    contab = importlib.import_module("contab")
    importlib.import_module("contab.cli")
    if Path(contab.__file__).resolve().parent != SRC / "contab":
        raise SystemExit(f"bench: imported contab from {contab.__file__}, not {SRC}")
    return contab


def run_pass(ops, contab, probe, tracer) -> list[Outcome]:
    if tracer is not None:
        tracer.install(contab)
    try:
        return [run_op(op, contab, probe, tracer) for op in ops]
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_op(op, contab, probe, tracer) -> Outcome:
    if tracer is not None:
        tracer.op = op.id
    mark, c0, t0 = len(probe.samples), cpu_seconds(), time.perf_counter()

    def ended(status, error=None, detail=None) -> Outcome:
        return Outcome(op.id, status, time.perf_counter() - t0, cpu_seconds() - c0,
                       probe.speed(mark), error, detail or {})

    try:
        value = op.call()
    except contab.ResourceLimitError as err:
        cap = {"kind": err.kind, "limit": err.limit, "used": err.used}
        return ended("cap" if err.kind == op.expect_cap else "error",
                     type(err).__name__, cap)
    except Exception as err:  # noqa: BLE001 - record the failure, finish the pass
        return ended("error", type(err).__name__, {"message": str(err)[:300]})
    outcome = ended("ok")
    try:
        outcome.detail = {**op.facts, **op.check(value)}
    except workloads.WrongAnswer as err:
        outcome.status, outcome.error = "wrong", "WrongAnswer"
        outcome.detail = {"message": str(err)}
    return outcome


def cpu_seconds() -> float:
    """User and system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# ---------------------------------------------------------------- metrics

def failed_frac(outcomes: list[Outcome]) -> float:
    return sum(o.failed for o in outcomes) / len(outcomes)


def end_to_end_metrics(setup: list[float], passes: list[Pass]) -> dict:
    """The end-to-end metrics of the JSON line, the ones BENCHMARK.json bounds."""
    ok_frac = 1.0 - failed_frac([o for p in passes for o in p.outcomes])
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "pass_ref_s": metric(statistics.median(p.ref_seconds for p in passes), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
        "ops_ok_frac": metric(ok_frac, "frac"),
    }


def printed_metrics(workload: str, passes: list[Pass]) -> dict:
    """End-to-end figures the report prints besides the JSON line's.

    Raw wall and CPU time per pass move by up to a fifth from run to run on a
    shared machine, too much for a bound of at most 0.25, so the JSON line
    carries pass_ref_s instead.  ops_failed_frac is 0 on a healthy workload and
    the Monte Carlo figures exist on mc-sis only, while a JSON metric must be
    nonzero on every workload.
    """
    shown = {
        "pass_s": metric(statistics.median(p.seconds for p in passes), "s"),
        "pass_cpu_s": metric(statistics.median(p.cpu_seconds for p in passes), "s"),
        "ops_failed_frac": metric(failed_frac([o for p in passes for o in p.outcomes]),
                                  "frac"),
    }
    if workload == "mc-sis":
        shown.update(median_metrics([mc_figures(p.outcomes) for p in passes]))
    return shown


def mc_figures(outcomes: list[Outcome]) -> dict:
    """Samples per second, and seconds to a relative SE of 1e-3 summed over shapes."""
    mc = [o for o in outcomes if o.status == "ok" and "samples" in o.detail]
    seconds = sum(o.seconds for o in mc)
    return {
        "mc_samples_per_s": (sum(o.detail["samples"] for o in mc) / seconds if mc else 0.0,
                             "1/s"),
        "mc_s_to_rse_1e-3": (sum((o.seconds * (o.detail["rse"] / 1e-3) ** 2 for o in mc), 0.0),
                             "s"),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    """Median over passes of figures given per pass as (value, unit)."""
    return {key: metric(statistics.median(f[key][0] for f in per_pass), unit)
            for key, (_value, unit) in per_pass[0].items()}


def per_layer_metrics(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.tracer is not None]
    plain = [p for p in passes if p.tracer is None]
    metrics = median_metrics([layer_figures(p.outcomes, p.tracer.spans) for p in traced])
    # compared at the reference speed, so a change of machine load between
    # the traced and the plain passes does not show as overhead
    overhead = (statistics.median(p.ref_seconds for p in traced)
                / statistics.median(p.ref_seconds for p in plain) - 1.0)
    metrics["trace.overhead_frac"] = metric(overhead, "frac")
    return metrics


def layer_figures(outcomes: list[Outcome], trace: list[spans.Span]) -> dict:
    """Per-layer figures of one traced pass, each as (value, unit)."""
    def of(name):
        return [s for s in trace if s.name == name]

    exact = [s for s in trace if s.layer == "exact"]
    capped = [o for o in outcomes if o.status == "cap" and o.op.startswith("exact.")]
    step_s = sum(s.seconds for s in exact if s.op in {o.op for o in capped})
    mc = {o.detail["shape"]: o for o in outcomes
          if o.status == "ok" and "shape" in o.detail}
    mc_spans = {s.op: s for s in of("montecarlo.mc_estimate")}
    quad = [o for o in outcomes if o.op.startswith("integral.") and o.status == "ok"]
    quad_s = sum(s.seconds for s in of("integral.integral_numeric"))
    ehrhart_ids = {i for i, s in enumerate(trace) if s.layer == "ehrhart"}
    figures = {
        "exact.calls": (len(exact), "count"),
        "exact.busy_s": (spans.busy_seconds(trace, "exact"), "s"),
        "exact.cap_hits": (sum(s.error == "ResourceLimitError" for s in exact), "count"),
        "exact.errors": (sum(s.error not in (None, "ResourceLimitError") for s in exact),
                         "count"),
        "exact.steps_per_s": (sum(o.detail["used"] for o in capped) / step_s
                              if capped else 0.0, "1/s"),
        "exact.call_s.p50": (statistics.median(s.seconds for s in exact)
                             if exact else 0.0, "s"),
        "montecarlo.busy_s": (spans.busy_seconds(trace, "montecarlo"), "s"),
    }
    for key, figure in mc_figures(outcomes).items():
        figures["montecarlo." + key.removeprefix("mc_")] = figure
    for shape in MC_SHAPE_NAMES:
        o = mc.get(shape)
        span = mc_spans.get(o.op) if o else None
        figures[f"montecarlo.samples_per_s.{shape}"] = (
            o.detail["samples"] / span.seconds if span else 0.0, "1/s")
        figures[f"montecarlo.ess_frac.{shape}"] = (o.detail["ess_frac"] if o else 0.0,
                                                   "frac")
    figures.update({
        "montecarlo.enumerate_busy_s": (sum(s.seconds for s in
                                            of("montecarlo.enumerate_proposal")), "s"),
        "montecarlo.enumerate_paths": (sum(o.detail.get("paths", 0) for o in outcomes),
                                       "count"),
        "integral.busy_s": (spans.busy_seconds(trace, "integral"), "s"),
        "integral.points_per_s": (sum(o.detail["points"] for o in quad) / quad_s
                                  if quad_s else 0.0, "1/s"),
        "integral.max_rel_error": (max((o.detail["rel_error"] for o in quad), default=0.0),
                                   "frac"),
        "integral.envelope_busy_s": (sum(s.seconds for s in of("integral.envelope_check")),
                                     "s"),
        "ehrhart.busy_s": (spans.busy_seconds(trace, "ehrhart"), "s"),
        "ehrhart.self_s": (spans.self_seconds(trace, "ehrhart"), "s"),
        "ehrhart.exact_calls": (sum(s.parent in ehrhart_ids for s in exact), "count"),
        "estimators.calls": (sum(s.layer == "estimators" for s in trace), "count"),
        "estimators.busy_s": (spans.busy_seconds(trace, "estimators"), "s"),
        "cli.calls": (sum(s.layer == "cli" for s in trace), "count"),
        "cli.self_s": (spans.self_seconds(trace, "cli"), "s"),
    })
    return figures


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- report

def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": openblas_threads(numpy), "machine": platform.machine()}


def openblas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def report(args, passes: list[Pass], metrics: dict) -> None:
    facts = machine_facts()
    print(f"contab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(passes)} passes of {len(passes[0].outcomes)} "
          f"operations")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    shown = dict(metrics)
    if not args.trace:
        shown.update(printed_metrics(args.workload, passes))
    for key, m in shown.items():
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
    for o in passes[0].outcomes:
        if o.status != "ok":
            print(f"  op {o.op}: {o.status} {o.error} {o.detail}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "metrics": shown,
              "passes": [{"outcomes": [asdict(o) for o in p.outcomes],
                          "spans": p.tracer.dump() if p.tracer else None}
                         for p in passes]}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")
    print(f"details: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
