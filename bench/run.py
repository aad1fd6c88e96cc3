"""mapda benchmark: one closed-loop client sending ``mapda`` CLI requests.

    python3 bench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

Inputs come from ``--seed`` (``inputs.py`` writes them without importing
the package).  Each request runs in-process through ``mapda.cli.main`` from
``src/`` of this checkout, one at a time, and every output is checked.  A
pass is the workload's fixed request list; after one warm-up pass, passes
repeat until ``--seconds`` have elapsed.  The last stdout line is a JSON
object ``{correct, attempted, failed, metrics}``; the exit code is 1 when a
check failed and 2 when the package cannot be imported.

End-to-end metrics (``--trace 0``); every time is scaled to a fixed
reference kernel timed around it, as ``timed`` explains:
  setup_s        median of several import-plus-input-generation rounds
  wall_s         median time of one pass
  req_p50_ms     median request latency
  packets_per_s  median over passes of packets K(F-Z) of the pass's arrays
                 per second of pass time (delivered packets on deliver-*;
                 grid cells that gen and validate process on catalog)
  peak_rss_mb    peak resident memory of the process

Per-layer metrics (``--trace 1``) come from a traced run that alternates
untraced and traced passes; each is the median over traced passes, per
pass unless named per request or per simulate request.  Self times are
raw seconds.  ``trace.overhead_s`` is traced minus untraced ``wall_s``.  Which end-to-end metric each should move:
  arrays.*   wall_s on catalog and deliver-float; parse/generate move
             req_p50_ms on catalog
  engine.*   packets_per_s on both deliver-* workloads
  linalg.*   packets_per_s on deliver-exact, then deliver-float
  metrics.*  wall_s on catalog
  cli.self_s req_p50_ms on catalog (argparse, file I/O, JSON output)
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 15
REFERENCE_S = 0.006  # nominal time of reference_kernel(); see timed()
MIN_PASSES = 3
PHASES = ("precoder_synthesis", "uplink_encode", "bs_forward", "user_decode")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "packets_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class PackageMissing(Exception):
    """The checkout has no importable ``src/mapda``."""


def import_package():
    """Import ``mapda`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "mapda" or n.startswith("mapda.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("mapda")
        importlib.import_module("mapda.cli")
    except ImportError as exc:
        raise PackageMissing(f"cannot import mapda from {src}: {exc}") from None
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise PackageMissing(f"mapda resolved to {package.__file__}, not under {src}")
    return package


def reference_kernel():
    """Fixed stdlib work, independent of ``mapda``, with the workloads' mix
    of Fraction, complex, tuple-scan, dict and string operations."""
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    z = 0j
    for i in range(6000):
        z = z * 0.5 + complex(i, -i)
    row = tuple(range(100))
    hits = sum(1 for k in range(900) if k in row)
    counts = {}
    for i in range(9000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    text = ",".join(str(i) for i in range(3000))
    return acc, z, hits, len(counts), len(text)


def reference_seconds():
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def timed(fn, *args):
    """Run fn once; returns (result, seconds scaled to REFERENCE_S).

    The host this benchmark was tuned on changes the speed of a CPU by up
    to a third, in phases from under a second to minutes, so raw times of
    equal work spread by ~25% between runs.  The reference kernel is timed
    right before and after the call, and the call's time is divided by
    their mean: the result is the time the call would take where the
    kernel takes REFERENCE_S, and a change to ``mapda`` moves it just as
    it moves raw time, since the kernel does not use the package.
    """
    before = reference_seconds()
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    after = reference_seconds()
    return result, elapsed * REFERENCE_S * 2 / (before + after)


def setup(workload, seed, workdir, smoke):
    """Repeat import plus input generation; returns (package, requests, times)."""
    times = []
    for _ in range(SETUP_ROUNDS):
        (package, requests), seconds = timed(
            lambda: (import_package(), workloads.build(workload, seed, workdir, smoke))
        )
        times.append(seconds)
    return package, requests, times


class Client:
    """Closed loop: the next request is sent when the previous one returns."""

    def __init__(self, package, requests, tracer=None):
        self.package = package
        self.requests = requests
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.first_stdout = {}
        self.sent = 0

    def send(self, request):
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.request = self.sent
        self.sent += 1
        with redirect_stdout(out), redirect_stderr(err):
            code, elapsed = timed(self.call, request.argv)
        return code, out.getvalue(), elapsed

    def call(self, argv):
        try:
            return self.package.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed request, not a dead benchmark
            return f"{type(exc).__name__}: {exc}"

    def run_pass(self):
        """One pass over the request list; returns its record.  Every
        stdout must equal the warm-up pass's, which is untraced, so traced
        output is checked to be byte-identical to untraced output."""
        latencies, ops, ids = [], [], []
        for index, request in enumerate(self.requests):
            ids.append(self.sent)
            code, stdout, elapsed = self.send(request)
            self.attempted += 1
            reason = request.check(code, stdout)
            if reason is None:
                if stdout != self.first_stdout.setdefault(index, stdout):
                    reason = "stdout differs from the warm-up pass"
            if reason is not None:
                self.failures.append(f"{request.label}: {reason}")
            latencies.append(elapsed)
            if request.simulate and reason is None:
                report = json.loads(stdout)
                ops.append((report["ops_measured"], Fraction(str(report["ops_model"]))))
        return {"latencies": latencies, "ops": ops, "ids": ids}


def timed_passes(client, seconds, alternate_traced=None):
    """Warm-up pass, then passes until ``seconds`` have elapsed.  With
    ``alternate_traced`` (an install callable), each round runs one
    untraced and one traced pass; returns (untraced, traced) records."""
    client.run_pass()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(plain) < MIN_PASSES:
        plain.append(client.run_pass())
        if alternate_traced is not None:
            restore = alternate_traced()
            try:
                traced.append(client.run_pass())
            finally:
                restore()
    return plain, traced


def end_to_end(setup_times, passes, requests):
    packets = sum(r.packets for r in requests)
    walls = [sum(p["latencies"]) for p in passes]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "req_p50_ms": 1000 * statistics.median(x for p in passes for x in p["latencies"]),
        "packets_per_s": statistics.median(packets / wall for wall in walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# (metric, span names summed, field) with field 0 = calls, 1 = self seconds.
SPAN_METRICS = (
    ("arrays.validate.calls", ("arrays.validate",), 0),
    ("arrays.validate.self_s", ("arrays.validate",), 1),
    ("arrays.profile.calls", ("arrays.profile",), 0),
    ("arrays.slot_cells.calls", ("arrays.slot_cells",), 0),
    ("arrays.slot_cells.self_s", ("arrays.slot_cells",), 1),
    ("arrays.parse_mapda.self_s", ("arrays.parse_mapda",), 1),
    (
        "arrays.generate.self_s",
        ("arrays.generate_mn_pda", "arrays.generate_cyclic", "arrays.replicate"),
        1,
    ),
    ("engine.build_instance.self_s", ("engine.build_instance",), 1),
    ("engine.synthesize_precoder.calls", ("engine.synthesize_precoder",), 0),
    ("engine.synthesize_precoder.self_s", ("engine.synthesize_precoder",), 1),
    ("engine.run_slot.self_s", ("engine.run_slot",), 1),
    ("engine.run_delivery.self_s", ("engine.run_delivery",), 1),
    ("linalg.matmul.calls", ("linalg.matmul",), 0),
    ("linalg.matmul.self_s", ("linalg.matmul",), 1),
    ("linalg.solve.calls", ("linalg.solve",), 0),
    ("linalg.solve.self_s", ("linalg.solve",), 1),
    ("linalg.conj_transpose.self_s", ("linalg.conj_transpose",), 1),
    ("metrics.table_report.self_s", ("metrics.table_report",), 1),
)
LAYER_NAMES = ("cli",) + tracing.LAYERS


def per_layer(tracer, plain, traced, requests):
    """Per-layer metrics of each traced pass; the median over passes."""
    table = tracing.per_request(tracer)
    n_sim = sum(r.simulate for r in requests)

    def per_simulate(value):
        return value / n_sim if n_sim else 0

    rows = []
    for p in traced:
        spans, sim_spans = {}, {}
        for request_id, request in zip(p["ids"], requests):
            for name, (calls, self_s) in table[request_id].items():
                for target in (spans, sim_spans) if request.simulate else (spans,):
                    entry = target.setdefault(name, [0, 0.0])
                    entry[0] += calls
                    entry[1] += self_s
        row = {
            metric: sum(spans.get(n, (0, 0.0))[field] for n in names)
            for metric, names, field in SPAN_METRICS
        }
        for layer in LAYER_NAMES:
            row[f"{layer}.self_s"] = sum(v[1] for n, v in spans.items() if n.split(".")[0] == layer)
        row["arrays.validate.calls_per_simulate"] = per_simulate(sim_spans.get("arrays.validate", [0])[0])
        row["engine.channel_attempts_per_req"] = per_simulate(sim_spans.get("engine.run_delivery", [0])[0])
        for phase in PHASES:
            for op in ("mul", "add"):
                total = sum(measured.get(phase, {}).get(op, 0) for measured, _ in p["ops"])
                row[f"engine.ops.{phase}.{op}"] = per_simulate(total)
        # Measured multiplications of all phases over the report's r^3 + r^2 + t*r model.
        measured_mul = sum(m.get(phase, {}).get("mul", 0) for m, _ in p["ops"] for phase in PHASES)
        model = sum(model for _, model in p["ops"])
        row["engine.ops_measured_over_model"] = float(measured_mul / model) if model else 0
        row["trace.spans"] = sum(v[0] for v in spans.values())
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(
        sum(p["latencies"]) for p in traced
    ) - statistics.median(sum(p["latencies"]) for p in plain)
    return metrics


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "engine.ops_measured_over_model":
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("MAPDA_SEED", None)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        package, requests, setup_times = setup(args.workload, args.seed, workdir, args.smoke)
        client = Client(package, requests, tracer)
        if tracer is None:
            plain, _ = timed_passes(client, args.seconds)
            metrics = end_to_end(setup_times, plain, requests)
        else:
            plain, traced = timed_passes(client, args.seconds, lambda: tracing.install(tracer, package))
            metrics = per_layer(tracer, plain, traced, requests)
            tracer.write(workdir.parent / f"spans-{args.workload}.jsonl")
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in client.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted, failed = client.attempted, len(client.failures)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit_of(name)}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed}/{attempted} requests)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
