"""ternrep benchmark: witness latency and scan throughput on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark imports ternrep from ./src and
drives it through ``ternrep.cli.dispatch`` in-process, exactly as the
``ternrep`` command would run: ``witness --json`` for the witness
workloads, ``scan`` for the scan workloads.  Every workload is a closed
loop: one caller in one process sends the next call only after the
previous one returned.  Every output is checked; a failed check counts in
``failed`` and makes the exit code 1.

With ``--trace 0`` the run measures the end-to-end metrics with no tracing
installed.  The host's speed drifts by up to a fifth over minutes, because
other tenants share its cores, and that moves every wall-clock time alike.
So a fixed reference loop is timed just before and just after every call,
and the gated times are each divided by the mean of the two loops around
them and quoted at the loop's nominal time REF_MS: milliseconds on a
machine running at the reference speed.  The report line keeps the raw
wall-clock values next to them.

With ``--trace 1`` it runs the same inputs untraced and then traced,
requires byte-identical stdout from both, and reports the per-layer
metrics from the spans; the spans go to ``.bench_out/spans-<workload>.csv.gz``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it is a JSON report with the run
metadata, the sample count of every metric and the details behind it.
"""

import argparse
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Rows per scan call: a few hundred calls per run, each a real range scan.
SCAN_WIDTH = 500
# p90 needs at least ten samples beyond it.
MIN_CALLS = 100
# Set-up (import, input generation, warm-up) is repeated and its median kept.
SETUP_REPS = 9
# Inputs generated during set-up; a longer run draws more from the stream.
POOL = {"witness": 256, "scan": 64}
# Trace runs replay the untraced inputs, so each pass gets a share of the
# run; a scan row makes about 20 spans, so scans get a smaller share.
TRACE_SHARE = {"witness": 0.45, "scan": 0.1}
# Iterations of the reference loop, and the loop's nominal time: about its
# time on a 2-vCPU Xeon with Python 3.11.7.
REF_ITERS = 6000
REF_MS = 2.0
# Reference loops timed on each side of a set-up; their median is used.
SETUP_REF_REPS = 5


@dataclass(frozen=True)
class Request:
    """One CLI call: a witness for m = lo, or with hi a scan of [lo, hi]."""
    form: str
    lo: int
    hi: int | None = None

    def argv(self, jobs: int) -> list:
        if self.hi is None:
            return ["witness", "--form", self.form, "--m", str(self.lo), "--json"]
        return ["scan", "--form", self.form, "--lo", str(self.lo),
                "--hi", str(self.hi), "--jobs", str(jobs)]

    @property
    def items(self) -> int:
        return 1 if self.hi is None else self.hi - self.lo + 1


@dataclass
class Call:
    request: Request
    seconds: float
    ref_seconds: float  # mean of the reference loops just before and after
    error: str | None
    stdout: str | None

    @property
    def norm_seconds(self) -> float:
        return self.seconds * REF_MS / 1000 / self.ref_seconds


class SetupError(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    kind: str  # "witness" or "scan"
    jobs: int
    requests: Callable  # seed -> endless stream of Request


def _witnesses(generate):
    return lambda seed: (Request(f, m) for f, m in generate(seed))


def _windows(seed):
    return (Request(f, lo, hi) for f, lo, hi in inputs.scan_windows(seed, SCAN_WIDTH))


WORKLOADS = {
    # The Theta(sqrt m) lattice scan in enumerate_point dominates.
    "witness-large": Workload("witness", 1, _witnesses(inputs.witness_large)),
    # Factoring m = 4^k s^2 core with a prime s > 10^6 dominates; the
    # lattice step is a few percent.
    "witness-bigsquare": Workload("witness", 1, _witnesses(inputs.witness_bigsquare)),
    # The brute-force oracle is about half of each scan row.
    "scan-low": Workload("scan", 1, _windows),
    # The same windows on nproc = 2 workers: the only workload that runs
    # scan_compare's process pool.
    "scan-low-jobs2": Workload("scan", 2, _windows),
}


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- checks

def check_witness(req: Request, rc: int, out: str) -> str | None:
    if rc != 0:
        return "exit code %d" % rc
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON object"
    want = inputs.verdict(req.form, req.lo)
    if doc.get("form") != req.form or doc.get("m") != req.lo:
        return "witness is for another input"
    if doc.get("verdict") != want or doc.get("eligible") is not (want == "eligible"):
        return "verdict %r, closed form says %r" % (doc.get("verdict"), want)
    if doc.get("verified") is not True:
        return "verified is not true"
    rep = doc.get("representation")
    if not (isinstance(rep, list) and len(rep) == 3
            and inputs.evaluate(req.form, rep) == req.lo):
        return "representation %r does not evaluate to m" % (rep,)
    return None


_SCAN_HEADER = "m,verdict,pipeline_found,oracle_found,agree,x,y,z,q,elapsed_micros"


def check_scan(req: Request, rc: int, out: str) -> str | None:
    if rc != 0:
        return "exit code %d" % rc
    lines = out.split("\n")
    if lines[0] != _SCAN_HEADER or lines[-1] != "":
        return "malformed CSV"
    rows = lines[1:-1]
    if len(rows) != req.items:
        return "%d rows for a window of %d" % (len(rows), req.items)
    exact = req.form in inputs.EXACT_FORMS
    for m, line in zip(range(req.lo, req.hi + 1), rows):
        cols = line.split(",")
        if len(cols) != 10 or cols[0] != str(m):
            return "row for m = %d is malformed" % m
        want = inputs.verdict(req.form, m)
        found = want == "eligible"
        # Exact forms: the oracle finds m iff it is eligible.  Covered-case
        # forms: an eligible m must be found by both; outside the covered
        # cases the oracle may or may not find one.
        oracle = found if exact or found else cols[3] == "true"
        expect = [want, _b(found), _b(oracle), "true"]
        if cols[1:5] != expect:
            return "row %d reads %s, expected %s" % (m, cols[1:5], expect)
        if cols[5]:
            if inputs.evaluate(req.form, [int(v) for v in cols[5:8]]) != m:
                return "row %d representation does not evaluate to m" % m
        elif found or oracle:
            return "row %d has no representation" % m
    return None


def _b(flag: bool) -> str:
    return "true" if flag else "false"


# -------------------------------------------------------------- reference

def reference_loop() -> int:
    """Fixed interpreter work of the kind ternrep does: a loop of small-int
    and big-int arithmetic.  It uses no ternrep code."""
    s, x = 0, 12345678901234567
    for i in range(REF_ITERS):
        s += i * i % 7
        x = (x * x + i) % 1000000007000000009
    return s + x


def time_reference(reps: int = 1) -> float:
    """Median seconds of `reps` reference loops."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------- set-up

def import_ternrep():
    """Fresh import of ternrep from ./src; returns {module name: module}."""
    for name in [n for n in sys.modules if n == "ternrep" or n.startswith("ternrep.")]:
        del sys.modules[name]
    if not (SRC / "ternrep" / "__init__.py").is_file():
        raise SetupError("no ternrep sources under %s" % SRC)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("ternrep.cli")
    except ImportError as exc:
        raise SetupError("cannot import ternrep: %s" % exc) from exc
    if Path(cli.__file__).resolve().parent != SRC / "ternrep":
        raise SetupError("ternrep was imported from %s" % cli.__file__)
    return {n: m for n, m in sys.modules.items()
            if n == "ternrep" or n.startswith("ternrep.")}


def warm_up(modules, kind: str, jobs: int) -> None:
    """Fixed calls that load every code path the run uses."""
    dispatch = modules["ternrep.cli"].dispatch
    for form in inputs.FORM_NAMES:
        if kind == "witness":
            m = next(m for m in itertools.count(10**6) if inputs.eligible(form, m))
            argv = Request(form, m).argv(jobs)
        else:
            argv = Request(form, 1, 64).argv(jobs)
        rc = dispatch(argv, io.StringIO(), io.StringIO())
        if rc != 0:
            raise SetupError("warm-up %s exited %d" % (" ".join(argv), rc))


def setup(name: str, seed: int):
    """Import, input generation and warm-up, timed SETUP_REPS times.
    Returns the modules, the request stream and (seconds, reference loop
    seconds around it) per set-up."""
    wl = WORKLOADS[name]
    times = []
    ref_before = time_reference(SETUP_REF_REPS)
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        modules = import_ternrep()
        requests = wl.requests(seed)
        pool = list(itertools.islice(requests, POOL[wl.kind]))
        warm_up(modules, wl.kind, wl.jobs)
        seconds = time.perf_counter() - start
        ref_after = time_reference(SETUP_REF_REPS)
        times.append((seconds, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return modules, itertools.chain(pool, requests), times


# -------------------------------------------------------------- measuring

def run_pass(dispatch, requests, kind: str, jobs: int, budget: float | None,
             keep_stdout: bool, min_calls: int = 0, tracer=None) -> list:
    """Closed loop over requests until `budget` seconds and `min_calls`
    calls have passed, or 2.5 * budget seconds, whichever is first.  With
    no budget it runs every request.  A reference loop is timed before the
    first call and after every call."""
    check = check_witness if kind == "witness" else check_scan
    calls = []
    start = time.perf_counter()
    ref_before = time_reference()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            rc = dispatch(req.argv(jobs), out, err)
        except Exception as exc:  # a crash is a failed call, not a dead run
            rc, error = None, "raised %s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - t0
        if rc is not None:
            error = check(req, rc, out.getvalue())
        ref_after = time_reference()
        calls.append(Call(req, seconds, (ref_before + ref_after) / 2, error,
                          out.getvalue() if keep_stdout else None))
        ref_before = ref_after
        elapsed = time.perf_counter() - start
        if budget is not None and (
                (elapsed >= budget and len(calls) >= min_calls)
                or elapsed >= 2.5 * budget):
            break
    return calls


def rate(calls, norm: bool = False) -> float:
    seconds = sum(c.norm_seconds if norm else c.seconds for c in calls)
    return sum(c.request.items for c in calls) / seconds


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus, with a pool, jobs times the largest
    worker's peak: an upper bound on the peak of the process tree."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * kids) / 1024


def end_to_end(name, calls, setup_times):
    """The gated metrics are at reference speed; `extra` holds the same
    figures in wall-clock time."""
    wl = WORKLOADS[name]
    n = len(calls)
    items = sum(c.request.items for c in calls)

    def p50_p90(ms):
        return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]

    norm_ms = [c.norm_seconds * 1000 for c in calls]
    norm_p50, norm_p90 = p50_p90(norm_ms)
    wall_p50, wall_p90 = p50_p90([c.seconds * 1000 for c in calls])
    norm_setup = [s * REF_MS / 1000 / ref for s, ref in setup_times]
    metrics = {
        "norm_call_ms_p50": (norm_p50, n),
        "norm_call_ms_p90": (norm_p90, n),
        "norm_items_per_s": (rate(calls, norm=True), items),
        "setup_s": (statistics.median(norm_setup), len(setup_times)),
        "peak_rss_mb": (peak_rss_mb(wl.jobs), 1),
    }
    failed = sum(c.error is not None for c in calls)
    if wl.kind == "witness":
        aliases = {"witness_ms_p50": "norm_call_ms_p50",
                   "witness_ms_p90": "norm_call_ms_p90",
                   "witnesses_per_s": "norm_items_per_s"}
    else:
        aliases = {"scan_rows_per_s": "norm_items_per_s"}
    ref_ms = statistics.median(c.ref_seconds * 1000 for c in calls)
    extra = {
        "aliases": aliases,
        "failed_share": failed / n,
        "samples_beyond_p90": sum(v > norm_p90 for v in norm_ms),
        "reference": {"nominal_ms": REF_MS, "median_ms": ref_ms,
                      "speed": REF_MS / ref_ms},
        "wall_clock": {
            "call_ms_p50": wall_p50,
            "call_ms_p90": wall_p90,
            "items_per_s": rate(calls),
            "setup_s": statistics.median(s for s, _ in setup_times),
        },
    }
    return metrics, extra


# ----------------------------------------------------------------- tracing

def per_layer(summary, plain, traced, serial):
    """Per-layer metrics.  A .ms or .calls value is per request (one CLI
    call), a .share is a share of the traced wall time of all requests."""
    n_req = summary.calls["cli.dispatch"]
    wall = summary.incl_ns["cli.dispatch"]
    builds = summary.outer_calls["pipeline.build_witness"]
    candidates = summary.child_calls.get(("pipeline.find_q", "arith.is_prime"), 0)

    def ms(fn):
        return summary.incl_ns[fn] / n_req / 1e6

    def share(fn):
        return summary.incl_ns[fn] / wall

    values = {
        "pipeline.enumerate_point.ms": ms("pipeline.enumerate_point"),
        "pipeline.enumerate_point.share": share("pipeline.enumerate_point"),
        "factor.factorize.ms": ms("factor.factorize"),
        "factor.factorize.calls_per_witness":
            summary.calls["factor.factorize"] / builds if builds else 0.0,
        "forms.reduce_to_core.ms": ms("forms.reduce_to_core"),
        "pipeline.find_q.ms": ms("pipeline.find_q"),
        "pipeline.find_q.candidates": candidates / n_req,
        "pipeline.find_q.hit_ratio":
            summary.calls["pipeline.find_q"] / candidates if candidates else 0.0,
        "arith.is_prime.calls": summary.calls["arith.is_prime"] / n_req,
        "arith.is_prime.ms": ms("arith.is_prime"),
        "pipeline.solve_t.ms": ms("pipeline.solve_t"),
        "pipeline.solve_bh.ms": ms("pipeline.solve_bh"),
        "descent.represent_binary.ms": ms("descent.represent_binary"),
        "pipeline.build_witness.ms": ms("pipeline.build_witness"),
        "pipeline.verify_witness.ms": ms("pipeline.verify_witness"),
        "oracle.brute_force_ternary.calls":
            summary.calls["oracle.brute_force_ternary"] / n_req,
        "oracle.brute_force_ternary.ms": ms("oracle.brute_force_ternary"),
        "oracle.brute_force_ternary.share": share("oracle.brute_force_ternary"),
        "oracle.scan_compare.ms": ms("oracle.scan_compare"),
        "scan.parallel_efficiency": rate(plain) / (2 * rate(serial)) if serial else 0.0,
        "cli.dispatch.self_ms": summary.self_ns["cli.dispatch"] / n_req / 1e6,
        "trace.overhead_share":
            sum(c.seconds for c in traced) / sum(c.seconds for c in plain) - 1,
    }
    return {k: (v, n_req) for k, v in values.items()}


def by_bits(summary, calls):
    """Median build time and enumerate_point share per bit size of m."""
    groups = {}
    for i, call in enumerate(calls):
        groups.setdefault(call.request.lo.bit_length(), []).append(
            summary.by_request.get(i, {}))
    out = {}
    for bits, reqs in sorted(groups.items()):
        wall = sum(r.get("cli.dispatch", 0) for r in reqs)
        out[str(bits)] = {
            "witnesses": len(reqs),
            "build_witness_ms_p50": statistics.median(
                r.get("pipeline.build_witness", 0) / 1e6 for r in reqs),
            "enumerate_point_share":
                sum(r.get("pipeline.enumerate_point", 0) for r in reqs) / wall,
        }
    return out


def traced_run(name, modules, requests, seconds):
    """Untraced pass, then the same requests traced (and, with a pool, the
    same requests with --jobs 1 for the parallel efficiency)."""
    wl = WORKLOADS[name]

    def dispatch(argv, out, err):
        return modules["ternrep.cli"].dispatch(argv, out, err)

    budget = seconds * TRACE_SHARE[wl.kind]
    plain = run_pass(dispatch, requests, wl.kind, wl.jobs, budget, keep_stdout=True)
    replay = [c.request for c in plain]
    tracer = tracing.Tracer(modules)
    with tracer:
        traced = run_pass(dispatch, replay, wl.kind, wl.jobs, None,
                          keep_stdout=True, tracer=tracer)
    serial = []
    if wl.jobs > 1:
        serial = run_pass(dispatch, replay, wl.kind, 1, None, keep_stdout=True)
    for other, what in ((traced, "traced"), (serial, "--jobs 1")):
        for a, b in zip(plain, other):
            if b.error is None and a.stdout != b.stdout:
                b.error = "%s stdout differs from untraced stdout" % what
    summary = tracing.Summary(tracer.spans())
    metrics = per_layer(summary, plain, traced, serial)
    wall = summary.incl_ns["cli.dispatch"]
    extra = {
        "sites": tracer.sites,
        "spans": sum(summary.calls.values()),
        "self_share": {n: summary.self_ns[n] / wall for n in tracing.NAMES},
        "incl_share": {n: summary.incl_ns[n] / wall for n in tracing.NAMES},
        "calls_per_request": {n: summary.calls[n] / len(traced) for n in tracing.NAMES},
    }
    if wl.kind == "witness":
        extra["by_bits"] = by_bits(summary, traced)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / ("spans-%s.csv.gz" % name))
    return metrics, extra, plain + traced + serial


# ------------------------------------------------------------------- main

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    manifest = load_manifest()
    listed = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    why = {w["name"]: w["why"] for w in manifest["workloads"]}[args.workload]

    try:
        modules, requests, setup_times = setup(args.workload, args.seed)
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    if args.trace:
        metrics, extra, calls = traced_run(args.workload, modules, requests, args.seconds)
    else:
        dispatch = modules["ternrep.cli"].dispatch
        calls = run_pass(dispatch, requests, wl.kind, wl.jobs, args.seconds,
                         keep_stdout=False, min_calls=MIN_CALLS)
        metrics, extra = end_to_end(args.workload, calls, setup_times)
    if set(metrics) != set(units):
        raise RuntimeError("metrics %s differ from BENCHMARK.json %s"
                           % (sorted(metrics), sorted(units)))

    failures = [c for c in calls if c.error is not None]
    report = {
        "meta": {
            "workload": args.workload,
            "why": why,
            "loop": "closed, one caller, --jobs %d" % wl.jobs,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "git_sha": git_sha(),
        },
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "details": extra,
        "failures": ["%s: %s" % (" ".join(c.request.argv(wl.jobs)), c.error)
                     for c in failures[:5]],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
