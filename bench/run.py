#!/usr/bin/env python3
"""End-to-end benchmark of the rkhslab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
./src, never from an installed copy. One process and one thread send
requests in a closed loop: each request is one rkhslab command, run as
rkhslab.cli.main(argv) on input files that the seeded generator wrote at
set-up, with its report written to memory and checked against an
independent computation (see workloads.py). A run repeats whole rounds of
the workload's requests until S seconds have passed.

Times are reported at a reference host speed: right before each request
the benchmark times a fixed calibration that does not involve rkhslab, and
scales the request's wall time by CALIBRATION_REF_S over that calibration
time; set-up times are scaled by the median calibration of the run. See
README.md, "Host speed".

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced rounds with
the tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Pin BLAS to one thread before numpy loads, here and in child interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"

SETUP_REPEATS = 7
SETUP_CODE = "import sys; from rkhslab.cli import main; sys.exit(main(sys.argv[1:]))"

# Typical median time of calibrate() on the 2-CPU host the benchmark was built on.
CALIBRATION_REF_S = 0.6e-3


def calibrate() -> float:
    """Seconds for a fixed piece of work that does not involve rkhslab:
    interpreter dict and float work, then complex arithmetic. When the host
    slows down, the first slows more than the requests and the second less
    (README.md, "Host speed"), so their sum tracks the requests.

    It runs with the garbage collector off and keys that the collector does
    not track, so the size of the heap the program leaves does not change
    its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    table, acc = {}, 0.0
    for i in range(1000):
        key = (i % 97) * 89 + i % 89
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(i)
    z, acc_z = 0.3 + 0.4j, 0j
    for k in range(600):
        acc_z += 1.0 / (1.0 - z * (0.5 - 0.1j) * k / 600)
    elapsed = perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


def import_cli():
    """rkhslab.cli from ./src of this checkout; exit without a result if absent."""
    if not (SRC / "rkhslab" / "cli.py").is_file():
        sys.exit(f"bench: no rkhslab source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import rkhslab.cli

    if Path(rkhslab.cli.__file__).resolve().parent != SRC / "rkhslab":
        sys.exit(f"bench: imported rkhslab from {rkhslab.cli.__file__}, not from {SRC}")
    return rkhslab.cli


def failure(check, text: str):
    """None when the report text passes check, else the reason it fails."""
    try:
        check(json.loads(text))
        return None
    except Exception as e:  # any failed check or malformed report
        return f"{type(e).__name__}: {e}"


class Runner:
    """Sends requests and checks reports.

    A report's check result is kept per request and report text, so a
    repeated identical report is not recomputed: reports are canonical, and
    a byte-identical report of the same request has the same verdict.

    A failed request is unexpected unless its report shows the request's
    known fault (Request.fault); a crash is always unexpected.
    """

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.verdicts = [dict() for _ in requests]
        self.unexpected: list = []
        self.next_id = 0

    def verdict(self, i: int, text: str):
        """None when the report passes its check, else the reason it fails."""
        cache = self.verdicts[i]
        if text not in cache:
            req = self.requests[i]
            cache[text] = failure(req.check, text)
            if cache[text]:
                if req.fault is None:
                    self.unexpected.append(f"{req.label}: {cache[text]}")
                elif (other := failure(req.fault, text)) is not None:
                    self.unexpected.append(f"{req.label}: {cache[text]}; not the known fault: {other}")
        return cache[text]

    def send(self, i: int, tracer=None):
        """(seconds, failed) for one request."""
        argv = self.requests[i].argv
        buf = io.StringIO()
        crash = None
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                if tracer is None:
                    self.cli.main(argv)
                else:
                    tracer.call(self.next_id, self.cli.main, argv)
            except Exception as e:  # the CLI maps its own errors; anything else is a crash
                crash = f"crashed: {type(e).__name__}: {e}"
            t1 = perf_counter()
        self.next_id += 1
        if crash:
            self.unexpected.append(f"{self.requests[i].label}: {crash}")
            return t1 - t0, True
        return t1 - t0, self.verdict(i, buf.getvalue()) is not None

    def round(self, tracer=None):
        """One whole round: wall seconds and calibration seconds of each
        request, and the number of failed requests."""
        lat, cal, failed = [], [], 0
        for i in range(len(self.requests)):
            cal.append(calibrate())
            dt, bad = self.send(i, tracer)
            lat.append(dt)
            failed += bad
        return lat, cal, failed


def measure_setup(runner: Runner) -> float:
    """Wall seconds for a fresh interpreter to import rkhslab.cli and answer
    the workload's first request."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *runner.requests[0].argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        check=False,
        timeout=120,
    )
    elapsed = perf_counter() - t0
    if proc.stderr:
        runner.unexpected.append(f"set-up run: {proc.stderr.decode()[-300:]!r}")
    runner.verdict(0, proc.stdout.decode("utf-8", "replace"))
    return elapsed


def adjusted(seconds: list, cal: list) -> list:
    """Wall times scaled to the reference host speed."""
    return [t * CALIBRATION_REF_S / c for t, c in zip(seconds, cal)]


def tail(latencies: list):
    """Highest of p99.9, p99, p90 with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            return p, xs[math.ceil(p / 100 * n) - 1]
    return None


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    """Rounds until seconds of round time have passed, with the set-up runs
    spread evenly over the run so that they meet the same host speeds."""
    setup, lat, cal, failed, rounds, busy = [], [], [], 0, 0, 0.0
    while rounds < 1 or busy < seconds:
        if len(setup) < SETUP_REPEATS and busy >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(measure_setup(runner))
        t0 = perf_counter()
        got, got_cal, bad = runner.round()
        busy += perf_counter() - t0
        lat += got
        cal += got_cal
        failed += bad
        rounds += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(runner))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    adj = adjusted(lat, cal)
    # a single calibration is too noisy to scale one of the few set-up runs;
    # the run's median calibration gives the host speed over the run
    setup_s = statistics.median(setup) * CALIBRATION_REF_S / statistics.median(cal)
    metrics = {
        "requests_per_s": {"value": len(adj) / math.fsum(adj), "unit": "req/s"},
        "request_p50_ms": {"value": 1e3 * statistics.median(adj), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    t = tail(adj)
    if t:
        print(f"  p{t[0]:g} = {1e3 * t[1]:.6g} ms over {len(adj)} requests")
    else:
        print(f"  {len(adj)} requests: too few for a tail percentile")
    print(
        f"  as measured, before scaling to the reference host speed: "
        f"{len(lat) / math.fsum(lat):.6g} req/s, p50 {1e3 * statistics.median(lat):.6g} ms, "
        f"set-up {statistics.median(setup):.6g} s; calibration median "
        f"{1e3 * statistics.median(cal):.4g} ms against {1e3 * CALIBRATION_REF_S:.4g} ms"
    )
    return {"attempted": len(lat), "failed": failed, "metrics": metrics, "rounds": rounds}


def run_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, traced_cal, failed, rounds = [], [], [], 0, 0
    start = perf_counter()
    while rounds < 2 or perf_counter() - start < seconds:
        if rounds % 2:
            tracer.install()
            try:
                got, got_cal, bad = runner.round(tracer)
            finally:
                tracer.uninstall()
            traced += adjusted(got, got_cal)
            traced_cal += got_cal
        else:
            got, got_cal, bad = runner.round()
            plain += adjusted(got, got_cal)
        failed += bad
        rounds += 1
    # per-layer times are scaled like the requests, by the median host speed
    scale = CALIBRATION_REF_S / statistics.median(traced_cal)
    metrics = {
        name: {"value": v * scale, "unit": "ms"} if name.endswith("_ms") else {"value": v, "unit": "calls"}
        for name, v in tracer.layer_metrics().items()
    }
    rps_plain = len(plain) / math.fsum(plain)
    rps_traced = len(traced) / math.fsum(traced)
    metrics["trace.overhead_pct"] = {"value": 100.0 * (rps_plain / rps_traced - 1.0), "unit": "%"}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        f"  untraced {rps_plain:.4g} req/s, traced {rps_traced:.4g} req/s over "
        f"{len(traced)} traced requests; spans in {trace_path.relative_to(ROOT)}"
    )
    tracer.write(trace_path)
    return {"attempted": len(plain) + len(traced), "failed": failed, "metrics": metrics, "rounds": rounds}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = import_cli()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    outdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        runner = Runner(cli, workloads.build(args.workload, args.seed, outdir))
        runner.round()  # warm-up, checked, not counted
        if args.trace:
            res = run_traced(runner, args.seconds, RUNS / f"trace-{args.workload}.jsonl")
        else:
            res = run_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(outdir)
    print(f"  {res['rounds']} rounds of {len(runner.requests)} requests; {res['failed']} failed")
    for msg in runner.unexpected[:10]:
        print(f"  UNEXPECTED {msg}")
    result = {
        "correct": not runner.unexpected,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
