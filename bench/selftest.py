#!/usr/bin/env python3
"""Self-test of the benchmark: python3 bench/selftest.py

1. Runs one round of every workload at seed 1 and requires that exactly the
   requests marked as known faults fail their checks, each showing its
   fault's signature.
2. Perturbs every checked field of every report and requires the check to
   reject each perturbed report; for a known fault, its signature too.
3. Runs two traced rounds of every workload with separate tracers and
   requires every count metric to agree exactly.

Exits 1 on the first failure.
"""

import copy
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads
import workloads
from tracing import Tracer
from workloads import Mismatch

SEED = 1
COUNT_METRICS = (
    "kernels.evaluate_calls",
    "kernels.normalize_calls",
    "linalg.eigensolves",
    "pick.psd_checks",
    "fock.inner_products",
    "fock.poly_mults",
)


def flip(v):
    return not v


def nudge(v):
    return v * (1 + 1e-6) + 1e-6


def nudge_pairs(v):
    """Move the last complex entry of a (nested) list of [re, im] pairs."""
    v = copy.deepcopy(v)
    row = v
    while isinstance(row[-1][0], list):
        row = row[-1]
    row[-1][0] += 1e-3
    return v


# A perturbation for every results field some check reads.
PERTURB = {
    "classification": lambda v: "higher_rank" if v != "higher_rank" else "hardy_equivalent",
    "rank": lambda v: v + 1,
    "delta": nudge_pairs,
    "j_values": nudge_pairs,
    "b_points": nudge_pairs,
    "factorization_residual": lambda v: v + 1e-3,
    "embedding_residual": lambda v: v + 1e-3,
    "residual": lambda v: v + 1e-3,
    "status": lambda v: "consistent" if v != "consistent" else "certified_not_cnp",
    "min_eig": lambda v: v + 1e-3,
    "classes": lambda v: [sorted(v[0] + v[1][:1]), v[1][1:]] + v[2:] if len(v) > 1 else [v[0][1:], v[0][:1]],
    "count": lambda v: v + 1,
    "mode": lambda v: "minimal_norm" if v == "feasibility" else "feasibility",
    "minimal_norm": lambda v: v + 1e-3,
    "feasible": flip,
    "hyponormal_ok": flip,
    "np_sufficient_ok": flip,
    "geometric": flip,
    "first_violation": lambda v: 2 if v is None else None,
    "divergent": flip,
    "gap_sum": lambda v: 1.0 if v == "DIVERGENT" else nudge(v),
    "is_uniqueness_set": flip,
    "forward_norm_sq": lambda v: {"num": "1", "den": "5"} if isinstance(v, dict) else v * (1 + 1e-9),
    "adjoint_norm_sq": lambda v: {"num": "1", "den": "3"} if isinstance(v, dict) else v * (1 + 1e-9),
    "strictly_smaller": flip,
    "compression_defect_on_three_powers": lambda v: v + 1e-6,
    "defect": lambda v: v + 1e-6,
    "span_dim": lambda v: v + 1,
    "hyponormal_on_this_model": flip,
    "within_bound": flip,
    "member": flip,
}


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def one_round(name: str, seed: int, tracer=None):
    outdir = run.RUNS / f"selftest-{name}-{seed}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        runner = run.Runner(run.import_cli(), workloads.build(name, seed, outdir))
        if tracer:
            tracer.install()
        try:
            runner.round(tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(outdir)
    return runner


def check_round(name: str, runner) -> None:
    faults = [r.label for r in runner.requests if r.fault]
    failed = [
        r.label for i, r in enumerate(runner.requests) if any(v is not None for v in runner.verdicts[i].values())
    ]
    if runner.unexpected:
        fail(f"{name}: unexpected failures {runner.unexpected}")
    if failed != faults:
        fail(f"{name}: failed {failed}, known faults {faults}")
    print(f"PASS {name}: {len(runner.requests)} requests, failing exactly the known faults {faults}")


def accepts(check, report) -> bool:
    try:
        check(report)
    except (Mismatch, KeyError, TypeError, IndexError):
        return False
    return True


def check_perturbations(name: str, runner) -> None:
    caught = 0
    for i, req in enumerate(runner.requests):
        (text,) = runner.verdicts[i]
        report = json.loads(text)
        fields = [k for k, v in report["results"].items() if k in PERTURB and v is not None]
        for key in ["exit_code"] + fields:
            bad = copy.deepcopy(report)
            if key == "exit_code":
                bad["exit_code"] += 1
            else:
                bad["results"][key] = PERTURB[key](bad["results"][key])
            if accepts(req.check, bad):
                fail(f"{name}: {req.label} accepted a report with {key} perturbed")
            if req.fault and accepts(req.fault, bad):
                fail(f"{name}: {req.label} took a report with {key} perturbed for its known fault")
            caught += 1
    print(f"PASS {name}: all {caught} perturbed reports rejected")


def check_counts(name: str, seed: int) -> None:
    counts = []
    for _ in range(2):
        tracer = Tracer()
        one_round(name, seed, tracer)
        metrics = tracer.layer_metrics()
        counts.append({k: metrics[k] for k in COUNT_METRICS})
    if counts[0] != counts[1]:
        fail(f"{name}: count metrics differ between traced rounds: {counts}")
    print(f"PASS {name}: count metrics repeat exactly {counts[0]}")


def main() -> int:
    for name in workloads.WORKLOADS:
        runner = one_round(name, SEED)
        check_round(name, runner)
        check_perturbations(name, runner)
        check_counts(name, SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
