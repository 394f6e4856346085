"""Command-line frontend.

Each command reads JSON inputs, dispatches to the library, and writes one
report to stdout. The json format is the canonical artifact and is
byte-identical across runs on identical inputs; the text format is derived
from it and carries no extra information.

Conventions shared by all file formats: complex numbers are two-element
arrays [re, im]; a point is a list of complex numbers, one per coordinate;
exact rationals appear as {"num": "...", "den": "..."} with integer strings.

Exit codes: 0 pass/feasible/consistent/member, 1 fail/infeasible/refuted,
2 malformed input or failed hypothesis.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np

from . import fock
from .cnp import (
    CONSISTENT,
    BlaschkeFamily,
    FiniteRadii,
    GeometricTail,
    PolynomialTail,
    agler_mccarthy_embed,
    blaschke_classify,
    cnp_sample_check,
    ratio_report,
)
from .errors import HypothesisError, InputError, NotCnpError
from .kernels import (
    DruryArvesonKernel,
    KernelSpec,
    PointSet,
    PowerSeriesKernel,
    SampledGramKernel,
    irreducible_partition,
)
from .linalg import DEFAULT_TOL
from .pick import PickProblem, minimal_interpolation_norm, pick_feasible
from .reconstruct import classify

DEFAULT_DEGREE = 12


# ---------------------------------------------------------------------------
# input parsing


def _fail(msg: str) -> InputError:
    return InputError(msg)


def _parse_number(x, what: str):
    """Real number from JSON: int, float, or {"num": "...", "den": "..."}.

    Integers and rationals beyond the float range are refused: every
    command computes in floating point somewhere downstream.
    """
    if isinstance(x, bool):
        raise _fail(f"{what}: expected a number, got a boolean")
    if isinstance(x, dict) and set(x) == {"num", "den"}:
        try:
            x = Fraction(int(x["num"]), int(x["den"]))
        except (ValueError, ZeroDivisionError) as e:
            raise _fail(f"{what}: bad rational {x!r} ({e})") from None
    elif not isinstance(x, (int, float)):
        raise _fail(f"{what}: expected a number, got {x!r}")
    if not isinstance(x, float) and abs(x) > sys.float_info.max:
        raise _fail(f"{what}: number beyond the float range")
    return x


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as e:
        raise _fail(f"{what}: not valid JSON ({e})") from None


def _parse_complex(x, what: str) -> complex:
    if not (isinstance(x, list) and len(x) == 2):
        raise _fail(f"{what}: complex numbers are two-element arrays [re, im], got {x!r}")
    re = _parse_number(x[0], what)
    im = _parse_number(x[1], what)
    return complex(float(re), float(im))


def _parse_coeff(x, what: str):
    """Complex coefficient, exactness-preserving: integer or rational parts
    stay exact."""
    if isinstance(x, (int, dict)) and not isinstance(x, bool):
        return _parse_number(x, what)
    if isinstance(x, float):
        return x
    if isinstance(x, list) and len(x) == 2:
        re = _parse_number(x[0], what)
        im = _parse_number(x[1], what)
        if not isinstance(re, float) and not isinstance(im, float):
            return fock.QQi(re, im)
        return complex(float(re), float(im))
    raise _fail(f"{what}: expected a number or [re, im], got {x!r}")


def _parse_point(x, dim: int, what: str) -> list:
    if not isinstance(x, list) or len(x) != dim:
        raise _fail(f"{what}: a point in {dim} variables is a list of {dim} [re, im] pairs")
    return [_parse_complex(c, what) for c in x]


def _parse_points_obj(obj, what: str) -> PointSet:
    if not isinstance(obj, dict) or "dim" not in obj or "points" not in obj:
        raise _fail(f'{what}: expected {{"dim": d, "points": [...]}}')
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise _fail(f"{what}: dim must be a positive integer")
    pts = [_parse_point(p, dim, what) for p in obj["points"]]
    return PointSet(dim, np.array(pts, dtype=np.complex128))


def _parse_kernel_obj(obj, what: str) -> KernelSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise _fail(f'{what}: expected an object with a "type" field')
    kind = obj["type"]
    if kind == "power_series":
        coeffs = obj.get("coeffs")
        if not isinstance(coeffs, list):
            raise _fail(f'{what}: power_series needs a "coeffs" array')
        return PowerSeriesKernel([_parse_number(c, f"{what}.coeffs") for c in coeffs])
    if kind == "drury_arveson":
        dim = obj.get("dim")
        if not isinstance(dim, int):
            raise _fail(f'{what}: drury_arveson needs an integer "dim"')
        return DruryArvesonKernel(dim)
    if kind == "sampled":
        labels = obj.get("labels")
        gram = obj.get("gram")
        if not isinstance(labels, list) or not isinstance(gram, list):
            raise _fail(f'{what}: sampled needs "labels" and "gram"')
        rows = [[_parse_complex(v, f"{what}.gram") for v in row] for row in gram]
        return SampledGramKernel([str(x) for x in labels], np.array(rows, dtype=np.complex128))
    raise _fail(f"{what}: unknown kernel type {kind!r}")


def _parse_family_obj(obj, what: str) -> BlaschkeFamily:
    if not isinstance(obj, dict) or "type" not in obj:
        raise _fail(f'{what}: expected an object with a "type" field')
    kind = obj["type"]
    prefix = tuple(float(_parse_number(r, f"{what}.prefix")) for r in obj.get("prefix", []))
    if kind == "finite_list":
        radii = obj.get("radii")
        if not isinstance(radii, list):
            raise _fail(f'{what}: finite_list needs a "radii" array')
        return FiniteRadii(tuple(float(_parse_number(r, f"{what}.radii")) for r in radii))
    if kind == "geometric_tail":
        return GeometricTail(
            c=float(_parse_number(obj.get("c"), f"{what}.c")),
            q=float(_parse_number(obj.get("q"), f"{what}.q")),
            prefix=prefix,
        )
    if kind == "polynomial_tail":
        return PolynomialTail(
            c=float(_parse_number(obj.get("c"), f"{what}.c")),
            p=float(_parse_number(obj.get("p"), f"{what}.p")),
            prefix=prefix,
        )
    raise _fail(f"{what}: unknown family type {kind!r}")


def _parse_poly_obj(obj, what: str) -> fock.Polynomial:
    if not isinstance(obj, dict) or "dim" not in obj or "terms" not in obj:
        raise _fail(f'{what}: expected {{"dim": d, "terms": [{{"exp": [...], "coeff": ...}}]}}')
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise _fail(f"{what}: dim must be a positive integer")
    coeffs = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or "exp" not in t or "coeff" not in t:
            raise _fail(f'{what}: each term needs "exp" and "coeff"')
        exp = t["exp"]
        if not isinstance(exp, list) or len(exp) != dim:
            raise _fail(f"{what}: exp must list {dim} exponents")
        key = tuple(int(e) for e in exp)
        c = _parse_coeff(t["coeff"], f"{what}.coeff")
        coeffs[key] = coeffs[key] + c if key in coeffs else c
    return fock.Polynomial(dim, coeffs)


class _Loader:
    """Reads input files once, feeding raw bytes into the report digest."""

    def __init__(self):
        self.hasher = hashlib.sha256()

    def note(self, text: str) -> None:
        self.hasher.update(text.encode("utf-8"))
        self.hasher.update(b"\x00")

    def load_json(self, path: str, what: str):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise _fail(f"{what}: cannot read {path!r} ({e})") from None
        self.hasher.update(raw)
        self.hasher.update(b"\x00")
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as e:  # bad UTF-8, bad JSON, or an integer too long to read
            raise _fail(f"{what}: {path!r} is not valid JSON ({e})") from None

    def digest(self) -> str:
        return "sha256:" + self.hasher.hexdigest()


# ---------------------------------------------------------------------------
# report rendering


def _jsonable(x):
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.complexfloating):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, fock.QQi):
        return [_jsonable(x.re), _jsonable(x.im)]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _text_lines(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for k in value:
            _text_lines(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out.append(f"{prefix} = {json.dumps(value)}")


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(report, indent=2, sort_keys=True))
        stream.write("\n")
    else:
        lines: list = []
        _text_lines("", report, lines)
        stream.write("\n".join(lines))
        stream.write("\n")


# ---------------------------------------------------------------------------
# shared loading steps


def _load_gram(args, loader: _Loader):
    """Kernel file plus optional points file -> (gram, label description)."""
    spec = _parse_kernel_obj(loader.load_json(args.kernel, "kernel"), "kernel")
    if isinstance(spec, SampledGramKernel):
        if args.points is not None:
            raise _fail("sampled kernels carry their own sample; omit --points")
        return spec.gram(), list(spec.labels)
    if args.points is None:
        raise _fail("analytic kernels need --points")
    pts = _parse_points_obj(loader.load_json(args.points, "points"), "points")
    return spec.gram(pts), [_jsonable(p) for p in pts.points]


def _check_base(base: int, n: int) -> int:
    if not 0 <= base < n:
        raise _fail(f"--base {base} out of range for {n} sample points")
    return base


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, exit code)


def _cmd_cnp_check(args, loader):
    g, labels = _load_gram(args, loader)
    verdict = cnp_sample_check(g, _check_base(args.base, g.n), args.tol)
    ok = verdict.status == CONSISTENT
    return {
        "status": verdict.status,
        "min_eig": verdict.min_eig,
        "sample": labels,
        "claim_scope": "sample-level only; a pass does not certify the full space",
    }, (0 if ok else 1)


def _cmd_ratio_check(args, loader):
    spec = _parse_kernel_obj(loader.load_json(args.kernel, "kernel"), "kernel")
    if not isinstance(spec, PowerSeriesKernel):
        raise _fail("ratio-check applies to power_series kernels only")
    report = ratio_report(spec.coeffs)
    results = {
        "hyponormal_ok": report.hyponormal_ok,
        "np_sufficient_ok": report.np_ok,
        "geometric": report.geometric,
        "first_violation": report.first_violation,
        "notes": {
            "hyponormal": "violation refutes hyponormality of coordinate multiplication",
            "np_sufficient": "failure is inconclusive for the Nevanlinna-Pick property",
        },
    }
    return results, (0 if report.hyponormal_ok else 1)


def _cmd_pick(args, loader):
    obj = loader.load_json(args.problem, "problem")
    if not isinstance(obj, dict) or "kernel" not in obj or "nodes" not in obj or "targets" not in obj:
        raise _fail('problem: expected {"kernel": ..., "nodes": [...], "targets": [...]}')
    spec = _parse_kernel_obj(obj["kernel"], "problem.kernel")
    targets_raw = obj["targets"]
    if not isinstance(targets_raw, list) or not targets_raw:
        raise _fail("problem.targets must be a non-empty array")
    for t in targets_raw:
        if isinstance(t, list) and t and isinstance(t[0], list):
            raise _fail("matrix-valued targets are not supported")
    targets = np.array(
        [_parse_complex(t, "problem.targets") for t in targets_raw], dtype=np.complex128
    )
    nodes_raw = obj["nodes"]
    if not isinstance(nodes_raw, list) or not nodes_raw:
        raise _fail("problem.nodes must be a non-empty array")
    if isinstance(spec, SampledGramKernel):
        nodes = [str(x) for x in nodes_raw]
    else:
        pts = [_parse_point(p, spec.dim, "problem.nodes") for p in nodes_raw]
        nodes = PointSet(spec.dim, np.array(pts, dtype=np.complex128))
    problem = PickProblem(kernel=spec, nodes=nodes, targets=targets)
    if args.norm is not None:
        verdict = pick_feasible(problem, args.norm, args.tol)
        return {
            "mode": "feasibility",
            "norm_level": args.norm,
            "feasible": verdict.is_psd,
            "min_eig": verdict.min_eig,
            "claim_scope": "matrix condition; sufficient for interpolation only "
            "over Nevanlinna-Pick kernels",
        }, (0 if verdict.is_psd else 1)
    t_star = minimal_interpolation_norm(problem, args.tol)
    return {"mode": "minimal_norm", "minimal_norm": t_star}, 0


def _cmd_embed(args, loader):
    g, labels = _load_gram(args, loader)
    base = _check_base(args.base, g.n)
    try:
        emb = agler_mccarthy_embed(g, base, args.tol)
    except NotCnpError as e:
        return {
            "status": "certified_not_cnp",
            "min_eig": e.min_eig,
            "sample": labels,
        }, 1
    return {
        "status": "embedded",
        "rank": emb.rank,
        "base_index": emb.base_index,
        "residual": emb.residual,
        "b_points": emb.b_points,
        "sample": labels,
    }, 0


def _cmd_reconstruct(args, loader):
    g, labels = _load_gram(args, loader)
    base = _check_base(args.base, g.n)
    result = classify(g, base, args.tol)
    out = {
        "classification": result.classification,
        "rank": result.rank,
        "delta": result.delta,
        "j_values": result.j_values,
        "factorization_residual": result.factorization_residual,
        "embedding_residual": result.embedding_residual,
        "sample": labels,
        "uniqueness_note": "finite samples are never sets of uniqueness; classify a "
        "radii tail family with the blaschke command to settle that hypothesis",
    }
    if result.note:
        out["note"] = result.note
    return out, 0


def _cmd_partition(args, loader):
    g, labels = _load_gram(args, loader)
    classes = irreducible_partition(g, args.tol)
    return {"classes": classes, "count": len(classes), "sample": labels}, 0


def _cmd_blaschke(args, loader):
    fam = _parse_family_obj(loader.load_json(args.family, "family"), "family")
    verdict = blaschke_classify(fam)
    return {
        "divergent": verdict.divergent,
        "gap_sum": "DIVERGENT" if verdict.divergent else verdict.total,
        "is_uniqueness_set": verdict.is_uniqueness_set,
    }, 0


def _cmd_closure(args, loader):
    pts = _parse_points_obj(loader.load_json(args.points, "points"), "points")
    z = _parse_point(_parse_json_arg(args.z, "--z"), pts.dim, "--z")
    membership = fock.in_closure(np.array(z), pts, args.degree, args.tol)
    return {
        "member": membership.member,
        "residual": membership.residual,
        "degree": args.degree,
    }, (0 if membership.member else 1)


def _cmd_fock_arveson(args, loader):
    witness = fock.arveson_example()
    space = fock.TruncatedSpace(2, 6)
    z1z2 = fock.Polynomial.monomial(2, (1, 1))
    span = fock.span_of_polynomials(space, [z1z2**k for k in range(3)])
    defect = fock.compression_defect(z1z2, span)
    return {
        "forward_norm_sq": witness.forward_norm_sq,
        "adjoint_norm_sq": witness.adjoint_norm_sq,
        "strictly_smaller": witness.forward_norm_sq < witness.adjoint_norm_sq,
        "compression_defect_on_three_powers": defect,
    }, 0


def _cmd_fock_balance(args, loader):
    raw = _parse_json_arg(args.z, "--z")
    if not isinstance(raw, list):
        raise _fail("--z: a point is a list of [re, im] pairs")
    balance = fock.tail_balance([_parse_coeff(c, "--z") for c in raw], args.degree)
    ok = balance.within_bound
    return {
        "adjoint_norm_sq": balance.adjoint_norm_sq,
        "forward_norm_sq": balance.forward_norm_sq,
        "tail_bound": balance.tail_bound,
        "rounding_bound": balance.rounding_bound,
        "within_bound": ok,
        "degree": args.degree,
    }, (0 if ok else 1)


def _cmd_fock_defect(args, loader):
    phi = _parse_poly_obj(_parse_json_arg(args.phi, "--phi"), "--phi")
    space = fock.TruncatedSpace(phi.dim, args.degree)
    if args.span == "full":
        subspace = fock.FockSubspace(space, np.eye(len(space), dtype=np.complex128))
    elif args.span == "powers":
        count = args.count
        if count is None:
            count = args.degree // max(phi.degree, 1)
        subspace = fock.span_of_polynomials(space, [phi**k for k in range(count + 1)])
    else:  # kernel
        if args.points is None:
            raise _fail("--span kernel needs --points")
        pts = _parse_points_obj(loader.load_json(args.points, "points"), "points")
        if pts.dim != phi.dim:
            raise _fail("points dimension does not match the multiplier")
        subspace = fock.vanishing_subspace(pts, args.degree).complement
    defect = fock.compression_defect(phi, subspace)
    hyponormal_here = defect >= -args.tol
    return {
        "defect": defect,
        "span": args.span,
        "span_dim": subspace.dim,
        "degree": args.degree,
        "hyponormal_on_this_model": hyponormal_here,
        "claim_scope": "a negative defect is a refutation witness; a non-negative "
        "defect certifies this finite compression only",
    }, (0 if hyponormal_here else 1)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkhslab",
        description="Reproducing-kernel Hilbert space laboratory: Pick feasibility, "
        "CNP sample tests, ball embeddings, exact truncated ball-kernel computations, "
        "and disk reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, points=False, base=False, degree=False):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance (default 1e-9)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if points:
            p.add_argument("--points", default=None, help="points file (for analytic kernels)")
        if base:
            p.add_argument("--base", type=int, default=0, help="base index (default 0)")
        if degree:
            p.add_argument(
                "--degree", type=int, default=DEFAULT_DEGREE, help="degree window (default 12)"
            )

    p = sub.add_parser("cnp-check", help="sample-level complete Nevanlinna-Pick test")
    p.add_argument("kernel", help="kernel file")
    common(p, points=True, base=True)
    p.set_defaults(handler=_cmd_cnp_check)

    p = sub.add_parser("ratio-check", help="coefficient ratio tests for disk kernels")
    p.add_argument("kernel", help="power_series kernel file")
    common(p)
    p.set_defaults(handler=_cmd_ratio_check)

    p = sub.add_parser("pick", help="Pick feasibility or minimal interpolation norm")
    p.add_argument("problem", help="problem file")
    p.add_argument("--norm", type=float, default=None, help="check feasibility at this norm level")
    common(p)
    p.set_defaults(handler=_cmd_pick)

    p = sub.add_parser("embed", help="realize a sample inside the unit ball")
    p.add_argument("kernel", help="kernel file")
    common(p, points=True, base=True)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("reconstruct", help="classify a sample and factor through the disk")
    p.add_argument("kernel", help="kernel file")
    common(p, points=True, base=True)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("partition", help="split a sample into irreducible blocks")
    p.add_argument("kernel", help="kernel file")
    common(p, points=True)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("blaschke", help="classify a radii family's gap sum")
    p.add_argument("family", help="family file")
    common(p)
    p.set_defaults(handler=_cmd_blaschke)

    p = sub.add_parser("closure", help="kernel-span membership for a point")
    p.add_argument("--points", required=True, help="points file for the set Y")
    p.add_argument("--z", required=True, help="candidate point as JSON, e.g. '[[0.3,0],[0,0]]'")
    common(p, degree=True)
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("fock", help="exact truncated ball-kernel computations")
    fsub = p.add_subparsers(dest="fock_command", required=True)

    q = fsub.add_parser("arveson", help="exact non-hyponormal multiplier witness")
    common(q)
    q.set_defaults(handler=_cmd_fock_arveson)

    q = fsub.add_parser("balance", help="adjoint/forward norm balance on the kernel tail")
    q.add_argument("--z", required=True, help="point as JSON, e.g. '[[0.5,0],[0,0]]'")
    common(q, degree=True)
    q.set_defaults(handler=_cmd_fock_balance)

    q = fsub.add_parser("defect", help="self-commutator defect of a compressed multiplier")
    q.add_argument("--phi", required=True, help='multiplier as JSON {"dim": d, "terms": [...]}')
    q.add_argument(
        "--span",
        choices=("full", "powers", "kernel"),
        default="full",
        help="compression subspace: whole window, powers of phi, or kernel span of --points",
    )
    q.add_argument("--count", type=int, default=None, help="number of powers for --span powers")
    common(q, points=True, degree=True)
    q.set_defaults(handler=_cmd_fock_defect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    command = args.command
    if command == "fock":
        command = f"fock {args.fock_command}"

    loader = _Loader()
    loader.note(command)
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler", "format", "command", "fock_command") and v is not None
    }
    # digest covers parameter values and raw file contents, not file paths,
    # so it is a content hash
    digest_params = {
        k: v for k, v in params.items() if k not in ("kernel", "points", "problem", "family")
    }
    loader.note(json.dumps(_jsonable(digest_params), sort_keys=True))

    try:
        results, code = args.handler(args, loader)
    except HypothesisError as e:
        results, code = {
            "error": {"type": type(e).__name__, "hypothesis": e.hypothesis, "message": str(e)}
        }, 2
    except InputError as e:
        results, code = {"error": {"type": type(e).__name__, "message": str(e)}}, 2

    report = {
        "command": command,
        "inputs_digest": loader.digest(),
        "parameters": _jsonable(params),
        "results": _jsonable(results),
        "exit_code": code,
    }
    _emit(report, args.format, sys.stdout)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
