"""Command-line frontend.

Each command reads JSON inputs, dispatches to the library, and writes one
report to stdout. The json format is the canonical artifact: on one host, its
bytes are identical across runs on identical inputs. Across hosts the last
bits of a report's floats may differ, as the Gram matrices behind them depend
on how numpy rounds a complex product at the host's SIMD level. Its bytes are
those of Python's json.dumps(indent=2, sort_keys=True): 2-space indent, sorted keys,
ASCII only with every other character escaped, and NaN and the infinities
spelled NaN, Infinity and -Infinity. The text format is derived from it and
carries no extra information. main(argv) may be called repeatedly in one
process; the parser is built on the first call and reused.

Conventions shared by all file formats: complex numbers are two-element
arrays [re, im]; a point is a list of complex numbers, one per coordinate;
exact rationals appear as {"num": "...", "den": "..."} with integer strings.

Exit codes: 0 pass/feasible/consistent/member, 1 fail/infeasible/refuted,
2 malformed input or failed hypothesis, 3 internal error: any other exception,
reported as {"error": {"type": "InternalError", ...}} with its traceback on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import traceback
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

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
    unit_diagonal,
)
from .linalg import DEFAULT_TOL, real_number, threshold, whole_number
from .pick import PickProblem, minimal_interpolation_norm, pick_feasible
from .reconstruct import classify

DEFAULT_DEGREE = 12


# ---------------------------------------------------------------------------
# input parsing


def _parse_list(x, what: str, length: int | None = None, shape: str = "an array") -> list:
    """x itself when it is a JSON array, of the given length if one is given."""
    if not isinstance(x, list) or length is not None and len(x) != length:
        raise InputError(f"{what}: expected {shape}, got {x!r:.60}")
    return x


def _parse_rational(x, what: str):
    """x as a Fraction when it is {"num": "...", "den": "..."}, else x itself."""
    if isinstance(x, dict) and set(x) == {"num", "den"}:
        try:  # through str, so that 1.5 and true are refused rather than truncated
            return Fraction(int(str(x["num"])), int(str(x["den"])))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"{what}: bad rational {x!r} ({e})") from None
    return x


def _parse_number(x, what: str):
    """A real number from JSON, an int, a float or {"num", "den"}, by linalg.real_number:
    every command computes in floating point somewhere downstream."""
    return real_number(_parse_rational(x, what), what)


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as e:
        raise InputError(f"{what}: not valid JSON ({e})") from None


def _parse_complex(x, what: str) -> complex:
    re, im = _parse_list(x, what, 2, "[re, im]")
    return complex(float(_parse_number(re, what)), float(_parse_number(im, what)))


def _parse_parts(x, what: str) -> tuple:
    """(re, im) of a complex number given as a number or [re, im]; integer and
    rational parts stay exact."""
    if not isinstance(x, list):
        return _parse_number(x, what), 0
    re, im = (_parse_number(v, what) for v in _parse_list(x, what, 2, "a number or [re, im]"))
    return re, im


def _complex_value(re, im):
    """A fock.QQi when both parts are exact, else a complex."""
    if isinstance(re, float) or isinstance(im, float):
        return complex(float(re), float(im))
    return fock.QQi(re, im)


def _float_pairs(x, shape: tuple):
    """x as a complex array of the given shape when it is nested lists of exactly
    that shape of [re, im] pairs of plain floats, read as one array; else None.

    Level by level, every entry must be a list of the length that shape gives
    (2 for the pairs), and the entries one level further down must be plain
    floats; each level is flattened by chain.from_iterable, so no entry costs a
    Python call, and the floats are read in one pass. The parts keep their bits:
    re + 1j*im would turn -0.0 into 0.0, and an infinite imaginary part into a
    NaN real part.
    """
    level = [x]
    for size in (*shape, 2):
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    if set(map(type, level)) != {float}:
        return None
    return np.fromiter(level, np.float64, len(level)).view(np.complex128).reshape(shape)


def _complex_array(x, shape: tuple, what: str, row: str | None = None) -> np.ndarray:
    """x, nested lists of [re, im] numbers, as a complex array of shape (n,), (d,)
    or (n, d); for (n,) and (n, d) the caller has checked that x is a list of n.

    One array when every part is a plain float; else level by level: each innermost
    list must hold shape[-1] numbers (a refusal describes it as row, by default a
    point in shape[-1] variables), then each number is read by _parse_complex.
    """
    fast = _float_pairs(x, shape)
    if fast is not None:
        return fast
    d = shape[-1]
    row = row or f"a point in {d} variables, a list of {d} [re, im] pairs"
    rows = [_parse_list(r, what, d, row) for r in (x if len(shape) > 1 else [x])]
    a = np.array([[_parse_complex(c, what) for c in r] for r in rows], dtype=np.complex128)
    return a.reshape(shape)  # no rows give shape (0,), whatever the shape asked


def _object(x, what: str, required: tuple, optional=()) -> dict:
    """x itself when it is a JSON object with every required key and no other
    key than the optional ones. Passing x itself as optional checks the required
    keys only, as when "type" is read before the branch for that type runs."""
    if not isinstance(x, dict):
        raise InputError(f"{what}: expected an object with {', '.join(required)}, got {x!r:.60}")
    for key in (*required, *x):
        if key not in x:
            raise InputError(f'{what}: missing key "{key}"')
        if key not in required and key not in optional:
            raise InputError(f"{what}: unknown key {key!r:.60}")
    return x


def _parse_points_obj(obj, what: str) -> PointSet:
    _object(obj, what, ("dim", "points"))
    dim = whole_number(obj["dim"], f"{what}.dim", 1)
    pts = _parse_list(obj["points"], f"{what}.points")
    return PointSet(dim, _complex_array(pts, (len(pts), dim), what))


def _parse_coeffs(obj, what: str) -> list:
    """A power_series object's coefficients, {"num", "den"} read; validated_coeffs checks them."""
    coeffs = _parse_list(_object(obj, what, ("type", "coeffs"))["coeffs"], f"{what}.coeffs")
    if set(map(type, coeffs)) != {float}:  # a list of plain floats holds no rational
        coeffs = [_parse_rational(c, f"{what}.coeffs") for c in coeffs]
    return coeffs


def _parse_kernel_obj(obj, what: str, tol: float) -> KernelSpec:
    """A kernel spec; a sampled Gram matrix is checked PSD at the command's tol."""
    kind = _object(obj, what, ("type",), obj)["type"]
    if kind == "power_series":
        return PowerSeriesKernel(_parse_coeffs(obj, what))
    if kind == "drury_arveson":
        _object(obj, what, ("type", "dim"))
        return DruryArvesonKernel(whole_number(obj["dim"], f"{what}.dim", 1))
    if kind == "sampled":
        _object(obj, what, ("type", "labels", "gram"))
        labels = _parse_list(obj["labels"], f"{what}.labels")
        gram = _parse_list(obj["gram"], f"{what}.gram")
        g = _complex_array(gram, (len(gram),) * 2, f"{what}.gram", f"a row of {len(gram)} entries")
        return SampledGramKernel([str(x) for x in labels], g, tol)
    raise InputError(f"{what}: unknown kernel type {kind!r:.60}")


def _parse_family_obj(obj, what: str) -> BlaschkeFamily:
    kind = _object(obj, what, ("type",), obj)["type"]

    def real(key: str) -> float:
        return float(_parse_number(obj[key], f"{what}.{key}"))

    def radii(key: str) -> tuple:
        rs = _parse_list(obj.get(key, []), f"{what}.{key}")  # a prefix may be left out
        return tuple(float(_parse_number(r, f"{what}.{key}")) for r in rs)

    if kind == "finite_list":
        _object(obj, what, ("type", "radii"))
        return FiniteRadii(radii("radii"))
    if kind == "geometric_tail":
        _object(obj, what, ("type", "c", "q"), ("prefix",))
        return GeometricTail(c=real("c"), q=real("q"), prefix=radii("prefix"))
    if kind == "polynomial_tail":
        _object(obj, what, ("type", "c", "p"), ("prefix",))
        return PolynomialTail(c=real("c"), p=real("p"), prefix=radii("prefix"))
    raise InputError(f"{what}: unknown family type {kind!r:.60}")


def _parse_poly_obj(obj, what: str) -> fock.Polynomial:
    _object(obj, what, ("dim", "terms"))
    dim = whole_number(obj["dim"], f"{what}.dim", 1)
    parts: dict = {}  # exponent -> (re, im), the parts of repeated terms summed
    for t in _parse_list(obj["terms"], f"{what}.terms"):
        _object(t, f"{what}.terms", ("exp", "coeff"))
        exp = _parse_list(t["exp"], f"{what}.exp", dim, f"{dim} exponents")
        key = tuple(whole_number(e, f"{what}.exp", 0) for e in exp)
        re, im = _parse_parts(t["coeff"], f"{what}.coeff")
        parts[key] = (parts[key][0] + re, parts[key][1] + im) if key in parts else (re, im)
    return fock.Polynomial(dim, {key: _complex_value(*c) for key, c in parts.items()})


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
            raise InputError(f"{what}: cannot read {path!r} ({e})") from None
        self.hasher.update(raw)
        self.hasher.update(b"\x00")
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as e:  # bad UTF-8, bad JSON, or an integer too long to read
            raise InputError(f"{what}: {path!r} is not valid JSON ({e})") from None

    def digest(self) -> str:
        return "sha256:" + self.hasher.hexdigest()


# ---------------------------------------------------------------------------
# report rendering


def _encode(x):
    """json's default hook: the file form of each value json does not know."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):  # a complex array as [re, im] pairs, in one pass
        return np.stack((x.real, x.imag), -1).tolist() if np.iscomplexobj(x) else x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, fock.QQi):
        return [x.re, x.im]
    raise TypeError(f"cannot serialize {type(x).__name__}")


_FLOAT_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


def _layout(shape: tuple, indent: str) -> str:
    """The canonical text of nested lists of this shape, each number a {} field."""
    if not shape:
        return "{}"
    if not shape[0]:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join([_layout(shape[1:], inner)] * shape[0]) + indent + "]"


def _canonical(x, indent: str = "\n") -> str:
    """json.dumps(x, indent=2, sort_keys=True, default=_encode) byte for byte,
    written out: json runs its pure-Python encoder whenever indent is set. A float
    or complex array is written in one pass, its numbers formatted into _layout."""
    if isinstance(x, float):  # the most common leaf first
        text = float.__repr__(x)
        return _FLOAT_SPELLING.get(text, text)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_canonical(x[k], inner)}" for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        return "[" + inner + ("," + inner).join([_canonical(v, inner) for v in x]) + indent + "]"
    if isinstance(x, np.ndarray) and x.dtype in (np.float64, np.complex128):
        parts = np.stack((x.real, x.imag), -1) if x.dtype == np.complex128 else x
        texts = map(float.__repr__, parts.ravel().tolist())
        if not np.isfinite(parts).all():
            texts = [_FLOAT_SPELLING.get(t, t) for t in texts]
        return _layout(parts.shape, indent).format(*texts)
    return _canonical(_encode(x), indent)


def _text_lines(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for k in value:
            _text_lines(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out.append(f"{prefix} = {json.dumps(value)}")


def _emit(report: dict, fmt: str, stream) -> None:
    """The canonical json, or text lines read back from the same encoding
    (insertion-ordered, so a Fraction renders as .num and .den lines)."""
    if fmt == "json":
        stream.write(_canonical(report) + "\n")
    else:
        lines: list = []
        _text_lines("", json.loads(json.dumps(report, default=_encode)), lines)
        stream.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared loading steps


def _load_gram(args, loader: _Loader):
    """Kernel file plus optional points file -> (gram, label description)."""
    spec = _parse_kernel_obj(loader.load_json(args.kernel, "kernel"), "kernel", args.tol)
    if isinstance(spec, SampledGramKernel):
        if args.points is not None:
            raise InputError("sampled kernels carry their own sample; omit --points")
        return spec.gram(), list(spec.labels)
    if args.points is None:
        raise InputError("analytic kernels need --points")
    pts = _parse_points_obj(loader.load_json(args.points, "points"), "points")
    return spec.gram(pts), pts.points


def _check_base(base: int, n: int) -> int:
    if not 0 <= base < n:
        raise InputError(f"--base {base} out of range for {n} sample points")
    return base


# ---------------------------------------------------------------------------
# command table and handlers: each handler returns (results dict, exit code)


def _checked(convert, accepts, rule: str):
    """argparse type that refuses, as a usage error, text the rule does not accept."""

    def parse(text: str):
        try:
            value = convert(text)
            if accepts(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")

    return parse


def _arg(*names, **options):
    return names, options


KERNEL = _arg("kernel", help="kernel file")
SERIES = _arg("kernel", help="power_series kernel file")
PROBLEM = _arg("problem", help="problem file")
FAMILY = _arg("family", help="family file")
POINTS = _arg("--points", default=None, help="points file (for analytic kernels, or --span kernel)")
SET_Y = _arg("--points", required=True, help="points file for the set Y")
BASE = _arg("--base", type=int, default=0, help="base index (default 0)")
DEGREE = _arg("--degree", type=int, default=DEFAULT_DEGREE, help="degree window (default 12)")
NORM = _arg("--norm", type=float, default=None, help="check feasibility at this norm level")
Z = _arg("--z", required=True, help="point as JSON, e.g. '[[0.5,0],[0,0]]'")
PHI = _arg("--phi", required=True, help='multiplier as JSON {"dim": d, "terms": [...]}')
SPAN = _arg(
    "--span",
    choices=("full", "powers", "kernel"),
    default="full",
    help="compression subspace: whole window, powers of phi, or kernel span of --points",
)
COUNT = _arg(
    "--count",
    type=_checked(int, lambda n: n >= 0, "a non-negative integer"),
    help="number of powers for --span powers",
)
TOL = _arg(
    "--tol",
    type=_checked(float, lambda t: 0 < t < math.inf, "a finite positive number"),
    default=DEFAULT_TOL,
    help="tolerance, relative to the scale of the data each command judges (default 1e-9)",
)
FORMAT = _arg("--format", choices=("json", "text"), default="json")
GROUPS = {"fock": "exact truncated ball-kernel computations"}
COMMANDS: dict = {}  # name -> (handler, help, arguments besides FORMAT)


def _command(name: str, help_text: str, *arguments):
    """Enter the decorated handler in COMMANDS. A name "g leaf" is the
    subcommand leaf of the group g in GROUPS."""

    def enter(handler):
        COMMANDS[name] = (handler, help_text, arguments)
        return handler

    return enter


@_command("cnp-check", "sample-level complete Nevanlinna-Pick test", KERNEL, POINTS, BASE, TOL)
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


@_command("ratio-check", "coefficient ratio tests for disk kernels", SERIES)
def _cmd_ratio_check(args, loader):
    obj = loader.load_json(args.kernel, "kernel")
    if _object(obj, "kernel", ("type",), obj)["type"] != "power_series":
        raise InputError("ratio-check applies to power_series kernels only")
    report = ratio_report(_parse_coeffs(obj, "kernel"))
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


@_command("pick", "Pick feasibility or minimal interpolation norm", PROBLEM, NORM, TOL)
def _cmd_pick(args, loader):
    obj = loader.load_json(args.problem, "problem")
    _object(obj, "problem", ("kernel", "nodes", "targets"))
    spec = _parse_kernel_obj(obj["kernel"], "problem.kernel", args.tol)
    targets = _parse_list(obj["targets"], "problem.targets")
    targets = _complex_array(targets, (len(targets),), "problem.targets")
    nodes = _parse_list(obj["nodes"], "problem.nodes")
    if isinstance(spec, SampledGramKernel):
        nodes = [str(x) for x in nodes]
    else:
        nodes = PointSet(spec.dim, _complex_array(nodes, (len(nodes), spec.dim), "problem.nodes"))
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


@_command("embed", "realize a sample inside the unit ball", KERNEL, POINTS, BASE, TOL)
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


@_command(
    "reconstruct", "classify a sample and factor through the disk", KERNEL, POINTS, BASE, TOL
)
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


@_command("partition", "split a sample into irreducible blocks", KERNEL, POINTS, TOL)
def _cmd_partition(args, loader):
    g, labels = _load_gram(args, loader)
    classes = irreducible_partition(unit_diagonal(g), args.tol)
    return {"classes": classes, "count": len(classes), "sample": labels}, 0


@_command("blaschke", "classify a radii family's gap sum", FAMILY)
def _cmd_blaschke(args, loader):
    fam = _parse_family_obj(loader.load_json(args.family, "family"), "family")
    verdict = blaschke_classify(fam)
    return {
        "divergent": verdict.divergent,
        "gap_sum": "DIVERGENT" if verdict.divergent else verdict.total,
        "is_uniqueness_set": verdict.is_uniqueness_set,
    }, 0


@_command("closure", "kernel-span membership for a point", SET_Y, Z, DEGREE, TOL)
def _cmd_closure(args, loader):
    pts = _parse_points_obj(loader.load_json(args.points, "points"), "points")
    z = _complex_array(_parse_json_arg(args.z, "--z"), (pts.dim,), "--z")
    membership = fock.in_closure(z, pts, args.degree, args.tol)
    return {
        "member": membership.member,
        "residual": membership.residual,
        "degree": args.degree,
    }, (0 if membership.member else 1)


@_command("fock arveson", "exact non-hyponormal multiplier witness")
def _cmd_fock_arveson(args, loader):
    witness = fock.arveson_example()
    space = fock.TruncatedSpace(2, 6)
    z1z2 = fock.Polynomial.monomial(2, (1, 1))
    span = fock.powers_span(space, z1z2, 2)
    defect = fock.compression_defect(z1z2, span)
    return {
        "forward_norm_sq": witness.forward_norm_sq,
        "adjoint_norm_sq": witness.adjoint_norm_sq,
        "strictly_smaller": witness.forward_norm_sq < witness.adjoint_norm_sq,
        "compression_defect_on_three_powers": defect,
    }, 0


@_command("fock balance", "adjoint/forward norm balance on the kernel tail", Z, DEGREE)
def _cmd_fock_balance(args, loader):
    raw = _parse_list(_parse_json_arg(args.z, "--z"), "--z", shape="a list of [re, im] pairs")
    balance = fock.tail_balance([_complex_value(*_parse_parts(c, "--z")) for c in raw], args.degree)
    ok = balance.within_bound
    return {
        "adjoint_norm_sq": balance.adjoint_norm_sq,
        "forward_norm_sq": balance.forward_norm_sq,
        "tail_bound": balance.tail_bound,
        "rounding_bound": balance.rounding_bound,
        "within_bound": ok,
        "degree": args.degree,
    }, (0 if ok else 1)


@_command(
    "fock defect",
    "self-commutator defect of a compressed multiplier",
    PHI, SPAN, COUNT, POINTS, DEGREE, TOL,
)
def _cmd_fock_defect(args, loader):
    if args.count is not None and args.span != "powers":
        raise InputError("--count applies to --span powers only")
    if (args.points is None) == (args.span == "kernel"):
        raise InputError("--points goes with --span kernel, and --span kernel needs --points")
    # the terms of --phi past the window act on nothing in it, so they are cut as it is read
    phi = fock.truncated(_parse_poly_obj(_parse_json_arg(args.phi, "--phi"), "--phi"), args.degree)
    if args.span == "kernel":  # vanishing_subspace builds its own window
        pts = _parse_points_obj(loader.load_json(args.points, "points"), "points")
        if pts.dim != phi.dim:
            raise InputError("points dimension does not match the multiplier")
        subspace = fock.vanishing_subspace(pts, args.degree).complement
    else:
        subspace = fock.TruncatedSpace(phi.dim, args.degree)  # the whole window
        if args.span == "powers":
            count = fock.powers_that_fit(subspace, phi) if args.count is None else args.count
            subspace = fock.powers_span(subspace, phi, count)
    defect = fock.compression_defect(phi, subspace)
    hyponormal_here = defect >= -threshold(args.tol, fock.defect_scale(phi))
    return {
        "defect": defect,
        "span": args.span,
        "span_dim": len(subspace) if args.span == "full" else subspace.dim,
        "degree": args.degree,
        "hyponormal_on_this_model": hyponormal_here,
        "claim_scope": "a negative defect refutes hyponormality of the compression "
        "P_F M_phi|_F only, not of M_phi, since truncation alone can make it negative; "
        "a non-negative defect certifies this finite compression only",
    }, (0 if hyponormal_here else 1)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call. Parsing leaves it as it was,
    and each handler looks its library names up when it runs."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple:
    """(tree, leaves): the parser tree, and its leaf parsers keyed by their command
    words, such as ("pick",) or ("fock", "defect")."""
    parser = argparse.ArgumentParser(
        prog="rkhslab",
        description="Reproducing-kernel Hilbert space laboratory: Pick feasibility, "
        "CNP sample tests, ball embeddings, exact truncated ball-kernel computations, "
        "and disk reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict = {}
    leaves: dict = {}
    for name, (handler, help_text, arguments) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            group_parser = sub.add_parser(group, help=GROUPS[group])
            groups[group] = group_parser.add_subparsers(dest=f"{group}_command", required=True)
        p = (groups[group] if group else sub).add_parser(leaf, help=help_text)
        for names, options in arguments + (FORMAT,):
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler)
        leaves[tuple(name.split())] = p
    return parser, leaves


def _parse_args(argv: list) -> argparse.Namespace:
    """What the tree's parse_args gives, from the leaf parser alone when the
    command words name a leaf: its output, usage errors and exit are the same,
    as the tree hands the leaf every argument after them."""
    tree, leaves = _parsers()
    words = tuple(argv[:2] if argv[:1] == ["fock"] else argv[:1])
    if words not in leaves:  # help, an unknown command, or a group alone
        return tree.parse_args(argv)
    args, extra = leaves[words].parse_known_args(argv[len(words):])
    if extra:
        tree.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = words[0]
    if len(words) == 2:
        args.fock_command = words[1]
    return args


def main(argv=None) -> int:
    """Run one command on argv (sys.argv[1:] by default), write its report to
    stdout and return the exit code. Arguments are parsed by the command's own
    leaf parser, with the tree's messages; a usage error exits 2 through argparse."""
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    command = f"fock {args.fock_command}" if args.command == "fock" else args.command

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
    loader.note(json.dumps(digest_params, sort_keys=True))

    try:
        results, code = args.handler(args, loader)
    except HypothesisError as e:
        results, code = {
            "error": {"type": type(e).__name__, "hypothesis": e.hypothesis, "message": str(e)}
        }, 2
    except InputError as e:
        results, code = {"error": {"type": type(e).__name__, "message": str(e)}}, 2
    except Exception as e:  # a fault of the program, not of its input
        traceback.print_exc()
        message = f"{type(e).__name__}: {e}"
        results, code = {"error": {"type": "InternalError", "message": message}}, 3

    report = {
        "command": command,
        "inputs_digest": loader.digest(),
        "parameters": params,
        "results": results,
        "exit_code": code,
    }
    _emit(report, args.format, sys.stdout)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
