"""The one rule for a real number from outside, at every entry point that takes one.

linalg.real_number refuses a boolean, a value that is not a number and an int or
Fraction past the float range, each with InputError and one message that names
the field. Every entry point that takes a real number from outside calls it, so
none of them raises OverflowError or TypeError instead, and each kind of number
accepted before is accepted with the same value. NaN, which the rule passes, is
refused by each caller's own range rule.
"""

import ast
import json
import math
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rkhslab import cli
from rkhslab.cnp import FiniteRadii, GeometricTail, PolynomialTail, ratio_report
from rkhslab.errors import InputError
from rkhslab.fock import Polynomial, QQi, in_closure, tail_balance
from rkhslab.kernels import PointSet, PowerSeriesKernel, validated_coeffs
from rkhslab.linalg import HermitianMatrix, psd_check, real_number, threshold
from rkhslab.pick import PickProblem, pick_feasible, pick_matrix

SRC = Path(__file__).resolve().parents[1] / "src" / "rkhslab"
FLOAT_MAX = int(sys.float_info.max)

BAD = {
    "bool": (True, "expected a number, got a boolean"),
    "numpy bool": (np.True_, "expected a number, got a boolean"),
    "str": ("0.5", "expected a number, got '0.5'"),
    "None": (None, "expected a number, got None"),
    "list": ([1.0], "expected a number, got [1.0]"),
    "complex": (0.5j, "expected a number, got 0.5j"),
    "huge int": (10**400, "number beyond the float range"),
    "huge negative int": (-(10**400), "number beyond the float range"),
    "huge fraction": (Fraction(10**400, 3), "number beyond the float range"),
}

PROBLEM = PickProblem(PowerSeriesKernel([1.0] * 40), PointSet(1, [[0.1], [0.5]]), [0.0, 0.25])
PLANE = PointSet(2, [[0.1, 0.0], [0.0, 0.2]])

# entry point: (call on x, the field its refusals name, the caller's refusal of NaN
# or None where the entry has no range rule)
ENTRIES = {
    "cli number": (lambda x: cli._parse_number(x, "family.c"), "family.c", None),
    "coefficient": (lambda x: validated_coeffs([1, 0.5, x]), "coefficient 2",
                    "coefficient 2 must be positive, got nan"),
    "kernel coefficient": (lambda x: PowerSeriesKernel([1, x]), "coefficient 1",
                           "coefficient 1 must be positive, got nan"),
    "ratio coefficient": (lambda x: ratio_report([1, 0.5, x]), "coefficient 2",
                          "coefficient 2 must be positive, got nan"),
    "finite radius": (lambda x: FiniteRadii((0.5, x)), "finite-list radius 1",
                      "finite-list radius 1 is nan, not in (0, 1)"),
    "prefix radius": (lambda x: PolynomialTail(c=0.5, p=2.0, prefix=(x,)), "prefix radius 0",
                      "prefix radius 0 is nan, not in (0, 1)"),
    "geometric c": (lambda x: GeometricTail(c=x, q=0.5), "c", "c must be positive"),
    "geometric q": (lambda x: GeometricTail(c=0.5, q=x), "q", "q must lie in (0, 1)"),
    "polynomial c": (lambda x: PolynomialTail(c=x, p=2.0), "c", "c must be positive"),
    "polynomial p": (lambda x: PolynomialTail(c=0.5, p=x), "p", "p must be finite"),
    "norm level": (lambda x: pick_feasible(PROBLEM, x), "norm level t",
                   "norm level t must be positive with t^2 finite"),
    "pick matrix level": (lambda x: pick_matrix(PROBLEM, x), "norm level t",
                          "norm level t must be positive with t^2 finite"),
    "threshold": (lambda x: threshold(x, 1.0), "tol", "tol must be positive and finite, got nan"),
    "psd tol": (lambda x: psd_check(HermitianMatrix(np.eye(2)), x), "tol",
                "tol must be positive and finite, got nan"),
    "closure tol": (lambda x: in_closure([0.1, 0.1], PLANE, 3, x), "tol",
                    "tol must be positive and finite, got nan"),
    "fock coefficient": (lambda x: Polynomial(1, {(1,): x}), "coefficient",
                         "coefficient: expected a finite number, got (nan+0j)"),
    "balance coordinate": (lambda x: tail_balance([0.25, x], 4), "coordinate 1",
                           "coordinate 1: expected a finite number, got (nan+0j)"),
}


COMPLEX_ENTRIES = ("fock coefficient", "balance coordinate")  # where a complex is a number


@pytest.mark.parametrize(
    "entry, bad",
    [(entry, bad) for entry in ENTRIES for bad in BAD if not (bad == "complex" and entry in COMPLEX_ENTRIES)],
)
def test_every_entry_point_refuses_a_non_number_the_same_way(entry, bad):
    call, what, _ = ENTRIES[entry]
    x, text = BAD[bad]
    with pytest.raises(InputError) as refusal:  # neither OverflowError nor TypeError
        call(x)
    assert str(refusal.value) == f"{what}: {text}"


@pytest.mark.parametrize("entry", [name for name, (_, _, nan) in ENTRIES.items() if nan])
def test_nan_is_refused_by_the_caller_range_rule(entry):
    call, _, text = ENTRIES[entry]
    with pytest.raises(InputError) as refusal:
        call(math.nan)
    assert str(refusal.value) == text


@pytest.mark.parametrize("part", [Fraction(10**400, 3), 10**400, -(10**400)], ids=repr)
def test_a_qqi_part_beyond_the_float_range_is_refused(part):
    # a QQi holds its parts as Fractions, so the range is all that is left to refuse
    for x in (QQi(part, 0), QQi(0, part)):
        for what in COMPLEX_ENTRIES:
            call, field, _ = ENTRIES[what]
            with pytest.raises(InputError, match=f"^{field}: number beyond the float range$"):
                call(x)


def bits(x):
    """A value as its type and bits, a float by its bytes so that -0.0 is not 0.0; a
    tuple of results as it is."""
    if isinstance(x, complex):
        return type(x), struct.pack("<dd", x.real, x.imag)
    if isinstance(x, float):
        return type(x), struct.pack("<d", x)
    return x if isinstance(x, tuple) else (type(x), x)


# entry point: (call on x, the value it must give, as it gave before for the kinds it
# took, the values it accepts)
FRACTIONAL = [0.25, Fraction(1, 3), np.float64(0.375), np.float32(0.5)]
WHOLE = [2, np.int64(2), Fraction(2, 1)]
ACCEPTS = {
    "cli number": (lambda x: cli._parse_number(x, "x"), lambda x: x, FRACTIONAL + WHOLE),
    "coefficient": (lambda x: validated_coeffs([1, x])[1], lambda x: x, FRACTIONAL + WHOLE),
    "finite radius": (lambda x: FiniteRadii((x,)).radii[0], float, FRACTIONAL),
    "geometric c": (lambda x: GeometricTail(c=x, q=0.5).c, lambda x: x, FRACTIONAL),
    "polynomial p": (lambda x: PolynomialTail(c=0.5, p=x).p, lambda x: x, FRACTIONAL + WHOLE),
    "norm level": (lambda x: pick_feasible(PROBLEM, x).min_eig,
                   lambda x: pick_feasible(PROBLEM, float(x)).min_eig, FRACTIONAL + WHOLE),
    "threshold": (lambda x: threshold(x, 3.0), lambda x: x * 3.0, FRACTIONAL + WHOLE),
    "fock coefficient": (lambda x: Polynomial(1, {(1,): x}).coeffs[(1,)], complex,
                         FRACTIONAL + WHOLE + [QQi(Fraction(1, 3), -2)]),
    "balance coordinate": (lambda x: tail_balance([0.25, x], 4),
                           lambda x: tail_balance([0.25, complex(x)], 4),
                           FRACTIONAL + [0, np.int64(0), QQi(Fraction(1, 8), Fraction(-1, 4))]),
}


@pytest.mark.parametrize("entry", ACCEPTS)
def test_every_kind_accepted_before_keeps_its_value(entry):
    call, kept, values = ACCEPTS[entry]
    for x in values:
        assert bits(call(x)) == bits(kept(x)), (entry, x)


@pytest.mark.parametrize(
    "x",
    [0.5, -0.0, math.nan, math.inf, -math.inf, 3, -3, Fraction(-1, 3), np.float64(2.5),
     np.float32(math.inf), np.int64(-7), Fraction(FLOAT_MAX), -FLOAT_MAX, Fraction(FLOAT_MAX, 3)],
    ids=repr,
)
def test_the_rule_returns_each_number_as_it_is(x):
    assert real_number(x, "x") is x


@pytest.mark.parametrize("x", [FLOAT_MAX + 1, -FLOAT_MAX - 1, Fraction(FLOAT_MAX + 1)], ids=repr)
def test_the_float_range_ends_at_the_largest_float(x):
    with pytest.raises(InputError, match="^x: number beyond the float range$"):
        real_number(x, "x")


def modules_using(name: str) -> list:
    """The module of each use of name in src/rkhslab outside linalg.real_number."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        rule = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "real_number"]
        inside = range(rule[0].lineno, rule[0].end_lineno + 1) if rule else range(0)
        found += [path.name for n in ast.walk(tree) if name in (
            getattr(n, "id", None), getattr(n, "attr", None), isinstance(n, ast.alias) and n.name)
            and n.lineno not in inside]
    return found


def test_the_range_and_type_checks_live_in_the_rule_only():
    assert "beyond_float_range(" not in "".join(p.read_text() for p in SRC.glob("*.py"))
    # the largest float as an int is defined next to the rule, and read by it alone
    assert modules_using("_FLOAT_MAX") == ["linalg.py"]
    # numbers.Real, the test for a real number, is imported by linalg alone
    assert modules_using("Real") == ["linalg.py"]


def test_summed_exact_terms_past_the_float_range_are_refused(capsys):
    # two terms at one exponent, each within the float range, whose exact sum is past it:
    # the QQi of the sum raised OverflowError, an internal error with exit 3, before
    big = "17" + "0" * 307
    phi = f'{{"dim": 1, "terms": [{{"exp": [1], "coeff": {big}}}, {{"exp": [1], "coeff": {big}}}]}}'
    assert cli.main(["fock", "defect", "--phi", phi, "--degree", "3"]) == 2
    error = json.loads(capsys.readouterr().out)["results"]["error"]
    assert error == {"type": "InputError", "message": "coefficient: number beyond the float range"}


@pytest.mark.parametrize("command", [["ratio-check"], ["cnp-check", "--points", "POINTS"]])
@pytest.mark.parametrize("entry, message", [
    ("true", "coefficient 1: expected a number, got a boolean"),
    ('"3"', "coefficient 1: expected a number, got '3'"),
    ("null", "coefficient 1: expected a number, got None"),
    ('{"a": 1}', "coefficient 1: expected a number, got {'a': 1}"),
    (str(10**400), "coefficient 1: number beyond the float range"),
    (f'{{"num": "{10**400}", "den": "3"}}', "coefficient 1: number beyond the float range"),
    ('{"num": "1.5", "den": "2"}', "kernel.coeffs: bad rational {'num': '1.5', 'den': '2'} "
                                   "(invalid literal for int() with base 10: '1.5')"),
])
def test_a_kernel_file_names_a_bad_coefficient_by_its_index(command, entry, message, tmp_path, capsys):
    kernel, points = tmp_path / "kernel.json", tmp_path / "points.json"
    kernel.write_text(f'{{"type": "power_series", "coeffs": [1, {entry}, 0.25, 0.125]}}')
    points.write_text('{"dim": 1, "points": [[[0.1, 0.0]], [[0.2, 0.0]]]}')
    argv = [command[0], str(kernel), *[str(points) if a == "POINTS" else a for a in command[1:]]]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().out)["results"]["error"] == {"type": "InputError", "message": message}
