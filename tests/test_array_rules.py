"""The rules for an array, an integer, a list and a label from outside, at every entry point
that takes one.

linalg.complex_array reads every array of complex numbers from outside: a numeric
ndarray in one call, anything else entry by entry with linalg.complex_number, which
reads a complex as it is and any other value with linalg.real_number, and refuses an
entry that is not finite. linalg.whole_number reads every size, degree, exponent and
index. Each refuses with InputError and one text that names the field, so no entry
point raises OverflowError, TypeError, IndexError or a bare ValueError instead, or
reads a string, a boolean or a ragged row as data. Each site keeps its own shape and
range rules, which are reached here too.

linalg.listed reads every list from outside: coefficients, radii, labels, nodes, polynomial
terms and polynomials. It takes a list, tuple, 1-d array or other ordered iterable (a
generator or a zip too) and refuses a str, bytes, mapping, set or non-iterable, so a str is
never split into characters nor a mapping read by its keys; a Polynomial keeps its own branch
for a mapping. linalg.distinct_labels reads sample labels and Pick nodes by listed, and
refuses an entry that is not a str and a repeated one, so no label is converted by str().
"""

import ast
import copy
import dataclasses
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import seeded_by, sites

from rkhslab.cli import main
from rkhslab.cnp import (
    FiniteRadii,
    GeometricTail,
    PolynomialTail,
    agler_mccarthy_embed,
    blaschke_classify,
    cnp_sample_check,
    ratio_report,
)
from rkhslab.errors import DomainError, InputError
from rkhslab.fock import (
    FockSubspace,
    Polynomial,
    TruncatedSpace,
    compression_defect,
    defect_scale,
    in_closure,
    inner_product,
    mult_adjoint_apply,
    span_of_polynomials,
    pairing_power_norms,
    powers_span,
    powers_that_fit,
    tail_balance,
    truncated,
    vanishing_subspace,
)
from rkhslab.kernels import (
    DruryArvesonKernel,
    PointSet,
    PowerSeriesKernel,
    SampledGramKernel,
    first_coincident_pair,
    normalize,
)
from rkhslab.linalg import (
    HermitianMatrix,
    Subspace,
    complex_array,
    complex_number,
    listed,
    verify_hyponormal_closure,
    whole_number,
)
from rkhslab.pick import PickProblem
from rkhslab.reconstruct import classify, j_from_formula, verify_factorization

SZEGO = PowerSeriesKernel([1.0] * 40)
DISK = PointSet(1, [[0.1], [0.5]])
G = HermitianMatrix(1.0 / (1.0 - np.outer([0.0, 0.3, 0.5j], np.conj([0.0, 0.3, 0.5j]))))
Z1 = Polynomial(1, {(1,): 1.0})

# the bad values an array entry can be, each with the text that follows "<field>: "
BAD_ENTRIES = {
    "str": ("0.5", "expected a number, got '0.5'"),
    "bool": (True, "expected a number, got a boolean"),
    "numpy bool": (np.True_, "expected a number, got a boolean"),
    "None": (None, "expected a number, got None"),
    "huge int": (10**400, "number beyond the float range"),
    "nan": (float("nan"), "expected a finite number, got (nan+0j)"),
    "inf": (float("inf"), "expected a finite number, got (inf+0j)"),
}

# array entry point: (call on the array, the field its refusals name, a valid array)
ARRAYS = {
    "hermitian matrix": (HermitianMatrix, "matrix", [[1.0, 0.5], [0.5, 1.0]]),
    "sampled gram": (lambda a: SampledGramKernel(["a", "b"], a), "matrix", [[1.0, 0.5], [0.5, 1.0]]),
    "closure operator": (lambda a: verify_hyponormal_closure(a, Subspace(np.eye(2)), [1.0, 0.0]),
                         "operator", [[0.0, 1.0], [0.0, 0.0]]),
    "closure vector": (lambda a: verify_hyponormal_closure(np.eye(2), Subspace(np.eye(2)), a),
                       "vector", [1.0, 0.5]),
    "subspace": (Subspace, "subspace basis", [[1.0, 0.0], [0.0, 1.0]]),
    "fock subspace": (lambda a: FockSubspace(TruncatedSpace(1, 1), a), "subspace basis", [[1.0], [0.0]]),
    "kernel point": (lambda a: DruryArvesonKernel(2).evaluate(a, [0.0, 0.0]), "point", [0.1, 0.2]),
    "point set": (lambda a: PointSet(2, a), "points", [[0.1, 0.0], [0.0, 0.2]]),
    "coincident pair": (first_coincident_pair, "points", [[0.1, 0.0], [0.1, 0.0]]),
    "pick targets": (lambda a: PickProblem(SZEGO, DISK, a), "targets", [0.1, 0.2]),
    "kernel vector": (lambda a: TruncatedSpace(2, 3).kernel_vector(a), "point", [0.1, 0.2]),
    "closure point": (lambda a: in_closure(a, PointSet(2, [[0.1, 0.0]]), 3), "point", [0.1, 0.2]),
    "factorization delta": (lambda a: verify_factorization(G, a, [0.0, 0.3, 0.5j]), "delta", [1.0, 1.0, 1.0]),
    "factorization j": (lambda a: verify_factorization(G, [1.0, 1.0, 1.0], a), "j values", [0.0, 0.3, 0.5]),
}


def with_last_entry(rows, x):
    """rows, nested lists, with its last entry replaced by x."""
    rows = copy.deepcopy(rows)
    inner = rows
    while isinstance(inner[-1], list):
        inner = inner[-1]
    inner[-1] = x
    return rows


def ragged(rows):
    """rows with one row a list shorter than the others: a flat list becomes two rows."""
    if not isinstance(rows[0], list):
        return [rows[:1], rows]
    return rows[:-1] + [rows[-1][:-1]]


def refusal(call, x) -> str:
    with pytest.raises(InputError) as refused:  # neither OverflowError, TypeError nor a bare ValueError
        call(x)
    assert type(refused.value) is InputError
    return str(refused.value)


@pytest.mark.parametrize("entry, bad", [(entry, bad) for entry in ARRAYS for bad in BAD_ENTRIES])
def test_every_array_refuses_a_bad_entry_with_the_rule_text(entry, bad):
    call, what, valid = ARRAYS[entry]
    x, text = BAD_ENTRIES[bad]
    assert refusal(call, with_last_entry(valid, x)) == f"{what}: {text}"
    if isinstance(x, float):  # as an ndarray, read in one call, with the same text
        assert refusal(call, np.array(with_last_entry(valid, x))) == f"{what}: {text}"


@pytest.mark.parametrize("entry", ARRAYS)
def test_a_ragged_row_is_an_entry_that_is_not_a_number(entry):
    call, what, valid = ARRAYS[entry]
    rows = ragged(valid)
    assert refusal(call, rows) == f"{what}: expected a number, got {rows[0]!r:.60}"


@pytest.mark.parametrize("entry", ARRAYS)
def test_every_array_reads_a_valid_list_as_its_ndarray(entry):
    call, _, valid = ARRAYS[entry]
    assert outcome(call(valid)) == outcome(call(tuple(valid))) == outcome(call(np.array(valid)))


# a scalar complex_number entry point: (call on x, the field its refusals name)
SCALARS = {
    "j_mu": (lambda x: j_from_formula(G, 0, 1, x), "j_mu"),
    "polynomial coefficient": (lambda x: Polynomial(1, {(1,): x}), "coefficient"),
    "balance coordinate": (lambda x: tail_balance([0.25, x], 4), "coordinate 1"),
}


@pytest.mark.parametrize("entry, bad", [(entry, bad) for entry in SCALARS for bad in BAD_ENTRIES])
def test_every_complex_number_refuses_with_the_rule_text(entry, bad):
    call, what = SCALARS[entry]
    x, text = BAD_ENTRIES[bad]
    assert refusal(call, x) == f"{what}: {text}"
    assert refusal(call, [0.5]) == f"{what}: expected a number, got [0.5]"


def test_j_from_formula_reads_j_mu_as_before():
    for j_mu in (0.3, 3, Fraction(3, 10), np.float32(0.3), 0.3 + 0.1j, np.complex64(0.3j)):
        assert np.array_equal(j_from_formula(G, 0, 1, j_mu), j_from_formula(G, 0, 1, complex(j_mu)))


# integer entry point: (call on n, the field its refusals name, its least value, a valid value)
INTEGERS = {
    "point set dim": (lambda n: PointSet(n, [[0.1]]), "dim", 1, 1),
    "drury-arveson dim": (DruryArvesonKernel, "dim", 1, 2),
    "polynomial dim": (Polynomial, "dim", 1, 2),
    "space dim": (lambda n: TruncatedSpace(n, 2), "dim", 1, 2),
    "space degree": (lambda n: TruncatedSpace(2, n), "degree", 0, 2),
    "exponent": (lambda n: Polynomial(2, [((1, n), 0.5)]), "exponent", 0, 2),
    "power": (lambda n: Z1**n, "exponent", 0, 3),
    "powers count": (lambda n: powers_span(TruncatedSpace(1, 4), Z1, n), "count", 0, 2),
    "adjoint degree": (lambda n: mult_adjoint_apply(Z1, Z1, n), "degree", 0, 3),
    "vanishing degree": (lambda n: vanishing_subspace(DISK, n), "degree", 1, 3),
    "closure degree": (lambda n: in_closure([0.2], DISK, n), "degree", 1, 3),
    "balance degree": (lambda n: tail_balance([0.25], n), "degree", 1, 4),
    "pairing degree": (lambda n: pairing_power_norms([0.5], 2, n), "degree", 0, 3),
    "pairing n": (lambda n: pairing_power_norms([0.5], n, 4), "n", 2, 3),
    "normalize base": (lambda n: normalize(G, n), "base index", 0, 1),
    "cnp base": (lambda n: cnp_sample_check(G, n), "base index", 0, 1),
    "embed base": (lambda n: agler_mccarthy_embed(G, n), "base index", 0, 1),
    "classify base": (lambda n: classify(G, n), "base index", 0, 1),
    "formula base": (lambda n: j_from_formula(G, n, 1, 0.3), "base index", 0, 2),
    "formula mu": (lambda n: j_from_formula(G, 0, n, 0.3), "mu index", 0, 2),
}

NOT_INTEGERS = ["0.5", True, np.True_, None, float("nan"), float("inf"), 0.5, 2.0, np.float64(1.0),
                Fraction(2), [[1], [1, 2]]]


@pytest.mark.parametrize("entry, x", [(entry, x) for entry in INTEGERS for x in NOT_INTEGERS + ["least - 1"]])
def test_every_integer_refuses_with_the_rule_text(entry, x):
    call, what, least, _ = INTEGERS[entry]
    if x == "least - 1":
        x = least - 1
    assert refusal(call, x) == f"{what}: expected an integer >= {least}, got {x!r:.60}"


def outcome(x):
    """A result as comparable data: arrays by their bytes, other values by their fields."""
    if isinstance(x, (HermitianMatrix, Subspace, PointSet, SampledGramKernel)):
        x = x.gram() if isinstance(x, SampledGramKernel) else np.asarray(getattr(x, "basis", x))
        x = x.points if isinstance(x, PointSet) else x
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return type(x), [outcome(v) for v in x]
    if dataclasses.is_dataclass(x):
        return type(x), [outcome(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, Polynomial):
        return x.dim, x.coeffs
    return type(x), repr(x)


@pytest.mark.parametrize("entry", INTEGERS)
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_a_numpy_integer_is_read_as_its_int(entry, kind):
    call, _, _, n = INTEGERS[entry]
    got, want = call(kind(n)), call(n)
    assert outcome(got) == outcome(want)
    for field in ("dim", "degree"):
        if hasattr(got, field):
            assert type(getattr(got, field)) is int


def test_whole_number_returns_an_int():
    assert whole_number(np.int64(3), "n", 0) == 3 and type(whole_number(np.int64(3), "n", 0)) is int
    assert whole_number(10**400, "n", 0) == 10**400
    for x in (True, np.False_, 1.0, "1", None):
        with pytest.raises(InputError, match="^n: expected an integer >= 0, got "):
            whole_number(x, "n", 0)


# ---------------------------------------------------------------------------
# the array rule reads every valid input as numpy did

NUMERIC_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
                  np.float16, np.float32, np.float64, np.longdouble, np.complex64, np.complex128]


def random_entry(rng):
    """One value of a kind numpy reads as a number, drawn with its own magnitude and sign."""
    kind = rng.integers(11)
    real = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
    whole = int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 2**10)) ** int(rng.integers(0, 3))
    return [
        real,
        -0.0,
        whole,
        complex(real, float(rng.standard_normal())),
        Fraction(int(rng.integers(-(2**40), 2**40)), int(rng.integers(1, 2**40))),
        np.float64(real),
        np.float32(rng.standard_normal()),
        np.int64(rng.integers(-(2**62), 2**62)),
        np.uint8(rng.integers(256)),
        np.complex64(complex(rng.standard_normal(), rng.standard_normal())),
        5e-324,
    ][kind]


@seeded_by(60)
def test_a_valid_input_gives_the_array_numpy_gives(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(0, 4, size=rng.integers(0, 4)))
    size = int(np.prod(shape))
    nested = np.array([random_entry(rng) for _ in range(size)] or [0], dtype=object)[:size].reshape(shape)
    rows = nested.tolist()
    if rng.integers(2) and shape:  # tuples are rows too
        rows = tuple(rows)
    got, want = complex_array(rows, "x"), np.asarray(rows, dtype=np.complex128)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    dtype = NUMERIC_DTYPES[rng.integers(len(NUMERIC_DTYPES))]
    with np.errstate(all="ignore"):
        array = np.asarray(rng.standard_normal(shape) * 100).astype(dtype)
    if np.isfinite(array.astype(np.complex128)).all():
        assert complex_array(array, "x").tobytes() == np.asarray(array, dtype=np.complex128).tobytes()


def test_a_complex128_array_is_returned_as_it_is():
    a = np.array([[0.5j, 1.0]])
    assert complex_array(a, "x") is a
    assert complex_number(np.complex64(0.5j), "x") == 0.5j and complex_number(Fraction(1, 4), "x") == 0.25


def test_ndarrays_of_unequal_shapes_in_one_list_are_refused():
    # numpy cannot stack them even as objects; each is then an entry, and not a number
    text = refusal(HermitianMatrix, [np.zeros((2, 2)), np.zeros((2, 3))])
    assert text.startswith("matrix: expected a number, got array(")


@pytest.mark.parametrize("x", [np.array([True, False]), np.array(["0.5"]), np.array([0.5, "0.5"], dtype=object)])
def test_bool_str_and_object_arrays_are_read_entry_by_entry(x):
    assert refusal(lambda a: complex_array(a, "x"), x).startswith("x: expected a number, got ")
    assert complex_array(np.array([0.5, Fraction(1, 4)], dtype=object), "x").tolist() == [0.5, 0.25]


# ---------------------------------------------------------------------------
# the list and label rules

SAMPLED = SampledGramKernel(["a", "b"], np.eye(2))

# list entry point: (call on the list, the field its refusals name, a valid list)
LISTS = {
    "power-series coefficients": (PowerSeriesKernel, "coefficients", [1.0, 0.5, 0.25]),
    "ratio coefficients": (ratio_report, "coefficients", [1, Fraction(1, 2), 0.25]),
    "finite radii": (FiniteRadii, "finite-list radii", [0.5, 0.75]),
    "geometric prefix": (lambda x: GeometricTail(0.5, 0.5, prefix=x), "prefix radii", [0.25]),
    "polynomial prefix": (lambda x: PolynomialTail(1, 1, prefix=x), "prefix radii", [0.25]),
    "sampled labels": (lambda x: SampledGramKernel(x, np.eye(2)), "labels", ["a", "b"]),
    "requested labels": (SAMPLED.gram, "requested labels", ["b", "a"]),
    "pick nodes": (lambda x: PickProblem(SAMPLED, x, [0.1, 0.2]), "nodes", ["b", "a"]),
    "polynomial terms": (lambda x: Polynomial(2, x), "terms", [((1, 0), 0.5), ((0, 2), 1j)]),
    "polynomials": (lambda x: span_of_polynomials(TruncatedSpace(1, 2), x), "polynomials", [Z1, Z1 * Z1]),
}

NOT_LISTS = [5, None, "ab", b"ab", {"a": 1}, {1, 2}]


@pytest.mark.parametrize("entry, x", [(entry, x) for entry in LISTS for x in NOT_LISTS], ids=repr)
def test_every_list_refuses_a_non_list_with_the_rule_text(entry, x):
    # each raised TypeError, split a str into characters or read a mapping by its keys
    call, what, _ = LISTS[entry]
    if entry == "polynomial terms" and isinstance(x, dict):
        assert Polynomial(2, {(1, 0): 0.5}) == call([((1, 0), 0.5)])  # a mapping is read by its own branch
        return
    if entry == "requested labels" and x is None:
        assert SAMPLED.gram(None) is SAMPLED.gram()  # None requests every label
        return
    assert refusal(call, x) == f"{what}: expected a list, got {x!r:.60}"


@pytest.mark.parametrize("entry", LISTS)
def test_every_list_reads_a_tuple_and_an_iterator_as_its_list(entry):
    call, _, valid = LISTS[entry]
    assert outcome(call(valid)) == outcome(call(tuple(valid))) == outcome(call(iter(valid)))


def test_the_list_rule_takes_any_ordered_iterable_and_returns_a_tuple():
    assert listed(zip([1, 2], "ab"), "x") == ((1, "a"), (2, "b"))
    assert listed((c for c in [0.5, 0.25]), "x") == (0.5, 0.25)
    assert listed(np.array([0.5, 0.25]), "x") == (0.5, 0.25)
    for x in (np.array(0.5), np.float64(0.5), frozenset([1]), {}.keys(), b""):
        assert refusal(lambda v: listed(v, "x"), x) == f"x: expected a list, got {x!r:.60}"


# label entry point: (call on the labels, the field its refusals name)
LABELS = {
    "sampled labels": (lambda x: SampledGramKernel(x, np.eye(2)), "label"),
    "requested labels": (SAMPLED.gram, "requested label"),
    "pick nodes": (lambda x: PickProblem(SAMPLED, x, [0.1, 0.2]), "node"),
}


@pytest.mark.parametrize("entry, x", [(e, x) for e in LABELS for x in [True, 1, None, ["a"], 1.0]], ids=repr)
def test_every_label_that_is_not_a_str_is_refused(entry, x):
    # str() turned them into labels: 1 and "1" collided, True became "True"
    call, what = LABELS[entry]
    assert refusal(call, [x, "b"]) == f"{what} 0: expected a label (str), got {x!r:.60}"


@pytest.mark.parametrize("entry", LABELS)
def test_every_repeated_label_is_refused(entry):
    call, what = LABELS[entry]
    assert refusal(call, ["a", "a"]) == f"{what}s must be distinct"


def test_a_label_that_does_not_hash_is_unknown():
    # the dict lookup raised TypeError
    assert refusal(lambda z: SAMPLED.evaluate(z, "b"), ["a"]) == "unknown label ['a']"
    assert SAMPLED.evaluate("a", "b") == 0j


@pytest.mark.parametrize("command, label", [("partition", True), ("pick", 1)])
def test_the_cli_refuses_a_json_label_that_is_not_a_string(command, label, tmp_path, capsys):
    # partition answered with the sample ["True", "None"]; pick named the node '1.0' unknown
    kernel = {"type": "sampled", "labels": [label, None], "gram": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    if command == "pick":
        kernel = {"kernel": dict(kernel, labels=[1, 2]), "nodes": [1.0, 2], "targets": [[0, 0], [0, 0]]}
    (tmp_path / "in.json").write_text(json.dumps(kernel))
    assert main([command, str(tmp_path / "in.json")]) == 2
    error = json.loads(capsys.readouterr().out)["results"]["error"]
    assert error == {"type": "InputError", "message": f"label 0: expected a label (str), got {label!r}"}


# ---------------------------------------------------------------------------
# the shape and range rules that stay at each site


def test_pick_refuses_labels_with_an_analytic_kernel():
    with pytest.raises(InputError, match="^nodes must be labels for a sampled kernel and a PointSet"):
        PickProblem(SZEGO, ["a", "b"], [0.1, 0.2])


def test_pick_refuses_a_point_set_with_a_sampled_kernel():
    with pytest.raises(InputError, match="^nodes must be labels for a sampled kernel and a PointSet"):
        PickProblem(SampledGramKernel(["a", "b"], np.eye(2)), DISK, [0.1, 0.2])


def test_pick_refuses_nodes_of_another_dim():
    with pytest.raises(InputError, match="^nodes have dim 1, kernel has dim 2$"):
        PickProblem(DruryArvesonKernel(2), DISK, [0.1, 0.2])


def test_pick_refuses_repeated_labels_and_a_nested_target():
    with pytest.raises(InputError, match="^nodes must be distinct$"):
        PickProblem(SampledGramKernel(["a", "b"], np.eye(2)), ["a", "a"], [0.1, 0.2])
    with pytest.raises(InputError, match="^targets must be a flat list of scalars$"):
        PickProblem(SZEGO, DISK, [[0.1], [0.2]])
    with pytest.raises(InputError, match="^2 nodes but 3 targets$"):
        PickProblem(SZEGO, DISK, [0.1, 0.2, 0.3])


def test_pick_refuses_a_label_that_is_not_a_str():
    # a list label raised TypeError from set(labels); the index names the first bad one
    kernel = SampledGramKernel(["a", "b"], np.eye(2))
    with pytest.raises(InputError, match=r"^node 0: expected a label \(str\), got \['a'\]$"):
        PickProblem(kernel, [["a"], ["b"]], [0.1, 0.2])
    with pytest.raises(InputError, match="^node 1: expected a label \\(str\\), got 1$"):
        PickProblem(kernel, ["a", 1], [0.1, 0.2])


# a multi-index that is not a sequence: (coefficients, the multi-index the refusal names)
NOT_MULTI_INDICES = {
    "mapping key": ({1: 0.5}, "1"),
    "pair": ([(1, 0.5)], "1"),
}


@pytest.mark.parametrize("entry", NOT_MULTI_INDICES)
def test_a_multi_index_that_is_not_a_sequence_is_refused(entry):
    # iterating it raised TypeError: 'int' object is not iterable
    coeffs, alpha = NOT_MULTI_INDICES[entry]
    assert refusal(lambda c: Polynomial(1, c), coeffs) == f"bad multi-index {alpha} for dim 1"


WINDOW = TruncatedSpace(1, 3)
NOT_A_POLYNOMIAL = "expected a polynomial, got 5"

# a term, multi-index, dim or polynomial that is not one: (the call, its refusal); each raised
# TypeError, ValueError or AttributeError, or read a str as a term
NOT_POLYNOMIALS = {
    "int term": (lambda: Polynomial(1, [5]), "term: expected a list, got 5"),
    "str term": (lambda: Polynomial(1, ["ab"]), "term: expected a list, got 'ab'"),
    "triple term": (lambda: Polynomial(1, [((1,), 1, 2)]),
                    "term: expected an (exponents, coefficient) pair, got ((1,), 1, 2)"),
    "single term": (lambda: Polynomial(1, [((1,),)]), "term: expected an (exponents, coefficient) pair, got ((1,),)"),
    "int monomial": (lambda: Polynomial.monomial(1, 5), "bad multi-index 5 for dim 1"),
    "str monomial": (lambda: Polynomial.monomial(1, "1"), "bad multi-index 1 for dim 1"),
    "float dim": (lambda: Polynomial.constant(2.5), "dim: expected an integer >= 1, got 2.5"),
    "span": (lambda: span_of_polynomials(WINDOW, [5]), NOT_A_POLYNOMIAL),
    "inner product, first": (lambda: inner_product(5, Z1), NOT_A_POLYNOMIAL),
    "inner product, second": (lambda: inner_product(Z1, 5), NOT_A_POLYNOMIAL),
    "adjoint, multiplier": (lambda: mult_adjoint_apply(5, Z1, 3), NOT_A_POLYNOMIAL),
    "adjoint, input": (lambda: mult_adjoint_apply(Z1, 5, 3), NOT_A_POLYNOMIAL),
    "defect": (lambda: compression_defect(5, WINDOW), NOT_A_POLYNOMIAL),
    "powers span": (lambda: powers_span(WINDOW, 5, 1), NOT_A_POLYNOMIAL),
    "powers that fit": (lambda: powers_that_fit(WINDOW, 5), NOT_A_POLYNOMIAL),
    "truncated": (lambda: truncated(5, 2), NOT_A_POLYNOMIAL),
    "defect scale": (lambda: defect_scale(5), NOT_A_POLYNOMIAL),
    "coefficient list": (lambda: defect_scale(SimpleNamespace(dim=1, coeffs=[((1,), 1.0)])),
                         "expected a polynomial, got namespace(dim=1, coeffs=[((1,), 1.0)])"),
    "dimension": (lambda: powers_that_fit(WINDOW, Polynomial.monomial(2, (1, 0))), "dimension mismatch"),
}


@pytest.mark.parametrize("entry", NOT_POLYNOMIALS)
def test_a_term_or_polynomial_that_is_not_one_is_refused(entry):
    call, text = NOT_POLYNOMIALS[entry]
    assert refusal(lambda _: call(), None) == text


@pytest.mark.parametrize("z", [[[0.1], [0.2]], [[0.1, 0.2]], 0.1, [0.1, 0.2, 0.3]], ids=repr)
def test_in_closure_takes_one_point(z):
    # a stack of points reached the kernel vector's stack branch and gave a verdict on all
    # of them at once
    points = PointSet(2, [[0.5, 0.0]])
    with pytest.raises(InputError, match=r"^expected a point with 2 coordinates, got shape \("):
        in_closure(z, points, 3)


@pytest.mark.parametrize("call", [lambda z: tail_balance(z, 3), lambda z: pairing_power_norms(z, 2, 3)])
def test_a_point_set_is_not_a_point(call):
    # numpy reads a PointSet as its rows, so each coordinate is a row, not a number
    text = refusal(call, PointSet(1, [[0.1], [0.2]]))
    assert text.startswith("coordinate 0: expected a number, got array(")


def test_the_site_rules_on_shape_and_range():
    with pytest.raises(InputError, match="^power-series kernels live on the unit disk"):
        SZEGO.gram(PointSet(2, [[0.1, 0.0]]))
    with pytest.raises(InputError, match="^points have dim 1, kernel has dim 2$"):
        DruryArvesonKernel(2).gram(DISK)
    with pytest.raises(InputError, match="^labels must be distinct$"):
        SampledGramKernel(["a", "a"], np.eye(2))
    with pytest.raises(InputError, match="^3 labels for a 2x2 Gram matrix$"):
        SampledGramKernel(["a", "b", "c"], np.eye(2))
    with pytest.raises(InputError, match="^requested labels must be distinct$"):
        SampledGramKernel(["a", "b"], np.eye(2)).gram(["a", "a"])
    with pytest.raises(InputError, match="^base index 3 out of range for n=3$"):
        normalize(G, 3)
    with pytest.raises(InputError, match=r"^G\[base\]\[base\] must be positive, got 0.0$"):
        normalize(HermitianMatrix([[0.0, 0.0], [0.0, 1.0]]), 0)
    with pytest.raises(InputError, match="^mu index 3 out of range for n=3$"):
        j_from_formula(G, 0, 3, 0.3)
    with pytest.raises(InputError, match="^mu must differ from the base index$"):
        j_from_formula(G, 1, 1, 0.3)
    with pytest.raises(InputError, match="^unknown radii family object$"):
        blaschke_classify(object())
    with pytest.raises(InputError, match=r"^points must form an \(n, 2\) array, got shape \(2, 1\)$"):
        PointSet(2, [[0.1], [0.2]])
    with pytest.raises(InputError, match="^point set must be non-empty$"):
        PointSet(1, [])
    with pytest.raises(InputError, match=r"^expected a point with 2 coordinates, got shape \(3,\)$"):
        DruryArvesonKernel(2).evaluate([0.1, 0.2, 0.3], [0.0, 0.0])
    with pytest.raises(InputError, match="^point must have 2 coordinates$"):
        TruncatedSpace(2, 3).kernel_vector([0.1, 0.2, 0.3])
    with pytest.raises(InputError, match="^delta and j must have one entry per sample point$"):
        verify_factorization(G, [1.0, 1.0], [0.0, 0.3])
    with pytest.raises(DomainError, match="^j value 2 has norm 1.000000, outside the open unit ball$"):
        verify_factorization(G, [1.0, 1.0, 1.0], [0.0, 0.3, 1.0])
    with pytest.raises(InputError, match="^subspace basis must be a 2-d array of columns$"):
        Subspace([1.0, 0.0])
    with pytest.raises(InputError, match="^more basis columns than ambient dimensions$"):
        Subspace(np.eye(2, 3))
    with pytest.raises(InputError, match="^vector shape does not match the operator$"):
        verify_hyponormal_closure(np.eye(2), Subspace(np.eye(2)), [1.0, 0.0, 0.0])
    with pytest.raises(InputError, match="^subspace ambient dimension does not match the operator$"):
        verify_hyponormal_closure(np.eye(2), Subspace(np.eye(3)), [1.0, 0.0])
    with pytest.raises(InputError, match=r"^bad multi-index \(1,\) for dim 2$"):
        Polynomial(2, {(1,): 1.0})


def test_a_zero_dimensional_subspace_has_no_defect():
    space = TruncatedSpace(1, 3)
    assert compression_defect(Z1, FockSubspace(space, np.zeros((len(space), 0)))) == 0.0


# ---------------------------------------------------------------------------
# the rules live in linalg only


def is_isfinite(node):
    f = node.func
    return isinstance(f, ast.Attribute) and f.attr == "isfinite" and getattr(f.value, "id", None) == "np"


def refuses_bool(node):
    if getattr(node.func, "id", None) != "isinstance" or len(node.args) != 2:
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(getattr(k, "id", None) == "bool" or getattr(k, "attr", None) == "bool_" for k in kinds)


def test_the_finiteness_and_boolean_tests_live_in_the_rules_only():
    # np.isfinite reads arrays from outside in complex_array alone; cli._canonical spells
    # the non-finite floats it writes
    assert sites(is_isfinite) == {("linalg.py", "complex_array"), ("cli.py", "_canonical")}
    # a boolean is refused as a number or an integer by the rules alone
    assert sites(refuses_bool) == {("linalg.py", "real_number"), ("linalg.py", "whole_number")}


def is_str_type_test(node):
    return getattr(node.func, "id", None) == "isinstance" and getattr(node.args[-1], "id", None) == "str"


def is_distinctness(node):
    inner = node.args[0] if getattr(node.func, "id", None) == "len" and node.args else None
    return isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "set"


# what str() converts in src/rkhslab: exceptions, the keys of a report and the parts of a
# rational, never a label
NOT_LABELS = {"e", "k", "x['num']", "x['den']", "x.numerator", "x.denominator"}


def test_labels_are_checked_by_the_rule_only_and_never_converted():
    # cli._canonical writes a str it is given
    assert sites(is_str_type_test) == {("linalg.py", "distinct_labels"), ("cli.py", "_canonical")}
    assert sites(is_distinctness) == {("linalg.py", "distinct_labels")}
    converts = lambda node: getattr(node.func, "id", None) == "str" and ast.unparse(node.args[0]) not in NOT_LABELS  # noqa: E731
    assert sites(converts) == set()
