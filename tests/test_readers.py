"""The one-pass readers against the per-entry readers they stand in for.

A coefficient list of plain floats is validated as one float64 array, a nested
list of [re, im] pairs of plain floats is read level by level as one array,
and a command's arguments are parsed by its own leaf parser. Each is compared
with a per-entry reference written out here (the earlier readers, with the rule
for a real number from outside as it is specified), on random
inputs into which one bad entry is injected: both must accept the same values,
bit for bit, or refuse with the same InputError message. The leaf parser must
give the parser tree's stdout, stderr and exit code, on valid argument vectors,
on usage errors and on --help. Random cases are drawn by hypothesis when it is
installed and from fixed seeds otherwise.
"""

import contextlib
import io
import json
import math
import struct
import sys
from fractions import Fraction
from numbers import Rational, Real

import numpy as np
import pytest
from conftest import seeded_by
from test_cli_shell import PARSED_DEFAULTS

from rkhslab import cli
from rkhslab.cnp import ratio_report
from rkhslab.errors import InputError
from rkhslab.kernels import PointSet, validated_coeffs
from rkhslab.linalg import DEFAULT_TOL, HermitianMatrix


def outcome(read, *args):
    """What read(*args) gives, or the text of the InputError it raises."""
    try:
        return read(*args)
    except InputError as e:
        return f"InputError: {e}"


def exact(values) -> list:
    """Each value with its type, a float by its bits (so -0.0 is not 0.0)."""
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in values]


# ---------------------------------------------------------------------------
# coefficient lists


def reference_rule(x, what):
    """The rule for a real number from outside (linalg.real_number) as it is
    specified, with its range test on an exact number against a float."""
    if isinstance(x, (bool, np.bool_)):
        raise InputError(f"{what}: expected a number, got a boolean")
    if not isinstance(x, Real):
        raise InputError(f"{what}: expected a number, got {x!r:.60}")
    if isinstance(x, Rational) and abs(Fraction(x)) > sys.float_info.max:
        raise InputError(f"{what}: number beyond the float range")
    return x


def reference_coeffs(coeffs) -> tuple:
    """The per-entry coefficient validator, entry by entry in index order."""
    coeffs = tuple(coeffs)
    if not coeffs:
        raise InputError("coefficient list must be non-empty")
    for i, c in enumerate(coeffs):
        reference_rule(c, f"coefficient {i}")
        if not c > 0:
            raise InputError(f"coefficient {i} must be positive, got {c}")
        if isinstance(c, np.floating):
            c = float(c)
        if not c <= sys.float_info.max:
            raise InputError(f"coefficient {i} must be finite, got {c}")
    if coeffs[0] != 1:
        raise InputError("a_0 must equal 1")
    return coeffs


def reference_rational(x, what):
    """The JSON rational reader: {"num": "...", "den": "..."} as a Fraction."""
    if isinstance(x, dict) and set(x) == {"num", "den"}:
        try:
            return Fraction(int(str(x["num"])), int(str(x["den"])))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"{what}: bad rational {x!r} ({e})") from None
    return x


def reference_series(obj):
    """A kernel file's coefficients: the rationals read in the CLI, every entry
    checked once, by the coefficient validator."""
    return reference_coeffs([reference_rational(c, "kernel.coeffs") for c in obj["coeffs"]])


# one bad or unusual entry each; the library takes Python objects, the CLI JSON values
LIBRARY_ENTRIES = {
    "bool": True,
    "int": 3,
    "str": "1.0",
    "None": None,
    "dict": {"num": "1", "den": "3"},
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "zero": 0.0,
    "-zero": -0.0,
    "negative": -0.5,
    "huge int": 10**400,
    "huge int, negative": -(10**400),
    "fraction": Fraction(1, 3),
    "huge fraction": Fraction(10**400, 3),
    "fraction at the float max": Fraction(int(sys.float_info.max)),
    "fraction past the float max": Fraction(int(sys.float_info.max) + 1),
    "float32": np.float32(0.25),
    "float32 inf": np.float32(math.inf),
    "int64": np.int64(7),
    "nested list": [1.0],
    "smallest subnormal": 5e-324,
    "float max": sys.float_info.max,
}
JSON_ENTRIES = {
    "bool": False,
    "int": 2,
    "str": "2",
    "null": None,
    "rational": {"num": "3", "den": "7"},
    "bad rational": {"num": "1.5", "den": "2"},
    "zero denominator": {"num": "1", "den": "0"},
    "huge rational": {"num": str(10**400), "den": "3"},
    "rational past the float max": {"num": str(int(sys.float_info.max) + 1), "den": "1"},
    "other object": {"a": 1},
    "nan": math.nan,
    "inf": math.inf,
    "zero": 0.0,
    "negative": -2.5,
    "huge int": 10**400,
    "nested list": [[0.5]],
}


def random_floats(rng, n) -> list:
    """Positive floats over the whole range, a_0 = 1.0."""
    return [1.0] + [float(v) for v in 10.0 ** rng.uniform(-300, 300, n - 1)]


@seeded_by(200)
def test_coefficient_lists_match_the_per_entry_validator(seed):
    rng = np.random.default_rng(seed)
    coeffs = random_floats(rng, int(rng.integers(1, 80)))
    names = list(LIBRARY_ENTRIES)
    for _ in range(int(rng.integers(0, 3))):  # none, one or two injected entries
        coeffs[int(rng.integers(len(coeffs)))] = LIBRARY_ENTRIES[names[rng.integers(len(names))]]
    if rng.integers(4) == 0:
        coeffs[0] = [2.0, 1 - 2.0**-53, np.float64(1.0), Fraction(1)][rng.integers(4)]
    got, want = outcome(validated_coeffs, coeffs), outcome(reference_coeffs, coeffs)
    assert (got if isinstance(got, str) else exact(got)) == (want if isinstance(want, str) else exact(want))


@pytest.mark.parametrize("name", LIBRARY_ENTRIES)
@pytest.mark.parametrize("where", [0, 1, -1])
def test_each_entry_kind_at_each_end(name, where):
    coeffs = [1.0, 0.5, 0.25, 0.125]
    coeffs[where] = LIBRARY_ENTRIES[name]
    got, want = outcome(validated_coeffs, coeffs), outcome(reference_coeffs, coeffs)
    assert (got if isinstance(got, str) else exact(got)) == (want if isinstance(want, str) else exact(want))


def test_empty_list_refused():
    assert outcome(validated_coeffs, []) == outcome(reference_coeffs, []) == (
        "InputError: coefficient list must be non-empty"
    )


def horner(coeffs, x):
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc *= x
        acc += float(c)
    return acc


@seeded_by(200)
def test_kernel_files_read_as_the_per_entry_reader_reads_them(seed):
    rng = np.random.default_rng(seed)
    coeffs = [1.0] + [float(v) for v in rng.uniform(0.0, 2.0, int(rng.integers(0, 60)))]
    names = list(JSON_ENTRIES)
    for _ in range(int(rng.integers(0, 3))):
        coeffs[int(rng.integers(len(coeffs)))] = JSON_ENTRIES[names[rng.integers(len(names))]]
    obj = json.loads(json.dumps({"type": "power_series", "coeffs": coeffs}))
    got = outcome(cli._parse_kernel_obj, obj, "kernel", DEFAULT_TOL)
    want = outcome(reference_series, obj)
    if isinstance(want, str):
        assert got == want
        return
    assert exact(got.coeffs) == exact(want)
    # Horner reads the floats prepared once, in the same order: the same bits
    z = 0.9 * np.exp(2j * np.pi * rng.uniform(size=5)) * rng.uniform(size=5)
    x = np.outer(z, z.conj())
    want_gram = HermitianMatrix(horner(want, x)).entries
    assert got.gram(PointSet(1, z[:, None])).entries.tobytes() == want_gram.tobytes()
    w = complex(z[0] * np.conj(z[1]))
    acc = 0j
    for c in reversed(want):
        acc = acc * w + float(c)
    assert got.evaluate(z[0], z[1]) == acc


def test_ratio_check_refuses_in_the_order_it_did(tmp_path, monkeypatch, capsys):
    # a short, invalid list: the entries are validated before the length is checked,
    # in the library as in the CLI, which reads the list and forms no kernel
    assert outcome(ratio_report, [1.0, -1.0]) == "InputError: coefficient 1 must be positive, got -1.0"
    assert outcome(ratio_report, [1.0, 0.5]) == "InputError: need at least 3 coefficients"

    def no_kernel(*args):
        raise AssertionError("ratio-check formed a kernel")

    monkeypatch.setattr(cli, "PowerSeriesKernel", no_kernel)
    for coeffs, message in [([1.0, -1.0], "coefficient 1 must be positive, got -1.0"),
                            ([1, {"num": "1", "den": "2"}], "need at least 3 coefficients")]:
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"type": "power_series", "coeffs": coeffs}))
        assert cli.main(["ratio-check", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["results"]["error"]["message"] == message
    path.write_text(json.dumps({"type": "power_series", "coeffs": [1, 2, {"num": "5", "den": "1"}, 8]}))
    assert cli.main(["ratio-check", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["first_violation"] == 1


# ---------------------------------------------------------------------------
# nested [re, im] arrays


def reference_array(x, shape, what, row=None):
    """The per-entry reader: each innermost list must hold shape[-1] [re, im] pairs,
    each pair read by _parse_complex."""
    d = shape[-1]
    row = row or f"a point in {d} variables, a list of {d} [re, im] pairs"
    rows = [cli._parse_list(r, what, d, row) for r in (x if len(shape) > 1 else [x])]
    a = np.array([[cli._parse_complex(c, what) for c in r] for r in rows], dtype=np.complex128)
    return a.reshape(shape)


def array_result(read, *args):
    got = outcome(read, *args)
    return got if isinstance(got, str) else (got.shape, got.dtype, got.tobytes())


PART_ENTRIES = [True, 1, "1.0", None, {"num": "1", "den": "3"}, {"a": 1}, math.nan, math.inf,
                -math.inf, 0.0, -0.0, -0.75, 10**400, [0.5]]


def inject(rng, x, depth):
    """Put one random defect into x, which has depth levels of lists above its parts:
    a part replaced, a pair or row made ragged, or a level made too deep or too
    shallow."""
    path = [int(rng.integers(len(x)))] if x else []
    node = x
    while path and len(path) < depth and isinstance(node[path[-1]], list) and node[path[-1]]:
        node = node[path[-1]]
        path.append(int(rng.integers(len(node))))
    if not path:
        return
    parent = x
    for i in path[:-1]:
        parent = parent[i]
    kind = rng.integers(5)
    if kind == 0 and len(path) == depth:  # a part
        parent[path[-1]] = PART_ENTRIES[rng.integers(len(PART_ENTRIES))]
    elif kind == 1:  # ragged: one entry fewer
        del parent[path[-1]]
    elif kind == 2:  # ragged: one entry more
        parent.append(parent[path[-1]])
    elif kind == 3:  # too deep
        parent[path[-1]] = [parent[path[-1]]]
    else:  # too shallow: a list replaced by a number
        parent[path[-1]] = 0.5


def nested(rng, shape, pool) -> list:
    """Nested lists of the given shape of [re, im] pairs drawn from pool."""
    if not shape:
        return [pool[rng.integers(len(pool))] for _ in range(2)]
    return [nested(rng, shape[1:], pool) for _ in range(shape[0])]


@seeded_by(300)
def test_pair_arrays_match_the_per_entry_reader(seed):
    # as the CLI reads them: targets (n,), points (n, d), a point --z (d,) and a
    # sampled Gram (n, n); the callers of the first, second and last pass len(x) as n
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(0, 6)), int(rng.integers(1, 4))
    kind = ["targets", "points", "z", "gram"][rng.integers(4)]
    shape = {"targets": (n,), "points": (n, d), "z": (d,), "gram": (n, n)}[kind]
    pool = [0.5, -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -3.25]
    x = nested(rng, shape, pool)
    for _ in range(int(rng.integers(0, 3))):
        inject(rng, x, len(shape) + 1)
    shape = {"targets": (len(x),), "points": (len(x), d), "z": (d,), "gram": (len(x),) * 2}[kind]
    row = f"a row of {len(x)} entries" if kind == "gram" else None
    got = array_result(cli._complex_array, x, shape, "what", row)
    assert got == array_result(reference_array, x, shape, "what", row), x


# ---------------------------------------------------------------------------
# one argparse level per command


def parsed(parse, argv) -> tuple:
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
        except SystemExit as e:
            code = e.code
    return args, code, out.getvalue(), err.getvalue()


ARGVS = [
    ["cnp-check", "k.json"],
    ["cnp-check", "k.json", "--points", "p.json", "--base", "2", "--tol", "1e-6", "--format", "text"],
    ["ratio-check", "k.json"],
    ["ratio-check", "k.json", "--tol", "1e-9"],  # ratio-check reads no tolerance
    ["ratio-check", "--format=text", "k.json"],
    ["pick", "p.json", "--norm", "0.5"],
    ["pick", "p.json", "--norm", "-1"],
    ["pick", "p.json", "--norm", "x"],
    ["pick"],
    ["pick", "p.json", "q.json"],
    ["pick", "p.json", "--bogus"],
    ["pick", "p.json", "--bogus", "1", "--also"],
    ["pick", "--", "p.json"],
    ["embed", "k.json", "--base", "x"],
    ["reconstruct", "k.json", "--tol", "0"],
    ["reconstruct", "k.json", "--tol", "inf"],
    ["partition", "k.json", "--format", "yaml"],
    ["blaschke", "f.json", "--tol", "1e-3"],
    ["closure", "--points", "p.json", "--z", "[]", "--deg", "4"],
    ["closure", "--z", "[]"],
    ["fock"],
    ["fock", "arveson"],
    ["fock", "arveson", "extra"],
    ["fock", "balance", "--z", "[]", "--degree", "3"],
    ["fock", "defect", "--phi", "{}"],
    ["fock", "defect", "--phi", "{}", "--span", "nope"],
    ["fock", "defect", "--phi", "{}", "--span", "powers", "--count", "-1"],
    ["fock", "defect", "--phi", "{}", "--count", "2", "--points", "p.json", "--span", "kernel"],
    ["fock", "nope"],
    ["fock", "--degree", "3"],
    ["nope"],
    [],
    ["--format", "json", "pick", "p.json"],
    ["-h"],
    ["--help"],
    ["fock", "-h"],
    ["fock", "defect", "--help"],
    *([*name.split(), "--help"] for name in cli.COMMANDS),
    *([*name.split(), "-h", "--bogus"] for name in cli.COMMANDS),
]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_leaf_parser_gives_what_the_tree_gives(argv):
    tree = parsed(cli.build_parser().parse_args, argv)
    assert parsed(cli._parse_args, argv) == tree


def test_a_leaf_is_parsed_without_the_tree(monkeypatch):
    tree, leaves = cli._parsers()

    class NoTree:
        error = tree.error  # leftover arguments are still refused in the tree's words

        def parse_args(self, argv):
            raise AssertionError(f"the tree parsed {argv}")

    monkeypatch.setattr(cli, "_parsers", lambda: (NoTree(), leaves))
    for name, (argv, _) in PARSED_DEFAULTS.items():
        assert parsed(cli._parse_args, argv) == parsed(tree.parse_args, argv)
        assert parsed(cli._parse_args, argv)[0]["handler"] is cli.COMMANDS[name][0]
