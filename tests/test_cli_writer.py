"""The report shell against its references: the canonical writer against
json.dumps itself, on random report trees and on arrays, and the one-array
readers of points and Gram matrices against the entry-by-entry ones."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import seeded_by

from rkhslab import cli, fock
from rkhslab.errors import InputError

KEYS = ["", "a", "a.b", "é", "∑ x", "\U0001f600", "\ud800", "\udfff", 'q"b\\s', "\x00\n\t"]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]


def reference(tree) -> str:
    return json.dumps(tree, indent=2, sort_keys=True, default=cli._encode) + "\n"


def written(tree) -> str:
    buf = io.StringIO()
    cli._emit(tree, "json", buf)
    return buf.getvalue()


def random_complex_array(rng):
    """0 to 3 axes, some of length 0; each part a normal draw, NaN, +-inf or -0.0."""
    x = np.empty(tuple(rng.integers(0, 3, size=rng.integers(0, 4))), dtype=np.complex128)
    pool = np.array(SPECIAL_FLOATS + list(rng.standard_normal(4)))
    x.real, x.imag = rng.choice(pool, size=(2, *x.shape))
    return x


def pairs(x):
    """A complex array as nested lists of [re, im], element by element."""
    return [pairs(v) for v in x] if np.ndim(x) else [float(np.real(x)), float(np.imag(x))]


def random_leaf(rng):
    kinds = [
        lambda: SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))],
        lambda: float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)),
        lambda: np.float64(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)),
        lambda: np.float64(SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]),
        lambda: np.bool_(rng.integers(2)),
        lambda: bool(rng.integers(2)),
        lambda: None,
        lambda: int(rng.integers(-(2**62), 2**62)) << int(rng.integers(0, 200)),
        lambda: np.int64(rng.integers(-(2**62), 2**62)),
        lambda: KEYS[rng.integers(len(KEYS))],
        lambda: complex(rng.standard_normal(), SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]),
        lambda: Fraction(int(rng.integers(-(10**12), 10**12)), int(rng.integers(1, 10**12))),
        lambda: fock.QQi(Fraction(1, int(rng.integers(1, 9))), int(rng.integers(-5, 5))),
        lambda: rng.standard_normal(tuple(rng.integers(0, 3, size=rng.integers(1, 3)))),
        lambda: random_complex_array(rng),
    ]
    return kinds[rng.integers(len(kinds))]()


def random_tree(rng, depth=0):
    """A container at every depth up to 5 with probability 3/4; a quarter of
    the containers are empty."""
    kind = rng.integers(4) if depth < 5 else 3
    if kind == 3:
        return random_leaf(rng)
    items = [random_tree(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    if kind == 0:
        return {KEYS[rng.integers(len(KEYS))] + str(i): v for i, v in enumerate(items)}
    return items if kind == 1 else tuple(items)


@seeded_by(300)
def test_writer_matches_json_dumps(seed):
    rng = np.random.default_rng(seed)
    tree = {KEYS[i % len(KEYS)] + str(i): random_tree(rng) for i in range(rng.integers(1, 6))}
    assert written(tree) == reference(tree)


def test_empty_containers_at_every_depth():
    tree = {"a": {}, "b": [], "c": (), "d": [{}, [], (), {"e": [[], {"f": {}}]}]}
    assert written(tree) == reference(tree)


@seeded_by(200)
def test_complex_array_encodes_as_pairs(seed):
    x = random_complex_array(np.random.default_rng(seed))
    # json.dumps tells NaN, -0.0 and the infinities apart, where == would not
    assert json.dumps(cli._encode(x)) == json.dumps(pairs(x))
    assert written({"x": x}) == reference({"x": pairs(x)})


def array_shape(rng):
    """(), (0,), (1,), (n, 1) or (n, d), n and d from 1 to 5."""
    n, d = (int(v) for v in rng.integers(1, 6, size=2))
    return [(), (0,), (1,), (n, 1), (n, d)][rng.integers(5)]


@seeded_by(300)
def test_arrays_match_json_dumps(seed):
    # float and complex arrays take the one-pass writer, int arrays the recursion
    rng = np.random.default_rng(seed)
    shape = array_shape(rng)
    pool = np.array(SPECIAL_FLOATS + [1e308] + list(rng.standard_normal(3)))
    kind = rng.integers(3)
    if kind == 0:
        x = np.asarray(rng.choice(pool, size=shape), dtype=np.float64)
    elif kind == 1:
        x = np.empty(shape, dtype=np.complex128)
        x.real, x.imag = rng.choice(pool, size=(2, *shape))
    else:
        x = np.asarray(rng.integers(-(2**62), 2**62, size=shape), dtype=np.int64)
    for tree in (x, {"a": [x, {"b": x}]}):
        assert cli._canonical(tree) + "\n" == reference(tree)


def read_points(pts, dim, what):
    return cli._complex_array(pts, (len(pts), dim), what)


def read_gram(gram, what):
    return cli._complex_array(gram, (len(gram),) * 2, what, f"a row of {len(gram)} entries")


def per_entry_points(pts, dim, what):
    shape = f"a point in {dim} variables, a list of {dim} [re, im] pairs"
    return np.array(
        [[cli._parse_complex(c, what) for c in cli._parse_list(p, what, dim, shape)] for p in pts],
        dtype=np.complex128,
    )


def per_entry_gram(gram, what):
    n = len(gram)
    rows = [cli._parse_list(r, what, n, f"a row of {n} entries") for r in gram]
    return np.array([[cli._parse_complex(v, what) for v in row] for row in rows], dtype=complex)


def outcome(read, *args):
    """The shape and bytes of the array read, or the text of the InputError."""
    try:
        a = read(*args)
    except InputError as e:
        return str(e)
    return a.shape, a.tobytes()


POINTS = """[[[-0.0, 0.5], [0.25, -0.0]], [[1.0, Infinity], [-Infinity, NaN]],
             [[0.0, 0.0], [1e308, 5e-324]]]"""
GRAM = '[[[2.0, -0.0], [0.5, 0.25]], [[0.5, -0.25], [1.0, Infinity]]]'


def test_float_pairs_keep_their_bits():
    pts, gram = json.loads(POINTS), json.loads(GRAM)
    assert outcome(cli._float_pairs, pts, (3, 2)) == outcome(per_entry_points, pts, 2, "points")
    assert outcome(cli._float_pairs, gram, (2, 2)) == outcome(per_entry_gram, gram, "kernel.gram")
    parts = read_points(pts, 2, "points").view(np.float64)
    assert np.signbit(parts[0]).tolist() == [True, False, False, True]
    assert parts[1, :2].tolist() == [1.0, math.inf]
    assert read_gram(gram, "kernel.gram").view(np.float64)[1, 2:].tolist() == [1.0, math.inf]


# each replaces the last part of the middle point or of the second row
FALLBACKS = {
    "boolean": lambda pair: [pair[0], True],
    "int": lambda pair: [pair[0], 3],
    "rational": lambda pair: [pair[0], {"num": "1", "den": "3"}],
    "string": lambda pair: [pair[0], "1.0"],
    "null": lambda pair: [pair[0], None],
    "three parts": lambda pair: pair + [0.0],
}


@pytest.mark.parametrize("kind", [*FALLBACKS, "ragged row"])
def test_other_inputs_read_entry_by_entry(kind):
    pts, gram = json.loads(POINTS), json.loads(GRAM)
    if kind == "ragged row":
        del pts[1][-1], gram[1][-1]
    else:
        pts[1][-1] = FALLBACKS[kind](pts[1][-1])
        gram[1][-1] = FALLBACKS[kind](gram[1][-1])
    assert cli._float_pairs(pts, (3, 2)) is None and cli._float_pairs(gram, (2, 2)) is None
    for got, want in [
        (outcome(read_points, pts, 2, "pts"), outcome(per_entry_points, pts, 2, "pts")),
        (outcome(read_gram, gram, "gram"), outcome(per_entry_gram, gram, "gram")),
    ]:
        assert got == want
        assert isinstance(got, str) == (kind not in ("int", "rational"))  # those two are read
