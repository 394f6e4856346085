"""The canonical writer against json.dumps itself, on random report trees."""

import io
import json
import math
from fractions import Fraction

import numpy as np
from conftest import seeded_by

from rkhslab import cli, fock

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
