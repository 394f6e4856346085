"""The CLI shell against the earlier design it replaced, written out here.

Reports were once rendered by copying the report tree through a converter
(`reference_jsonable` below) before `json` walked it; they are now rendered
by `json` alone with a default hook. Both must give the same bytes, in the
json and in the text format, on random report trees. The parser, once
written out block by block, is now built from a command table; every
subcommand must parse to the same defaults.
"""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import seeded_by

from rkhslab import cli, fock

# ---------------------------------------------------------------------------
# rendering


def reference_jsonable(x):
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
        return [reference_jsonable(x.re), reference_jsonable(x.im)]
    if isinstance(x, np.ndarray):
        return [reference_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): reference_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [reference_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def reference_text_lines(prefix, value, out):
    if isinstance(value, dict):
        for k in value:
            reference_text_lines(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out.append(f"{prefix} = {json.dumps(value)}")


def reference_render(report, fmt):
    tree = reference_jsonable(report)
    if fmt == "json":
        return json.dumps(tree, indent=2, sort_keys=True) + "\n"
    lines = []
    reference_text_lines("", tree, lines)
    return "\n".join(lines) + "\n"


def render(report, fmt):
    buf = io.StringIO()
    cli._emit(report, fmt, buf)
    return buf.getvalue()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16]
STRINGS = ["", "a.b", "é", "∑ x", "\U0001f600", 'quote"back\\slash', "line\nbreak\x00", "\ud800"]


def random_float(rng):
    if rng.uniform() < 0.3:
        return SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
    return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))


def random_fraction(rng):
    return Fraction(int(rng.integers(-(10**12), 10**12)), int(rng.integers(1, 10**12)))


def random_array(rng):
    shape = tuple(int(k) for k in rng.integers(0, 4, size=rng.integers(1, 3)))
    x = rng.standard_normal(shape)
    x.flat[: x.size // 3] = random_float(rng)
    if rng.uniform() < 0.5:
        return x
    return x + 1j * rng.standard_normal(shape)


def random_leaf(rng):
    kinds = [
        lambda: random_float(rng),
        lambda: int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 10**9)),
        lambda: bool(rng.integers(2)),
        lambda: None,
        lambda: STRINGS[rng.integers(len(STRINGS))],
        lambda: complex(random_float(rng), random_float(rng)),
        lambda: random_fraction(rng),
        lambda: fock.QQi(random_fraction(rng), int(rng.integers(-5, 5))),
        lambda: np.float64(random_float(rng)),
        lambda: np.float32(rng.standard_normal()),
        lambda: np.int64(rng.integers(-(2**62), 2**62)),
        lambda: np.complex128(complex(random_float(rng), random_float(rng))),
        lambda: random_array(rng),
    ]
    return kinds[rng.integers(len(kinds))]()


def random_tree(rng, depth=0):
    kind = rng.integers(4) if depth < 4 else 3
    if kind == 3:
        return random_leaf(rng)
    items = [random_tree(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    if kind == 0:
        keys = [STRINGS[rng.integers(len(STRINGS))] + str(i) for i in range(len(items))]
        return dict(zip(keys, items))
    return items if kind == 1 else tuple(items)


@pytest.mark.parametrize("fmt", ["json", "text"])
@seeded_by(150)
def test_hook_renders_as_the_tree_copy_did(fmt, seed):
    rng = np.random.default_rng(seed)
    report = {str(i): random_tree(rng) for i in range(rng.integers(1, 6))}
    assert render(report, fmt) == reference_render(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_fraction_and_arrays_render_as_before(fmt):
    report = {
        "results": {"adjoint_norm_sq": Fraction(1, 4), "b_points": np.eye(2) * (1 + 2j)},
        "exit_code": 0,
    }
    assert render(report, fmt) == reference_render(report, fmt)
    if fmt == "text":
        assert 'results.adjoint_norm_sq.num = "1"' in render(report, fmt)


def test_unknown_types_are_refused():
    with pytest.raises(TypeError):
        render({"x": object()}, "json")


# ---------------------------------------------------------------------------
# parsing

FILE = "f.json"

# command -> (argv, parsed values other than the handler), as the
# hand-written parser gave them, less the --tol of the commands whose
# verdicts read no tolerance
NO_TOL = {"ratio-check", "blaschke", "fock arveson", "fock balance"}
PARSED_DEFAULTS = {
    "cnp-check": (["cnp-check", FILE], {"kernel": FILE, "points": None, "base": 0}),
    "ratio-check": (["ratio-check", FILE], {"kernel": FILE}),
    "pick": (["pick", FILE], {"problem": FILE, "norm": None}),
    "embed": (["embed", FILE], {"kernel": FILE, "points": None, "base": 0}),
    "reconstruct": (["reconstruct", FILE], {"kernel": FILE, "points": None, "base": 0}),
    "partition": (["partition", FILE], {"kernel": FILE, "points": None}),
    "blaschke": (["blaschke", FILE], {"family": FILE}),
    "closure": (
        ["closure", "--points", FILE, "--z", "[]"],
        {"points": FILE, "z": "[]", "degree": 12},
    ),
    "fock arveson": (["fock", "arveson"], {}),
    "fock balance": (["fock", "balance", "--z", "[]"], {"z": "[]", "degree": 12}),
    "fock defect": (
        ["fock", "defect", "--phi", "{}"],
        {"phi": "{}", "span": "full", "count": None, "points": None, "degree": 12},
    ),
}


@pytest.mark.parametrize("name", PARSED_DEFAULTS)
def test_parsed_defaults_unchanged(name):
    argv, want = PARSED_DEFAULTS[name]
    args = vars(cli.build_parser().parse_args(argv))
    assert args.pop("handler") is cli.COMMANDS[name][0]
    group, _, leaf = name.rpartition(" ")
    command = {"command": group, "fock_command": leaf} if group else {"command": name}
    tol = {} if name in NO_TOL else {"tol": 1e-9}
    assert args == {**want, **command, **tol, "format": "json"}


def test_every_command_is_covered():
    assert set(PARSED_DEFAULTS) == set(cli.COMMANDS)
