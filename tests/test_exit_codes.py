"""No input mutated from a valid one makes the CLI exit 3.

Each subcommand gets small valid inputs. Their numbers are then replaced at
random: a float by one of +-0.0, 5e-324, 1e308, 1.0 and -1.0, an integer
(an exponent, a count, a degree, a dimension, a base index) by one past
2^63. Sizes are mutated too: sample sizes, point-set lengths, coefficient and
radii lists and window degrees that fit the exponent table but make the dense
steps after it work. Whatever comes out, main must return 0, 1 or 2 with a
report, and 1 exactly when the report carries the command's negative verdict.
Random cases
are drawn by hypothesis when it is installed and from fixed seeds otherwise;
inputs once seen to exit 3 are fixed cases.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from conftest import seeded_by

from rkhslab.cli import main

FLOATS = (0.0, -0.0, 5e-324, 1e308, 1.0, -1.0)
INTS = (2**63, 2**64 + 1, 10**20)

# exit 1 means exactly this value of this results field
NEGATIVE = {
    "cnp-check": ("status", "certified_not_cnp"),
    "ratio-check": ("hyponormal_ok", False),
    "pick": ("feasible", False),
    "embed": ("status", "certified_not_cnp"),
    "closure": ("member", False),
    "fock balance": ("within_bound", False),
    "fock defect": ("hyponormal_on_this_model", False),
}

SERIES = {"type": "power_series", "coeffs": [1.0, 0.5, 0.25, 0.125, 0.0625]}
SAMPLED = {
    "type": "sampled",
    "labels": ["a", "b", "c"],
    "gram": [
        [[2.0, 0.0], [0.5, 0.25], [0.1, 0.0]],
        [[0.5, -0.25], [1.0, 0.0], [0.2, 0.1]],
        [[0.1, 0.0], [0.2, -0.1], [1.5, 0.0]],
    ],
}
POINTS1 = {"dim": 1, "points": [[[0.1, 0.0]], [[0.3, 0.2]], [[-0.4, 0.1]]]}
POINTS2 = {"dim": 2, "points": [[[0.1, 0.0], [0.2, 0.0]], [[0.0, 0.3], [0.1, -0.1]]]}
PHI2 = {"dim": 2, "terms": [{"exp": [1, 1], "coeff": [0.9, 0.0]}, {"exp": [1, 0], "coeff": 0.5}]}
SHIFT = {"dim": 1, "terms": [{"exp": [1], "coeff": 1}]}
BIG = 10**20


def past_the_window(e):
    return {"dim": 2, "terms": [{"exp": [e, 0], "coeff": 0.5}, {"exp": [1, 1], "coeff": 0.9}]}


# Each case is an argv: a str is passed as it is, a number as its text, a list or
# dict as JSON, and ("file", x) as the path of a file holding x in JSON. Every
# number, in argv or inside a JSON value, is a site that a mutation may replace.
CASES = [
    ["cnp-check", ("file", SERIES), "--points", ("file", POINTS1), "--base", 1],
    ["cnp-check", ("file", SAMPLED), "--base", 0],
    ["ratio-check", ("file", {"type": "power_series", "coeffs": [1, 2, 3.5, 4.0]})],
    ["pick", ("file", {"kernel": SERIES, "nodes": [[[0.1, 0.0]], [[0.5, 0.0]]],
                       "targets": [[0.0, 0.0], [0.25, 0.0]]})],
    ["pick", ("file", {"kernel": SERIES, "nodes": [[[0.1, 0.0]], [[0.5, 0.0]]],
                       "targets": [[0.0, 0.0], [0.25, 0.0]]}), "--norm", 1.0],
    ["pick", ("file", {"kernel": SAMPLED, "nodes": ["a", "b"],
                       "targets": [[0.1, 0.0], [0.2, 0.0]]}), "--norm", 0.5],
    ["embed", ("file", {"type": "drury_arveson", "dim": 2}), "--points", ("file", POINTS2)],
    ["embed", ("file", SAMPLED), "--base", 2],
    ["reconstruct", ("file", SERIES), "--points", ("file", POINTS1)],
    ["reconstruct", ("file", SAMPLED)],
    ["partition", ("file", SAMPLED)],
    ["partition", ("file", SERIES), "--points", ("file", POINTS1)],
    ["blaschke", ("file", {"type": "geometric_tail", "c": 0.5, "q": 0.5, "prefix": [0.5]})],
    ["blaschke", ("file", {"type": "polynomial_tail", "c": 0.5, "p": 2.0})],
    ["blaschke", ("file", {"type": "finite_list", "radii": [0.5, 0.25]})],
    ["closure", "--points", ("file", POINTS2), "--z", [[0.1, 0.0], [0.0, 0.1]], "--degree", 4],
    ["fock", "arveson"],
    ["fock", "balance", "--z", [[0.5, 0.0], 0.25], "--degree", 6],
    ["fock", "balance", "--z", [0, [0.5, 0]], "--degree", 5],
    ["fock", "defect", "--phi", PHI2, "--degree", 4],
    ["fock", "defect", "--phi", PHI2, "--span", "powers", "--count", 2, "--degree", 6],
    ["fock", "defect", "--phi", PHI2, "--span", "kernel", "--points", ("file", POINTS2),
     "--degree", 3],
    ["fock", "defect", "--phi", SHIFT, "--span", "powers", "--degree", 6],
]

# inputs that once exited 3: an exponent past int64, and degrees past it
EXAMPLES = {
    "exponent-full": ["fock", "defect", "--phi", past_the_window(BIG), "--degree", 6],
    "exponent-powers": ["fock", "defect", "--phi", past_the_window(BIG), "--span", "powers",
                        "--degree", 6],
    "defect-degree": ["fock", "defect", "--phi", PHI2, "--degree", BIG],
    "balance-degree": ["fock", "balance", "--z", [[0.5, 0.0], [0.3, 0.0]], "--degree", BIG],
    "closure-degree": ["closure", "--points", ("file", POINTS2), "--z", [[0.1, 0.0], [0.1, 0.0]],
                       "--degree", BIG],
}


def is_file(x) -> bool:
    return isinstance(x, tuple) and x[0] == "file"


def sites(x, path=()):
    """The path of every number in x, a case or a JSON value inside one."""
    if is_file(x):
        yield from sites(x[1], (*path, 1))
    elif isinstance(x, (list, dict)):
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            yield from sites(v, (*path, k))
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        yield path


def replaced(x, path, value):
    """A copy of x with the number at path replaced by value."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if is_file(x):
        return ("file", replaced(x[1], rest, value))
    out = dict(x) if isinstance(x, dict) else list(x)
    out[head] = replaced(x[head], rest, value)
    return out


def argv_of(case, workdir) -> list:
    argv = []
    for i, x in enumerate(case):
        if is_file(x):
            path = os.path.join(workdir, f"{i}.json")
            with open(path, "w") as fh:
                json.dump(x[1], fh)
            argv.append(path)
        elif isinstance(x, str):
            argv.append(x)
        else:  # a number as Python spells it, a JSON value as JSON
            argv.append(repr(x) if isinstance(x, (int, float)) else json.dumps(x))
    return argv


def check(case):
    with tempfile.TemporaryDirectory() as workdir:
        argv = argv_of(case, workdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2) and report["exit_code"] == code, (argv, err.getvalue()[-400:])
    if code != 2:
        field, negative = NEGATIVE.get(report["command"], (None, object()))
        assert (code == 1) == (report["results"].get(field) == negative), (argv, report)


@seeded_by(300)
def test_no_mutated_input_exits_three(seed):
    rng = np.random.default_rng(seed)
    case = CASES[rng.integers(len(CASES))]
    places = list(sites(case))
    for _ in range(rng.integers(1, 4) if places else 0):
        path = places[rng.integers(len(places))]
        x = case
        for key in path:
            x = x[key]
        values = INTS if isinstance(x, int) else FLOATS
        case = replaced(case, path, values[rng.integers(len(values))])
    check(case)


@pytest.mark.parametrize("name", EXAMPLES)
def test_inputs_that_once_exited_three(name):
    check(EXAMPLES[name])


# ---------------------------------------------------------------------------
# size mutations


def ball_points(rng, n, dim) -> list:
    """n random points of the ball of radius 0.9 in C^dim, as [re, im] pairs."""
    x = rng.standard_normal((n, dim, 2))
    x *= 0.9 * rng.uniform(0.0, 1.0, (n, 1, 1)) / np.sqrt(np.sum(x * x, axis=(1, 2), keepdims=True))
    return x.tolist()


def points(rng, n, dim) -> dict:
    return {"dim": dim, "points": ball_points(rng, n, dim)}


def labels(n) -> list:
    return [f"p{i}" for i in range(n)]


def sampled(rng, n) -> dict:
    """A Szego Gram matrix of n random disk points as a sampled kernel."""
    z = np.array(ball_points(rng, n, 1)).reshape(n, 2) @ [1, 1j]
    g = 1.0 / (1.0 - np.outer(z, z.conj()))
    return {"type": "sampled", "labels": labels(n), "gram": np.stack((g.real, g.imag), -1).tolist()}


def coeffs(rng, n) -> list:
    return [1.0] + rng.uniform(0.1, 1.0, max(n - 1, 0)).tolist() if n else []


def targets(rng, n) -> list:
    """n random disk points as [re, im] pairs, or one fewer or one more at random."""
    return [p[0] for p in ball_points(rng, max(n + int(rng.integers(-1, 2)), 0), 1)]


DA2 = {"type": "drury_arveson", "dim": 2}
Z2 = [[0.1, 0.0], [0.0, 0.1]]
DEFECT = ["fock", "defect", "--phi", PHI2]

# each builds an argv from a sample size, list length or degree n, the largest n
# given after it; degrees reach 89, the largest full window in two variables (4095
# indices), and 150
SIZED = {
    "cnp-check points": (lambda rng, n: ["cnp-check", ("file", SERIES), "--points",
                                         ("file", points(rng, n, 1))], 60),
    "cnp-check sampled": (lambda rng, n: ["cnp-check", ("file", sampled(rng, n))], 60),
    "ratio-check coeffs": (lambda rng, n: ["ratio-check", ("file", {"type": "power_series",
                                                                    "coeffs": coeffs(rng, n)})], 300),
    "pick nodes": (lambda rng, n: ["pick", ("file", {"kernel": SERIES, "nodes": ball_points(rng, n, 1),
                                                     "targets": targets(rng, n)})], 40),
    "pick norm": (lambda rng, n: ["pick", ("file", {"kernel": sampled(rng, n), "nodes": labels(n),
                                                    "targets": targets(rng, n)}), "--norm", 1.0], 40),
    "embed ball": (lambda rng, n: ["embed", ("file", DA2), "--points", ("file", points(rng, n, 2))], 60),
    "reconstruct points": (lambda rng, n: ["reconstruct", ("file", SERIES), "--points",
                                           ("file", points(rng, n, 1))], 40),
    "partition sampled": (lambda rng, n: ["partition", ("file", sampled(rng, n))], 60),
    "blaschke radii": (lambda rng, n: ["blaschke", ("file", {"type": "finite_list",
                                                             "radii": rng.uniform(0, 1, n).tolist()})], 300),
    "closure points": (lambda rng, n: ["closure", "--points", ("file", points(rng, n, 2)), "--z", Z2,
                                       "--degree", 12], 40),
    "closure degree": (lambda rng, n: ["closure", "--points", ("file", POINTS2), "--z", Z2,
                                       "--degree", n], 150),
    "balance degree": (lambda rng, n: ["fock", "balance", "--z", [[0.5, 0.0], 0.25], "--degree", n], 150),
    "defect degree": (lambda rng, n: [*DEFECT, "--degree", n], 89),
    "powers degree": (lambda rng, n: [*DEFECT, "--span", "powers", "--degree", n], 89),
    "powers count": (lambda rng, n: [*DEFECT, "--span", "powers", "--count", n, "--degree", 89], 45),
    "kernel points": (lambda rng, n: [*DEFECT, "--span", "kernel", "--points", ("file", points(rng, n, 2)),
                                      "--degree", 20], 60),
    "kernel degree": (lambda rng, n: [*DEFECT, "--span", "kernel", "--points", ("file", POINTS2),
                                      "--degree", n], 89),
}


@pytest.mark.parametrize("name", SIZED)
@seeded_by(8)
def test_no_resized_input_exits_three(name, seed):
    # the size is none, one, two, the largest, or any between
    rng = np.random.default_rng(seed)
    build, largest = SIZED[name]
    n = int([0, 1, 2, largest, rng.integers(3, largest + 1)][rng.integers(5)])
    check(build(rng, n))
