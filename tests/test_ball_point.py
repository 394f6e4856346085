"""The one rule for a point of the open unit ball from outside.

linalg.ball_point reads every point a caller gives: the rows of a PointSet, the two
points of a kernel's evaluate, the point of a kernel vector and the j values of a
factorization. It refuses the row of largest norm with DomainError, by the norm
np.linalg.norm(..., axis=-1) gives. The pairing point of tail_balance and
pairing_power_norms is read once, by fock._pairing_point, which decides z = 0 on the
coordinates as given and the ball on the ||z||^2 the tail bound divides by 1 - nz; the
kernel vector formed at that point is not checked again.
"""

import ast
from fractions import Fraction

import numpy as np
import pytest
from conftest import sites

from rkhslab.errors import DomainError, InputError
from rkhslab.fock import TruncatedSpace, pairing_power_norms, tail_balance
from rkhslab.kernels import DruryArvesonKernel, PointSet, PowerSeriesKernel
from rkhslab.linalg import ball_point


def refusal(kind, call, *args) -> str:
    """The text of call(*args)'s refusal, which must be exactly of type kind."""
    with pytest.raises(kind) as refused:
        call(*args)
    assert type(refused.value) is kind
    return str(refused.value)


def test_the_rule_returns_its_points_and_refuses_the_row_of_largest_norm():
    inside = np.array([[0.1, 0.2j], [0.6, -0.7]])
    assert ball_point(inside, "point") is inside
    row = inside[1]
    assert ball_point(row, "point") is row
    rows = np.array([[0.1, 0], [1.0, 0], [0, 1.2j], [0.5, 0.5]], dtype=complex)
    assert refusal(DomainError, ball_point, rows, "row") == "row 2 has norm 1.200000, outside the open unit ball"
    assert refusal(DomainError, ball_point, rows[1], "x") == "x 0 has norm 1.000000, outside the open unit ball"
    with np.errstate(all="raise"):  # a norm past the float range is inf, with no warning
        text = refusal(DomainError, ball_point, np.array([[1e200, 0]], dtype=complex), "point")
    assert text == "point 0 has norm inf, outside the open unit ball"


@pytest.mark.parametrize(
    "call, norm",
    [
        (lambda: DruryArvesonKernel(2).evaluate([2, 0], [0, 0.1]), 2),  # <z, w> = 0: only the rule refuses it
        (lambda: DruryArvesonKernel(2).evaluate([0, 0.1], [2, 0]), 2),
        (lambda: PowerSeriesKernel([1, 0.5, 0.25]).evaluate([3], [0.1]), 3),  # |z conj(w)| = 0.3
        (lambda: PowerSeriesKernel([1, 0.5, 0.25]).evaluate([0.1], [3]), 3),
    ],
)
def test_evaluate_refuses_a_point_outside_the_ball_whatever_the_pairing(call, norm):
    assert refusal(DomainError, call) == f"point 0 has norm {norm:.6f}, outside the open unit ball"


def test_every_reader_of_a_point_gives_the_point_set_text():
    far = [0.6, 0.9]  # norm 1.081665
    text = "point 0 has norm 1.081665, outside the open unit ball"
    assert refusal(DomainError, PointSet, 2, [far]) == text
    assert refusal(DomainError, DruryArvesonKernel(2).evaluate, [0.1, 0], far) == text
    assert refusal(DomainError, TruncatedSpace(2, 3).kernel_vector, far) == text
    stack = [[0.1, 0], [0.2, 0], far]
    assert refusal(DomainError, TruncatedSpace(2, 3).kernel_vector, stack) == text.replace("point 0", "point 2")


# the smallest nonzero points: ||z||^2 underflows to 0.0, and the float tail with it
TINY = [[1e-200, 0], [0, 1e-170j], [Fraction(1, 10**400), 0], [Fraction(1, 10**400)]]


@pytest.mark.parametrize("z", TINY, ids=["float", "imaginary", "exact pair", "exact"])
def test_a_tiny_nonzero_point_balances_with_norms_of_zero(z):
    balance = tail_balance(z, 3)
    assert balance.adjoint_norm_sq == balance.forward_norm_sq == balance.tail_bound == 0.0
    assert balance.within_bound
    assert pairing_power_norms(z, 2, 3) == (0.0, 0.0)


@pytest.mark.parametrize("z", [[0.0], [0, 0j], [-0.0, 0], [Fraction(0), 0], (0,)], ids=repr)
def test_the_origin_gets_one_type_and_one_text_before_the_degree(z):
    # the point is read before the degree in both: a bad degree is not reached
    text = "z must be nonzero; the tail vanishes at z = 0"
    assert refusal(InputError, tail_balance, z, 0) == text
    assert refusal(InputError, pairing_power_norms, z, 2, 1) == text


# ||z||^2 is 1, or exactly below 1 and rounded to 1, so 1 - nz would be 0
ON_THE_SPHERE = [[0.6, 0.8], [Fraction(3, 5), Fraction(4, 5)], [Fraction(3, 5), Fraction(4, 5) - Fraction(1, 10**30)]]


@pytest.mark.parametrize("z", ON_THE_SPHERE, ids=["float", "exact", "exact inside"])
def test_the_pairing_ball_is_decided_on_the_squared_norm_the_bound_divides_by(z):
    text = "||z||^2 = 1.000000 is not below 1"
    assert refusal(DomainError, tail_balance, z, 0) == text
    assert refusal(DomainError, pairing_power_norms, z, 2, 1) == text
    just_inside = [z[0], Fraction(4, 5) - Fraction(1, 10**10)]
    assert tail_balance(just_inside, 3).within_bound


# ||z||^2 rounds below 1, and np.linalg.norm(z) to 1.0
NEAR_SPHERE = [0.020850124364053393 + 0.3662963985937194j, 0.20370752203618045 + 0.8359433865214687j,
               0.02413280443057257 - 0.35286219468581165j]


def test_the_pairing_point_the_bound_accepts_is_not_checked_again():
    # the kernel vector of the balance refused it by the rule's norm
    assert not np.linalg.norm(NEAR_SPHERE) < 1.0
    assert tail_balance(NEAR_SPHERE, 3).within_bound
    norms = pairing_power_norms(NEAR_SPHERE, 2, 3)
    assert norms.adjoint_norm == pytest.approx(1.0) and norms.forward_norm == pytest.approx(1.0)


def test_near_the_sphere_the_pairing_point_is_decided_by_one_norm():
    # points one ulp inside the sphere in 3 variables: each is accepted or refused by nz alone
    rng = np.random.default_rng(3)
    reached = 0
    for _ in range(1000):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = (z * ((1 - 2**-53) / np.linalg.norm(z))).tolist()
        answers = []
        for call in (lambda: tail_balance(z, 3), lambda: pairing_power_norms(z, 2, 3)):
            try:
                answers.append(call())
            except DomainError as e:
                assert str(e).startswith("||z||^2 = ") and str(e).endswith(" is not below 1")
        reached += len(answers) == 2 and not np.linalg.norm(z) < 1.0
    assert reached  # the search reaches points that linalg.ball_point would refuse


# ---------------------------------------------------------------------------
# the rounding guards of evaluate, reached by points the rule accepts


def test_the_disk_guard_refuses_a_product_that_rounds_to_1():
    z, w = -0.7940384307172819 - 0.607867560035931j, -0.7940384306930234 - 0.6078675600676192j
    ball_point(np.array([[z], [w]]), "point")
    assert refusal(DomainError, PowerSeriesKernel([1, 0.5]).evaluate, [z], [w]) == "|z conj(w)| = 1.000000 is not below 1"


def test_the_ball_guard_refuses_a_pairing_that_rounds_to_1():
    # points one ulp inside the sphere that the rule accepts, by its own norm: K(z, z)
    rng = np.random.default_rng(20250811)
    found = 0
    for _ in range(500):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= (1 - 2**-53) / np.linalg.norm(z, axis=-1)
        if np.linalg.norm(z, axis=-1) < 1.0 and abs(np.dot(z, z.conj())) >= 1.0:
            assert ball_point(z, "point") is z
            assert refusal(DomainError, DruryArvesonKernel(2).evaluate, z, z) == "|<z, w>| = 1.000000 is not below 1"
            found += 1
    assert found


# ---------------------------------------------------------------------------
# the rule lives in linalg only


def names(node) -> set:
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def against_1(node, mentions) -> bool:
    """A comparison with the constant 1 whose other side mentions one of these names."""
    sides = [node.left, *node.comparators]
    ones = [s for s in sides if isinstance(s, ast.Constant) and type(s.value) in (int, float) and s.value == 1]
    return bool(ones) and any(mentions & names(s) for s in sides if s not in ones)


def test_a_norm_is_compared_with_1_in_the_rule_the_pairing_point_and_the_embedding_only():
    # agler_mccarthy_embed checks points the program computed, with its own error type
    norm = lambda node: against_1(node, {"norm", "norms", "nz"})  # noqa: E731
    assert sites(norm, ast.Compare) == {
        ("linalg.py", "ball_point"),
        ("fock.py", "_pairing_point"),
        ("cnp.py", "agler_mccarthy_embed"),
    }
    # a modulus against 1 is the pairing of two points, in the one guard of evaluate and gram
    modulus = lambda node: against_1(node, {"abs", "modulus"})  # noqa: E731
    assert sites(modulus, ast.Compare) == {("kernels.py", "_inside_disk")}
