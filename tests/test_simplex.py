import itertools
import random
from fractions import Fraction

import pytest

from epigame import simplex
from epigame.errors import InvariantViolated, ValidationError
from epigame.simplex import Status, matrix_game_value, solve
from lp_forms import EQ, GE, LE, check_feasible, solve_general

F = Fraction


class Program:
    """A general program: ``<=``/``=``/``>=`` rows, optionally free variables,
    solved through the equality form with explicit slacks and x = x+ - x-."""

    def __init__(self, objective, constraints, nonnegative=None):
        self.objective = [F(v) for v in objective]
        self.constraints = [
            ([F(a) for a in coeffs], rel, F(b)) for coeffs, rel, b in constraints
        ]
        self.nonnegative = [True] * len(objective) if nonnegative is None else list(nonnegative)

    def feasible(self, x):
        return check_feasible(self.constraints, self.nonnegative, x)


lp = Program


def run(problem: Program):
    return solve_general(problem.objective, problem.constraints, problem.nonnegative)


# --- independent oracle: enumerate candidate vertices exactly ---------------

def _solve_square(rows, rhs):
    n = len(rhs)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_force_optimum(problem: Program):
    """Max over all vertices (intersections of n active constraint planes).

    Only valid for feasible LPs whose optimum is attained at a vertex, which
    holds for the bounded random instances generated below.
    """
    n = len(problem.objective)
    planes = [(coeffs, bound) for coeffs, _, bound in problem.constraints]
    for k, flag in enumerate(problem.nonnegative):
        if flag:
            coeffs = tuple(F(1) if j == k else F(0) for j in range(n))
            planes.append((coeffs, F(0)))
    best = None
    for chosen in itertools.combinations(range(len(planes)), n):
        rows = [planes[p][0] for p in chosen]
        rhs = [planes[p][1] for p in chosen]
        point = _solve_square(rows, rhs)
        if point is None:
            continue
        if not problem.feasible(point):
            continue
        value = sum(c * x for c, x in zip(problem.objective, point))
        if best is None or value > best:
            best = value
    return best


# --- handcrafted cases ------------------------------------------------------

def test_box_maximum():
    problem = lp([1, 1], [([1, 0], LE, 2), ([0, 1], LE, 3)])
    sol = run(problem)
    assert sol.status is Status.OPTIMAL
    assert sol.value == 5
    assert sol.assignment == (F(2), F(3))


def test_equality_and_fractional_optimum():
    # max 3x + 2y  s.t.  x + y = 1, x - y <= 1/3
    problem = lp([3, 2], [([1, 1], EQ, 1), ([1, -1], LE, F(1, 3))])
    sol = run(problem)
    assert sol.status is Status.OPTIMAL
    assert sol.assignment == (F(2, 3), F(1, 3))
    assert sol.value == F(8, 3)


def test_free_variable():
    # max -x subject to x >= -5, x free: optimum 5 at x = -5
    problem = lp([-1], [([1], GE, -5)], nonnegative=[False])
    sol = run(problem)
    assert sol.status is Status.OPTIMAL
    assert sol.value == 5
    assert sol.assignment == (F(-5),)


def test_infeasible():
    problem = lp([1], [([1], GE, 1), ([1], LE, 0)])
    assert run(problem).status is Status.INFEASIBLE


def test_infeasible_equalities():
    problem = lp([0, 0], [([1, 1], EQ, 1), ([2, 2], EQ, 3)])
    assert run(problem).status is Status.INFEASIBLE


def test_unbounded():
    problem = lp([1], [([-1], LE, 0)])
    assert run(problem).status is Status.UNBOUNDED


def test_redundant_rows():
    problem = lp([1, 1], [([1, 1], EQ, 1), ([2, 2], EQ, 2), ([1, 0], LE, 1)])
    sol = run(problem)
    assert sol.status is Status.OPTIMAL and sol.value == 1


def test_degenerate_vertex_terminates():
    # classic degeneracy: many planes through the origin
    problem = lp(
        [F(3, 4), -150, F(1, 50), -6],
        [
            ([F(1, 4), -60, F(-1, 25), 9], LE, 0),
            ([F(1, 2), -90, F(-1, 50), 3], LE, 0),
            ([0, 0, 1, 0], LE, 1),
        ],
    )
    sol = run(problem)
    assert sol.status is Status.OPTIMAL
    assert sol.value == F(1, 20)  # attained at x3 = 1, x1 = x2 = x4 = 0... checked below
    assert problem.feasible(sol.assignment)
    assert sol.value == brute_force_optimum(problem)


def test_zero_objective_feasibility_mode():
    problem = lp([0, 0], [([1, 1], EQ, 1), ([1, -1], GE, 0)])
    sol = run(problem)
    assert sol.status is Status.OPTIMAL
    assert sol.value == 0
    assert problem.feasible(sol.assignment)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        solve([[F(1)]], [F(0)], [F(1), F(2)])
    with pytest.raises(ValidationError):
        solve([[F(1), F(2)]], [], [F(1), F(2)])


@pytest.mark.parametrize("matrix", [[], [[]], [[1, 2], [3]]])
def test_malformed_matrix_game_rejected(matrix):
    with pytest.raises(ValidationError):
        matrix_game_value(matrix)


@pytest.mark.parametrize("scale", [0, -1, 2.0])
def test_a_matrix_game_scale_must_be_a_positive_int(scale):
    # 0 and -1 were an unbounded program, reported as an engine fault;
    # a float ended in TypeError
    with pytest.raises(ValidationError, match="matrix game scale must be a positive int"):
        matrix_game_value([[1, 0], [0, 1]], scale)


# --- randomized cross-check against the vertex oracle -----------------------

def test_random_bounded_lps_match_vertex_enumeration():
    rng = random.Random(20240)
    for trial in range(120):
        nvar = rng.randint(1, 3)
        nrows = rng.randint(1, 3)
        objective = [F(rng.randint(-4, 4)) for _ in range(nvar)]
        constraints = [
            (
                [F(rng.randint(-3, 3)) for _ in range(nvar)],
                rng.choice([LE, GE, EQ]) if trial % 3 == 0 else LE,
                F(rng.randint(-2, 6)),
            )
            for _ in range(nrows)
        ]
        # box bounds keep the problem bounded, and the origin-side box keeps
        # a fair share of the instances feasible
        for k in range(nvar):
            coeffs = [F(1) if j == k else F(0) for j in range(nvar)]
            constraints.append((coeffs, LE, F(rng.randint(3, 8))))
        problem = lp(objective, constraints)
        sol = run(problem)
        assert sol.status in (Status.OPTIMAL, Status.INFEASIBLE)
        expected = brute_force_optimum(problem)
        if sol.status is Status.INFEASIBLE:
            assert expected is None
        else:
            assert problem.feasible(sol.assignment)
            assert sol.value == expected


def test_random_lps_with_free_variables():
    rng = random.Random(77)
    for _ in range(60):
        nvar = rng.randint(1, 3)
        flags = [rng.random() < 0.5 for _ in range(nvar)]
        objective = [F(rng.randint(-3, 3)) for _ in range(nvar)]
        constraints = []
        for k in range(nvar):
            coeffs = [F(1) if j == k else F(0) for j in range(nvar)]
            constraints.append((coeffs, LE, F(rng.randint(1, 5))))
            if not flags[k]:
                constraints.append((coeffs, GE, F(-rng.randint(1, 5))))
        for _ in range(rng.randint(0, 2)):
            constraints.append(
                ([F(rng.randint(-2, 2)) for _ in range(nvar)], LE, F(rng.randint(0, 5)))
            )
        problem = lp(objective, constraints, nonnegative=flags)
        sol = run(problem)
        assert sol.status in (Status.OPTIMAL, Status.INFEASIBLE)
        expected = brute_force_optimum(problem)
        if sol.status is Status.OPTIMAL:
            assert problem.feasible(sol.assignment)
            assert sol.value == expected
        else:
            assert expected is None


def test_a_cycling_simplex_fails_instead_of_hanging(monkeypatch):
    # a pivot that changes nothing revisits its basis forever; the cap on
    # pivots per simplex run, the number of bases, turns that into an error
    # under Bland's rule and under the largest-coefficient rule
    monkeypatch.setattr(simplex, "_pivot", lambda *args: args[-1])
    for decide in (False, True):
        with pytest.raises(InvariantViolated):
            matrix_game_value([[1, 0], [0, 1]], decide=decide)
