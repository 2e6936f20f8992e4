"""Differential tests: the integer-preserving simplex against the Fraction one.

`fraction_simplex` is the rational-tableau Bland solver. Both must return
exactly the same results and make exactly the same pivots, each recorded as
(leaving row, entering column, sign of the pivot entry).
"""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import epigame.simplex as engine
import fraction_simplex as reference
from epigame.simplex import Constraint, LinearProgram, Relation, Status

F = Fraction
LE, EQ, GE = Relation.LE, Relation.EQ, Relation.GE

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@contextmanager
def recorded_pivots(module):
    log = []
    original = module._pivot

    def pivot(tableau, rhs, basis, reduced, leaving, entering, *rest):
        log.append((leaving, entering, tableau[leaving][entering] > 0))
        return original(tableau, rhs, basis, reduced, leaving, entering, *rest)

    module._pivot = pivot
    try:
        yield log
    finally:
        module._pivot = original


def run_both(name, *args):
    with recorded_pivots(engine) as engine_log:
        got = getattr(engine, name)(*args)
    with recorded_pivots(reference) as reference_log:
        want = getattr(reference, name)(*args)
    assert got == want
    assert engine_log == reference_log
    return got, engine_log


def lp(objective, constraints, nonnegative=None):
    if nonnegative is None:
        nonnegative = [True] * len(objective)
    rows = tuple(
        Constraint(tuple(F(a) for a in coeffs), rel, F(b)) for coeffs, rel, b in constraints
    )
    return LinearProgram(tuple(F(v) for v in objective), rows, tuple(nonnegative))


@st.composite
def matrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    return [draw(st.lists(rationals, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@st.composite
def programs(draw):
    nvar = draw(st.integers(1, 4))
    vector = st.lists(rationals, min_size=nvar, max_size=nvar)
    constraints = draw(st.lists(
        st.builds(lambda c, r, b: (tuple(c), r, b), vector, st.sampled_from([LE, EQ, GE]), rationals),
        max_size=4,
    ))
    if constraints and draw(st.booleans()):
        # a redundant equality: a positive multiple of the first row
        coeffs, _, bound = constraints[0]
        k = draw(st.integers(1, 3))
        constraints.append((tuple(k * a for a in coeffs), EQ, k * bound))
    nonnegative = draw(st.lists(st.booleans(), min_size=nvar, max_size=nvar))
    return lp(draw(vector), constraints, nonnegative)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_matrix_game_value_matches_fraction_solver(matrix):
    (value, rows, columns), _ = run_both("matrix_game_value", matrix)
    assert all(isinstance(v, Fraction) for v in (value, *rows, *columns))
    assert sum(rows) == 1 and sum(columns) == 1


@given(programs())
@settings(max_examples=300, deadline=None)
def test_solve_matches_fraction_solver(problem):
    solution, _ = run_both("solve", problem)
    if solution.status is Status.OPTIMAL:
        assert all(isinstance(v, Fraction) for v in (solution.value, *solution.assignment))
        assert engine.check_feasible(problem, solution.assignment)


def test_integer_matrix_with_fractional_shift():
    run_both("matrix_game_value", [[F(1, 3), F(-5, 2)], [F(-7, 4), F(2, 9)], [0, 1]])


def test_redundant_equality_row_is_dropped():
    problem = lp([F(1, 2), 1], [([1, 1], EQ, 1), ([3, 3], EQ, 3), ([1, 0], GE, F(1, 3))])
    solution, _ = run_both("solve", problem)
    assert solution.status is Status.OPTIMAL
    assert solution.assignment == (F(1, 3), F(2, 3))


def test_negative_phase_one_clean_up_pivot():
    # x <= 1/2 and x >= 1/2: phase 1 ends on a tie that keeps the artificial
    # of the second row basic at zero, and moving it out pivots on a -1
    # entry; phase 2 then has to see the tableau with a positive denominator.
    problem = lp([-1, -1], [([2, 0], LE, 1), ([-2, 0], LE, -1)])
    solution, log = run_both("solve", problem)
    assert any(not positive for _, _, positive in log)
    assert solution.status is Status.OPTIMAL
    assert solution.value == F(-1, 2) and solution.assignment == (F(1, 2), F(0))


def test_free_variables_and_negative_bounds():
    problem = lp(
        [F(-3, 2), F(2, 5), 1],
        [([1, 1, 0], GE, -4), ([1, -1, F(1, 2)], LE, F(-1, 3)), ([0, 1, 1], EQ, F(5, 7)),
         ([1, 0, 0], GE, -9)],
        nonnegative=[False, False, True],
    )
    solution, _ = run_both("solve", problem)
    assert solution.status is Status.OPTIMAL


def test_infeasible_and_unbounded_verdicts():
    infeasible, _ = run_both("solve", lp([1], [([F(1, 2)], GE, 1), ([1], LE, F(3, 2))]))
    unbounded, _ = run_both("solve", lp([F(1, 3)], [([-1], LE, 0)], nonnegative=[False]))
    assert infeasible.status is Status.INFEASIBLE
    assert unbounded.status is Status.UNBOUNDED
