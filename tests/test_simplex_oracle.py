"""Differential tests: the integer-preserving simplex against the Fraction one.

`fraction_simplex` is the rational-tableau Bland solver. The engine takes the
same programs scaled to integers (`lp_forms`); both must return exactly the
same results and make exactly the same pivots, each recorded as (leaving row,
entering variable, sign of the pivot entry).
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epigame.simplex as engine
import fraction_simplex as reference
from epigame.errors import ValidationError
from epigame.simplex import Status
from lp_forms import EQ, GE, LE, check_feasible, integer_matrix, solve_rational, standard_form

F = Fraction

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@contextmanager
def recorded_pivots(module):
    """Log each pivot as (leaving row, entering variable, sign of the pivot
    entry). The engine's tableau holds only the non-basic columns, so its
    entering column is mapped to its variable through the cobasis; the
    reference's columns are its variables."""
    log = []
    original = module._pivot

    def pivot(*args):
        if module is engine:
            tableau, _, _, cobasis, _, leaving, entering, _ = args
            variable = cobasis[entering]
        else:
            tableau, _, _, _, leaving, entering = args
            variable = entering
        log.append((leaving, variable, tableau[leaving][entering] > 0))
        return original(*args)

    module._pivot = pivot
    try:
        yield log
    finally:
        module._pivot = original


def engine_game_value(matrix, multiple=1):
    return engine.matrix_game_value(*integer_matrix(matrix, multiple))


# the engine's entry points on the reference's rational inputs
ON_RATIONALS = {"solve": solve_rational, "matrix_game_value": engine_game_value}


def run_both(name, *args, **engine_options):
    with recorded_pivots(engine) as engine_log:
        got = ON_RATIONALS[name](*args, **engine_options)
    with recorded_pivots(reference) as reference_log:
        want = getattr(reference, name)(*args)
    assert got == want
    assert engine_log == reference_log
    return got, engine_log


def general(objective, constraints, nonnegative=None):
    """A general program in the equality form, as ``solve`` arguments."""
    rows, rhs, costs, _ = standard_form(objective, constraints, nonnegative)
    return rows, rhs, costs


@st.composite
def matrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    return [draw(st.lists(rationals, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@st.composite
def programs(draw):
    """Equality-form programs: rows . x = rhs, x >= 0, with negative bounds
    and, at times, a redundant row."""
    nvar = draw(st.integers(1, 5))
    vector = st.lists(rationals, min_size=nvar, max_size=nvar)
    rows = draw(st.lists(vector, max_size=4))
    rhs = [draw(rationals) for _ in rows]
    if rows and draw(st.booleans()):
        # a redundant row: a non-zero multiple of the first row
        k = draw(st.sampled_from([-2, -1, 1, 2, 3]))
        rows.append([k * a for a in rows[0]])
        rhs.append(k * rhs[0])
    return rows, rhs, draw(vector)


@st.composite
def paired_bound_programs(draw):
    """a . x + s = b and -k(a . x) + t = -kb with b, k > 0 and a_0 > 0:
    phase 1 enters x_0, ties, and leaves the second row's artificial basic
    at zero over -k s - t, so clearing it pivots on a negative entry."""
    nvar = draw(st.integers(1, 4))
    positive = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
    a = [draw(positive)] + draw(st.lists(rationals, min_size=nvar - 1, max_size=nvar - 1))
    b, k = draw(positive), draw(positive)
    rows = [a + [F(1), F(0)], [-k * v for v in a] + [F(0), F(1)]]
    objective = draw(st.lists(rationals, min_size=nvar + 2, max_size=nvar + 2))
    return rows, [b, -k * b], objective


@given(matrices(), st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=200, deadline=None)
def test_matrix_game_value_matches_fraction_solver(matrix, multiple):
    # any common multiple of the denominators is a valid scale
    (value, rows, columns), _ = run_both("matrix_game_value", matrix, multiple=multiple)
    assert all(isinstance(v, Fraction) for v in (value, *rows, *columns))
    assert sum(rows) == 1 and sum(columns) == 1


def test_rational_inputs_rejected():
    with pytest.raises(ValidationError):
        engine.matrix_game_value([[F(1, 2), 1]])
    with pytest.raises(ValidationError):
        engine.solve([[1, F(1, 2)]], [1], [1, 1])


@given(st.one_of(programs(), paired_bound_programs()), st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=400, deadline=None)
def test_solve_matches_fraction_solver(program, multiple):
    # the weak-dominance rows come scaled by a multiple of their lcm
    rows, rhs, objective = program
    solution, _ = run_both("solve", rows, rhs, objective, multiple=multiple)
    if solution.status is Status.OPTIMAL:
        assert all(isinstance(v, Fraction) for v in (solution.value, *solution.assignment))
        equalities = [(row, EQ, b) for row, b in zip(rows, rhs)]
        assert check_feasible(equalities, [True] * len(objective), solution.assignment)


def test_integer_matrix_with_fractional_shift():
    run_both("matrix_game_value", [[F(1, 3), F(-5, 2)], [F(-7, 4), F(2, 9)], [0, 1]])


def test_redundant_equality_row_is_dropped():
    program = general([F(1, 2), 1], [([1, 1], EQ, 1), ([3, 3], EQ, 3), ([1, 0], GE, F(1, 3))])
    solution, _ = run_both("solve", *program)
    assert solution.status is Status.OPTIMAL
    assert solution.assignment == (F(1, 3), F(2, 3), F(0))


def test_negative_phase_one_clean_up_pivot():
    # 2x + s1 = 1 and -2x + s2 = -1 (x <= 1/2 and x >= 1/2 with explicit
    # slacks): phase 1 ends on a tie that keeps the artificial of the second
    # row basic at zero, and moving it out pivots on a negative entry; phase 2
    # then has to see the tableau with a positive denominator.
    rows = [[F(2), F(0), F(1), F(0)], [F(-2), F(0), F(0), F(1)]]
    solution, log = run_both("solve", rows, [F(1), F(-1)], [F(-1), F(-1), F(0), F(0)])
    assert any(not positive for _, _, positive in log)
    assert solution.status is Status.OPTIMAL
    assert solution.value == F(-1, 2) and solution.assignment == (F(1, 2), F(0), F(0), F(0))


def test_bland_enters_the_smallest_variable_not_the_leftmost_column():
    # After two pivots the first row's slack, variable 3, holds column 0 of
    # the game tableau with a positive reduced cost, left of variable 1 in
    # column 1: Bland's rule enters variable 1.
    _, log = run_both("matrix_game_value", [[2, 3, -3], [2, 1, 1]])
    assert [variable for _, variable, _ in log] == [0, 2, 1]
    # In phase 2 variable 1 holds column 0 and variable 0 column 1, both
    # with a positive reduced cost: Bland's rule enters variable 0.
    solution, log = run_both("solve", [[2, 2, 3, 0], [0, 0, 3, 3]], [3, 3], [3, 3, 0, 1])
    assert [variable for _, variable, _ in log] == [0, 2, 3, 0]
    assert solution.assignment == (F(3, 2), F(0), F(0), F(1))


def test_free_variables_and_negative_bounds():
    program = general(
        [F(-3, 2), F(2, 5), 1],
        [([1, 1, 0], GE, -4), ([1, -1, F(1, 2)], LE, F(-1, 3)), ([0, 1, 1], EQ, F(5, 7)),
         ([1, 0, 0], GE, -9)],
        nonnegative=[False, False, True],
    )
    solution, _ = run_both("solve", *program)
    assert solution.status is Status.OPTIMAL


def test_infeasible_and_unbounded_verdicts():
    infeasible, _ = run_both("solve", *general([1], [([F(1, 2)], GE, 1), ([1], LE, F(3, 2))]))
    unbounded, _ = run_both("solve", *general([F(1, 3)], [([-1], LE, 0)], nonnegative=[False]))
    assert infeasible.status is Status.INFEASIBLE
    assert unbounded.status is Status.UNBOUNDED
