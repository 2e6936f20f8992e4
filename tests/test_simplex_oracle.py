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


@st.composite
def degenerate_matrices(draw):
    """A drawn matrix with a duplicated row or column, or one value throughout."""
    matrix = draw(matrices())
    kind = draw(st.sampled_from(["row", "column", "constant"]))
    if kind == "row":
        return matrix + [list(draw(st.sampled_from(matrix)))]
    if kind == "column":
        c = draw(st.integers(0, len(matrix[0]) - 1))
        return [row + [row[c]] for row in matrix]
    value = draw(rationals)
    return [[value] * len(matrix[0]) for _ in matrix]


@given(st.one_of(matrices(), degenerate_matrices()), st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=150, deadline=None)
def test_one_phase_game_value_matches_fraction_solver(matrix, multiple):
    # matrix_game_value's program, max 1 . y subject to B y <= 1 for the
    # positive B = scale * A + shift, from the origin: its optimum is one
    # over B's value, scale times A's value plus the shift
    integers, scale = integer_matrix(matrix, multiple)
    shift = scale - min(map(min, integers))
    rows = [[v + shift for v in row] for row in integers]
    optimum, _ = engine.optimum_from_origin(rows, [1] * len(rows), [1] * len(rows[0]))
    assert optimum == 1 / (scale * reference.matrix_game_value(matrix)[0] + shift)


@given(st.one_of(matrices(), degenerate_matrices()), st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=200, deadline=None)
def test_the_decision_matches_the_fraction_solver(matrix, multiple):
    # the largest-coefficient rule reaches Bland's value; a row mixture it
    # returns is the only optimal one, so it is Bland's too
    value, rows, columns = engine.matrix_game_value(*integer_matrix(matrix, multiple), decide=True)
    want, want_rows, _ = reference.matrix_game_value(matrix)
    assert value == want and columns is None
    if rows is not None:
        assert value > 0 and rows == want_rows


@contextmanager
def final_bounds():
    """Log the bounds column each ``_from_origin`` run ends with."""
    log = []
    original = engine._from_origin

    def from_origin(tableau, rhs, *args):
        result = original(tableau, rhs, *args)
        log.append(list(rhs))
        return result

    engine._from_origin = from_origin
    try:
        yield log
    finally:
        engine._from_origin = original


@given(st.one_of(matrices(), degenerate_matrices()), st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=200, deadline=None)
def test_the_decision_keeps_rows_iff_the_value_is_positive_at_a_non_degenerate_basis(
        matrix, multiple):
    # the Fraction form of the integer test det > shift * total, kept as the reference
    with final_bounds() as log:
        value, rows, _ = engine.matrix_game_value(*integer_matrix(matrix, multiple), decide=True)
    (rhs,) = log
    assert (rows is not None) == (value > 0 and all(rhs))


@given(st.one_of(matrices(), degenerate_matrices()), st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=150, deadline=None)
def test_every_zero_weight_is_the_shared_fraction_zero(matrix, multiple):
    integers, scale = integer_matrix(matrix, multiple)
    _, rows, columns = engine.matrix_game_value(integers, scale)
    _, decided, _ = engine.matrix_game_value(integers, scale, decide=True)
    shift = scale - min(map(min, integers))
    positive = [[v + shift for v in row] for row in integers]
    _, vertex = engine.optimum_from_origin(positive, [1] * len(positive), [1] * len(matrix[0]))
    for weights in (rows, columns, decided or (), vertex or ()):
        assert all(type(w) is Fraction for w in weights)
        assert all(w is engine.ZERO for w in weights if w == 0)


def test_the_decision_keeps_no_row_mixture_of_a_degenerate_basis():
    # the largest-coefficient rule ends at a basis with a basic variable at
    # zero; its row mixture (1/4, 1/2, 1/4) is optimal, but not Bland's
    matrix = [[-1, -1, 3], [2, 1, -2], [-1, 1, 3]]
    value, rows, _ = engine.matrix_game_value(matrix)
    assert (value, rows) == (F(1, 2), (0, F(1, 2), F(1, 2)))
    assert engine.matrix_game_value(matrix, decide=True) == (value, None, None)
    # a non-degenerate final basis keeps its row mixture
    half = F(1, 2)
    assert engine.matrix_game_value([[1, 0], [0, 1]], decide=True) == (half, (half, half), None)


@st.composite
def weak_programs(draw):
    """Payoffs of ``s`` and of one to four rivals at one to five opponent
    profiles, small integers so that ties are common, and whether ``s`` is in
    the support too."""
    m = draw(st.integers(1, 5))
    payoffs = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    return draw(payoffs), draw(st.lists(payoffs, min_size=1, max_size=4)), draw(st.booleans())


@given(weak_programs())
@settings(max_examples=300, deadline=None)
def test_one_phase_weak_verdict_matches_solve(program):
    mine, rivals, with_s = program
    m = len(mine)
    # the witness program: a mixture over the support with slacks
    # sum_j w_j u(j, t) - slack_t = u(s, t), maximising the total slack
    support = rivals + [mine] * with_s
    rows = [[row[t] for row in support] + [-(q == t) for q in range(m)] for t in range(m)]
    rows.append([1] * len(support) + [0] * m)
    solution = engine.solve(rows, mine + [1], [0] * len(support) + [1] * m)
    # the decision: weights on the rivals, the rest on s, from the origin
    edges = [[q - p for q, p in zip(row, mine)] for row in rivals]
    decision = [[-d for d in column] for column in zip(*edges)] + [[1] * len(rivals)]
    optimum, vertex = engine.optimum_from_origin(decision, [0] * m + [1], [sum(e) for e in edges])
    dominated = solution.status is Status.OPTIMAL and solution.value > 0
    assert (optimum > 0) == dominated
    if with_s:  # the same program, with s's weight substituted out
        assert optimum == solution.value
        if vertex is not None:  # the only optimum, so the one solve prints
            k = len(rivals)
            assert vertex == solution.assignment[:k]
            assert 1 - sum(vertex) == solution.assignment[k]


def test_one_phase_program_returns_its_vertex_only_when_it_is_the_only_optimum():
    # max x0 + 3 x1 subject to x0 + x1 <= 1 has the one optimum (0, 1)
    assert engine.optimum_from_origin([[1, 1]], [1], [1, 3]) == (3, (0, 1))
    # with x0 + x1 as the objective every point of the edge is optimal, and
    # the reduced cost of x0 (or x1) at the final basis is zero
    assert engine.optimum_from_origin([[1, 1]], [1], [1, 1]) == (1, None)


def test_one_phase_program_is_none_when_unbounded():
    assert engine.optimum_from_origin([[-1]], [0], [1]) is None


def test_one_phase_program_stops_at_the_optimum_of_a_cycling_example():
    # Beale's (1955) example, on whose rational tableau the largest-coefficient
    # rule cycles:
    # max 3/4 x0 - 20 x1 + 1/2 x2 - 6 x3 subject to
    # 1/4 x0 - 8 x1 - x2 + 9 x3 <= 0, 1/2 x0 - 12 x1 - 1/2 x2 + 3 x3 <= 0 and
    # x2 <= 1, each row and the objective scaled to integers; the optimum is 5/4
    rows = [[1, -32, -4, 36], [1, -24, -1, 6], [0, 0, 1, 0]]
    assert engine.optimum_from_origin(rows, [0, 0, 1], [3, -80, 2, -24])[0] == 5


def test_the_largest_coefficient_rule_stops_at_the_optimum_of_a_cycling_example():
    # Beale's example again, by the rule that cycles on it: a pivot of ratio
    # zero follows Bland's rule, so the run stops at 5
    rows = [[1, -32, -4, 36], [1, -24, -1, 6], [0, 0, 1, 0]]
    rhs = [0, 0, 1]
    objective = [3, -80, 2, -24]
    status, det, basis, _, _ = engine._from_origin(rows, rhs, objective, largest=True)
    assert status is Status.OPTIMAL
    assert sum(objective[b] * rhs[r] for r, b in enumerate(basis) if b < 4) == 5 * det


def test_one_phase_program_rejects_an_infeasible_origin():
    with pytest.raises(ValidationError):
        engine.optimum_from_origin([[1]], [-1], [1])


def test_one_phase_program_over_no_variables_is_zero():
    assert engine.optimum_from_origin([], [], []) == (0, ())
    assert engine.optimum_from_origin([[]], [1], []) == (0, ())


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
