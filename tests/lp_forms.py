"""General linear programs for the simplex tests, in the equality form that
``epigame.simplex.solve`` takes.

A general program maximises ``objective . x`` subject to rows ``a . x <= b``,
``a . x = b`` or ``a . x >= b``, with some variables free. ``standard_form``
gives each inequality its own slack column (+1 for <=, -1 for >=) and splits
each free variable as x = x+ - x-.
"""

from fractions import Fraction
from math import lcm

from epigame.simplex import LPSolution, Status, solve

LE, EQ, GE = "<=", "=", ">="
ZERO = Fraction(0)


def standard_form(objective, constraints, nonnegative=None):
    """``(rows, rhs, costs, recover)``: the equality-form program and a map
    from its assignments back to the original variables."""
    nvar = len(objective)
    if nonnegative is None:
        nonnegative = [True] * nvar
    columns = []  # (original variable, sign) of each split column
    for k in range(nvar):
        columns.append((k, 1))
        if not nonnegative[k]:
            columns.append((k, -1))
    slack_rows = [r for r, (_, relation, _) in enumerate(constraints) if relation != EQ]
    rows, rhs = [], []
    for r, (coeffs, relation, bound) in enumerate(constraints):
        row = [sign * Fraction(coeffs[k]) for k, sign in columns] + [ZERO] * len(slack_rows)
        if relation != EQ:
            row[len(columns) + slack_rows.index(r)] = Fraction(1 if relation == LE else -1)
        rows.append(row)
        rhs.append(Fraction(bound))
    costs = [sign * Fraction(objective[k]) for k, sign in columns] + [ZERO] * len(slack_rows)

    def recover(assignment):
        x = [ZERO] * nvar
        for (k, sign), v in zip(columns, assignment):
            x[k] += sign * v
        return tuple(x)

    return rows, rhs, costs, recover


def scaled(values, multiple=1):
    """``(scale, integers)``: rationals times the lcm of their denominators
    (times ``multiple``)."""
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values)) * multiple
    return scale, [int(v * scale) for v in values]


def integer_matrix(matrix, multiple=1):
    """A rational matrix as ``matrix_game_value`` takes it: ``(integers,
    scale)``."""
    scale, flat = scaled([v for row in matrix for v in row], multiple)
    width = len(matrix[0]) if matrix else 0
    return [flat[k:k + width] for k in range(0, len(flat), width)], scale


def solve_rational(rows, rhs, objective, multiple=1) -> LPSolution:
    """``solve`` on a rational equality-form program: the rows and bounds
    scaled by one lcm (times ``multiple``) and the objective by another, the
    value scaled back."""
    width = len(objective)
    _, flat = scaled([v for row in rows for v in row] + list(rhs), multiple)
    integer_rows = [flat[k * width:(k + 1) * width] for k in range(len(rows))]
    cost_scale, costs = scaled(objective)
    solution = solve(integer_rows, flat[len(rows) * width:], costs)
    if solution.status is not Status.OPTIMAL:
        return solution
    return LPSolution(solution.status, Fraction(solution.value) / cost_scale, solution.assignment)


def solve_general(objective, constraints, nonnegative=None) -> LPSolution:
    """Solve a general program through its equality form."""
    rows, rhs, costs, recover = standard_form(objective, constraints, nonnegative)
    solution = solve_rational(rows, rhs, costs)
    if solution.status is not Status.OPTIMAL:
        return solution
    return LPSolution(solution.status, solution.value, recover(solution.assignment))


def check_feasible(constraints, nonnegative, x) -> bool:
    """Exact feasibility re-check of a point of a general program."""
    if nonnegative is not None and any(flag and v < 0 for flag, v in zip(nonnegative, x)):
        return False
    for coeffs, relation, bound in constraints:
        lhs = sum(Fraction(a) * v for a, v in zip(coeffs, x))
        if relation == LE and lhs > bound or relation == GE and lhs < bound:
            return False
        if relation == EQ and lhs != bound:
            return False
    return True
