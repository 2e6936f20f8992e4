"""Reference solver for the differential tests of `epigame.simplex`.

The two-phase Bland-rule simplex on a dense tableau of `Fraction`s that the
engine used before its integer-preserving tableau, for the same equality-form
programs (``rows . x = rhs``, ``x >= 0``). It makes the same entering and
leaving choices on the same rational tableau, so the engine must agree with
it exactly: status, value, mixtures, assignment and pivot sequence.
"""

from __future__ import annotations

from fractions import Fraction

from epigame.errors import ValidationError
from epigame.simplex import LPSolution, Status

ZERO = Fraction(0)
ONE = Fraction(1)


def _bland(tableau, rhs, basis, reduced):
    """Run primal simplex steps until optimal or unbounded."""
    ncols = len(reduced)
    while True:
        entering = -1
        for j in range(ncols):
            if reduced[j] > 0:
                entering = j
                break
        if entering < 0:
            return Status.OPTIMAL
        leaving = -1
        best = None
        for r, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = rhs[r] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving < 0:
            return Status.UNBOUNDED
        _pivot(tableau, rhs, basis, reduced, leaving, entering)


def _pivot(tableau, rhs, basis, reduced, leaving, entering):
    pivot_row = tableau[leaving]
    pivot = pivot_row[entering]
    if pivot != 1:
        inv = 1 / pivot
        tableau[leaving] = pivot_row = [v * inv for v in pivot_row]
        rhs[leaving] *= inv
    for r, row in enumerate(tableau):
        if r == leaving:
            continue
        factor = row[entering]
        if factor != 0:
            tableau[r] = [v - factor * p for v, p in zip(row, pivot_row)]
            rhs[r] -= factor * rhs[leaving]
    factor = reduced[entering]
    if factor != 0:
        for j, p in enumerate(pivot_row):
            reduced[j] -= factor * p
    basis[leaving] = entering


def _reduced_costs(tableau, basis, costs):
    reduced = list(costs)
    for r, b in enumerate(basis):
        cb = costs[b]
        if cb != 0:
            row = tableau[r]
            for j in range(len(reduced)):
                if row[j] != 0:
                    reduced[j] -= cb * row[j]
    return reduced


def solve(rows, rhs, objective) -> LPSolution:
    """Maximise ``objective . x`` subject to ``rows . x = rhs`` and ``x >= 0``
    exactly; on OPTIMAL the assignment satisfies every row under rational
    re-evaluation and attains the reported value."""
    nvar = len(objective)
    m = len(rows)

    # One artificial per row; a row with a negative bound is negated first.
    tableau: list[list[Fraction]] = []
    bounds: list[Fraction] = []
    for r, (row, bound) in enumerate(zip(rows, rhs)):
        row = [Fraction(a) for a in row]
        bound = Fraction(bound)
        if bound < 0:
            row = [-a for a in row]
            bound = -bound
        tableau.append(row + [ONE if q == r else ZERO for q in range(m)])
        bounds.append(bound)
    basis = list(range(nvar, nvar + m))
    width = nvar + m

    # Phase 1: drive the artificials to zero.
    reduced = _reduced_costs(tableau, basis, [ZERO] * nvar + [Fraction(-1)] * m)
    status = _bland(tableau, bounds, basis, reduced)
    assert status is Status.OPTIMAL  # phase-1 objective is bounded by 0
    if any(bounds[r] != 0 for r in range(m) if basis[r] >= nvar):
        return LPSolution(Status.INFEASIBLE, None, None)
    # Pivot leftover artificials out of the basis or drop redundant rows.
    keep: list[int] = []
    for r in range(m):
        if basis[r] < nvar:
            keep.append(r)
            continue
        target = -1
        for j in range(nvar):
            if tableau[r][j] != 0:
                target = j
                break
        if target < 0:
            continue  # redundant row
        dummy = [ZERO] * width
        _pivot(tableau, bounds, basis, dummy, r, target)
        keep.append(r)
    tableau = [tableau[r][:nvar] for r in keep]
    bounds = [bounds[r] for r in keep]
    basis = [basis[r] for r in keep]

    # Phase 2 with the real objective.
    reduced = _reduced_costs(tableau, basis, [Fraction(c) for c in objective])
    status = _bland(tableau, bounds, basis, reduced)
    if status is Status.UNBOUNDED:
        return LPSolution(Status.UNBOUNDED, None, None)

    assignment = [ZERO] * nvar
    for r, b in enumerate(basis):
        assignment[b] = bounds[r]
    value = sum(c * x for c, x in zip(objective, assignment))
    return LPSolution(Status.OPTIMAL, value, tuple(assignment))


def matrix_game_value(matrix) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact value of the zero-sum game ``max_row min_col m^T A`` together
    with optimal mixtures for both players.

    Shifting the matrix positive makes the column player's scaled program
    start from an all-slack feasible basis, so this runs a single simplex
    phase; the row mixture is read off the slack reduced costs by duality
    and the column mixture off the basic solution.
    """
    nrows = len(matrix)
    ncols = len(matrix[0])
    if nrows == 0 or ncols == 0:
        raise ValidationError("matrix game needs at least one row and column")
    shift = ONE - min(min(row) for row in matrix)
    shifted = [[v + shift for v in row] for row in matrix]

    rows = []
    for j in range(nrows):
        row = list(shifted[j]) + [ZERO] * nrows
        row[ncols + j] = ONE
        rows.append(row)
    rhs = [ONE] * nrows
    basis = list(range(ncols, ncols + nrows))
    reduced = [ONE] * ncols + [ZERO] * nrows
    status = _bland(rows, rhs, basis, reduced)
    assert status is Status.OPTIMAL  # positive matrix keeps the program bounded

    total = ZERO
    scaled_columns = [ZERO] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            total += rhs[r]
            scaled_columns[b] = rhs[r]
    assert total > 0
    row_mixture = tuple(-reduced[ncols + j] / total for j in range(nrows))
    column_mixture = tuple(v / total for v in scaled_columns)
    value = 1 / total - shift
    return value, row_mixture, column_mixture
