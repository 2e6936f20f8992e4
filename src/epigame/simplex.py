"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's anti-cycling rule for both the entering
and the leaving choice, so the solver terminates on every input and every
verdict (optimal / infeasible / unbounded) is exact. ``solve`` takes the one
form the engine poses, equality rows over non-negative variables (the weak
dominance program); there are no inequality rows, slack columns or free
variables to split. ``matrix_game_value`` runs a single phase on the
positive-shifted matrix game.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968, the pivoting of
Avis's lrs): the inputs are integers, and each entry is kept as an integer
over one shared positive denominator, the determinant of the current basis,
so a pivot is exact integer arithmetic with one exact division. The engine
poses its programs on payoffs that each game scales to integers once per
player (``Game.scaled_payoffs``); a rational program is scaled by its caller.
Scaling all rows by one positive factor and the objective by another keeps
every sign and ratio comparison, hence every Bland pivot, as on the rational
tableau. `Fraction`s are built only when results are read out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolated, ValidationError

ZERO = Fraction(0)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPSolution:
    status: Status
    value: Fraction | None
    assignment: tuple[Fraction, ...] | None


def _bland(tableau, rhs, basis, reduced, det):
    """Run primal simplex steps until optimal or unbounded; returns the status
    and the final denominator."""
    while True:
        entering = next((j for j, v in enumerate(reduced) if v > 0), -1)
        if entering < 0:
            return Status.OPTIMAL, det
        leaving, num, den = -1, 0, 1
        for r, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio, best = rhs[r] * den, num * a  # rhs[r] / a against num / den
                if leaving < 0 or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    leaving, num, den = r, rhs[r], a
        if leaving < 0:
            return Status.UNBOUNDED, det
        det = _pivot(tableau, rhs, basis, reduced, leaving, entering, det)


def _pivot(tableau, rhs, basis, reduced, leaving, entering, det):
    """Pivot in place and return the new denominator, the pivot entry. Each
    division by the old one is exact (Sylvester's identity). A negative pivot,
    met only when phase 1 clears an artificial, negates the whole tableau so
    the denominator stays positive."""
    pivot_row = tableau[leaving]
    pivot = pivot_row[entering]
    pivot_rhs = rhs[leaving]
    for r, row in enumerate(tableau):
        if r == leaving:
            continue
        factor = row[entering]
        if factor:
            tableau[r] = [(v * pivot - factor * p) // det for v, p in zip(row, pivot_row)]
            rhs[r] = (rhs[r] * pivot - factor * pivot_rhs) // det
        elif pivot != det:
            tableau[r] = [v * pivot // det for v in row]
            rhs[r] = rhs[r] * pivot // det
    factor = reduced[entering]
    reduced[:] = [(v * pivot - factor * p) // det for v, p in zip(reduced, pivot_row)]
    basis[leaving] = entering
    if pivot < 0:
        tableau[:] = [[-v for v in row] for row in tableau]
        rhs[:] = [-v for v in rhs]
        reduced[:] = [-v for v in reduced]
        pivot = -pivot
    return pivot


def _reduced_costs(tableau, basis, costs, det):
    reduced = [c * det for c in costs]
    for r, b in enumerate(basis):
        cb = costs[b]
        if cb:
            reduced = [v - cb * t for v, t in zip(reduced, tableau[r])]
    return reduced


def _require_integers(*vectors, what: str) -> None:
    # one non-integer entry (a Fraction, a float) makes the sum a non-integer
    if not isinstance(sum(map(sum, vectors)), int):
        raise ValidationError(f"{what} must be integers; scale rational inputs first")


def solve(rows, rhs, objective) -> LPSolution:
    """Maximise ``objective . x`` subject to ``rows . x = rhs`` and ``x >= 0``,
    exactly, for integer inputs; on OPTIMAL the assignment satisfies every
    row and attains the reported value.

    Phase 1 starts from one artificial per row (a row with a negative bound
    is negated first), moves leftover zero artificials out of the basis and
    drops the rows that turn out redundant; phase 2 runs on what remains.
    """
    nvar = len(objective)
    if len(rhs) != len(rows) or any(len(row) != nvar for row in rows):
        raise ValidationError("one bound per row and one coefficient per variable are required")
    _require_integers(*rows, rhs, objective, what="LP coefficients")
    m = len(rows)
    tableau: list[list[int]] = []
    bounds: list[int] = []
    for r, (row, bound) in enumerate(zip(rows, rhs)):
        sign = -1 if bound < 0 else 1
        tableau.append([sign * a for a in row] + [int(q == r) for q in range(m)])
        bounds.append(sign * bound)
    basis = list(range(nvar, nvar + m))

    # Phase 1: drive the artificials to zero.
    reduced = _reduced_costs(tableau, basis, [0] * nvar + [-1] * m, 1)
    status, det = _bland(tableau, bounds, basis, reduced, 1)
    if status is not Status.OPTIMAL:
        raise InvariantViolated("phase 1 reported unbounded; its objective is bounded by 0")
    if any(bounds[r] != 0 for r, b in enumerate(basis) if b >= nvar):
        return LPSolution(Status.INFEASIBLE, None, None)
    # Pivot leftover artificials out of the basis or drop redundant rows.
    keep: list[int] = []
    for r in range(m):
        if basis[r] < nvar:
            keep.append(r)
            continue
        target = next((j for j in range(nvar) if tableau[r][j] != 0), -1)
        if target < 0:
            continue  # redundant row
        det = _pivot(tableau, bounds, basis, [0] * (nvar + m), r, target, det)
        keep.append(r)
    tableau = [tableau[r][:nvar] for r in keep]
    bounds = [bounds[r] for r in keep]
    basis = [basis[r] for r in keep]

    # Phase 2 with the real objective.
    reduced = _reduced_costs(tableau, basis, objective, det)
    status, det = _bland(tableau, bounds, basis, reduced, det)
    if status is Status.UNBOUNDED:
        return LPSolution(Status.UNBOUNDED, None, None)

    assignment = [ZERO] * nvar
    for r, b in enumerate(basis):
        assignment[b] = Fraction(bounds[r], det)
    value = sum(c * x for c, x in zip(objective, assignment))
    return LPSolution(Status.OPTIMAL, value, tuple(assignment))


def matrix_game_value(
    matrix, scale: int = 1
) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact value of the zero-sum game ``max_row min_col m^T A`` together
    with optimal mixtures for both players, given ``matrix = scale * A`` in
    integers (``scale`` positive).

    Shifting the matrix positive, by ``scale - min``, makes the column
    player's scaled program start from an all-slack feasible basis, so this
    runs a single simplex phase; the row mixture is read off the slack
    reduced costs by duality and the column mixture off the basic solution.
    The shifted matrix is ``scale`` times ``A`` shifted by ``1 - min``: the
    pivots and mixtures do not see the scale, and the value divides it out.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    if ncols == 0 or any(len(row) != ncols for row in matrix):
        raise ValidationError("matrix game needs equal rows of at least one column")
    _require_integers(*matrix, what="matrix game entries")
    shift = scale - min(min(row) for row in matrix)

    rows = []
    for j, row in enumerate(matrix):
        row = [v + shift for v in row] + [0] * nrows
        row[ncols + j] = 1
        rows.append(row)
    rhs = [1] * nrows
    basis = list(range(ncols, ncols + nrows))
    reduced = [1] * ncols + [0] * nrows
    status, det = _bland(rows, rhs, basis, reduced, 1)
    if status is not Status.OPTIMAL:
        raise InvariantViolated("matrix game program unbounded on a positive matrix")

    total = 0
    scaled_columns = [0] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            total += rhs[r]
            scaled_columns[b] = rhs[r]
    if total <= 0:
        raise InvariantViolated("matrix game program ended with no positive column weight")
    row_mixture = tuple(Fraction(-reduced[ncols + j], total) for j in range(nrows))
    column_mixture = tuple(Fraction(v, total) for v in scaled_columns)
    value = Fraction(det - shift * total, scale * total)
    return value, row_mixture, column_mixture
