"""Exact linear programming over the rationals.

Primal simplex with exact verdicts (optimal / infeasible / unbounded):
``solve`` (two phases, equality rows over non-negative variables),
``matrix_game_value`` (the one strict game that decides and certifies both
msd and brc) and ``optimum_from_origin`` (one phase from the origin, the mwd
program of ``optimality._weak_program``), each by Bland's rule but msd and
brc's decision, ``matrix_game_value(..., decide=True)``, which enters the
largest reduced cost where that raises the objective: fewer pivots to the same
value, and a row mixture only where it is unique, hence Bland's.
``optimum_from_origin`` returns its optimal vertex only where that vertex is
the program's only optimal point, which every pivot rule reaches: the mwd
witness is read there, and ``solve`` runs only as the fallback for a program
with several optimal points or one posed without ``s`` among the
alternatives. Neither rule revisits a basis, so a run that pivots more often
than there are bases is a bug: it raises ``InvariantViolated`` instead of
cycling. The single-phase programs start from the all-slack basis of
``rows . x <= rhs``, ``rhs >= 0``.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968, the pivoting of
Avis's lrs): the inputs are integers, and each entry is kept as an integer
over one shared positive denominator, the determinant of the current basis,
so a pivot is exact integer arithmetic with one exact division. The engine
poses its programs on payoffs that each game scales to integers once per
player (``Game.scaled_payoffs``); a rational program is scaled by its caller.
Scaling all rows by one positive factor and the objective by another keeps
every sign and ratio comparison, hence every Bland pivot, as on the rational
tableau. `Fraction`s are built only when results are read out.

As in lrs's dictionary, the tableau holds only the non-basic columns: column
``c`` of row ``r`` is the entry of variable ``cobasis[c]``, and ``basis[r]``
names the row's basic variable. Bland's rule chooses by variable index, not
by column position, so the pivots are those of the full tableau.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb

from .errors import InvariantViolated, ValidationError
from .games import Value

ZERO = Fraction(0)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LPSolution(Value):
    _fields = ("status", "value", "assignment")

    def __init__(self, status: Status, value: Fraction | None,
                 assignment: tuple[Fraction, ...] | None):
        self._status, self._value, self._assignment = status, value, assignment


def _primal(tableau, rhs, basis, cobasis, reduced, det, largest=False):
    """Run primal simplex steps until optimal or unbounded; returns the status
    and the final denominator. Bland's rule enters the smallest variable (not
    the leftmost column) with a positive reduced cost. With ``largest`` a step
    enters the largest reduced cost, the leftmost column on a tie, unless its
    ratio is zero, so that it would leave the objective unchanged: such a step
    follows Bland's rule. A repeated basis needs a run of steps that leave the
    objective unchanged, all Bland's, and Bland's rule never cycles."""
    for _ in range(comb(len(basis) + len(cobasis), len(basis)) + 1):
        best = max(reduced, default=0) if largest else 0
        entering = reduced.index(best) if best > 0 else -1
        leaving = _leaving(tableau, rhs, basis, entering) if entering >= 0 else -1
        if entering < 0 or leaving >= 0 and rhs[leaving] == 0:
            entering = min((c for c, v in enumerate(reduced) if v > 0),
                           key=cobasis.__getitem__, default=-1)
            if entering < 0:
                return Status.OPTIMAL, det
            leaving = _leaving(tableau, rhs, basis, entering)
        if leaving < 0:
            return Status.UNBOUNDED, det
        det = _pivot(tableau, rhs, basis, cobasis, reduced, leaving, entering, det)
    raise InvariantViolated("simplex pivoted more often than there are bases")


def _leaving(tableau, rhs, basis, entering):
    """The row of the smallest ratio over the entering column's positive
    entries, ties to the smallest basic variable; -1 when there is none."""
    leaving, num, den = -1, 0, 1
    for r, row in enumerate(tableau):
        a = row[entering]
        if a > 0:
            ratio, best = rhs[r] * den, num * a  # rhs[r] / a against num / den
            if leaving < 0 or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                leaving, num, den = r, rhs[r], a
    return leaving


def _pivot(tableau, rhs, basis, cobasis, reduced, leaving, entering, det):
    """Pivot in place and return the new denominator, the pivot entry. Each
    division by the old one is exact (Sylvester's identity). The entering
    column becomes the leaving variable's, with the entries of its identity
    column after the pivot: ``det`` in the pivot row, ``-factor`` elsewhere.
    A negative pivot, met only when phase 1 clears an artificial, negates the
    whole tableau so the denominator stays positive."""
    pivot_row = tableau[leaving]
    pivot = pivot_row[entering]
    pivot_rhs = rhs[leaving]
    for r, row in enumerate(tableau):
        if r == leaving:
            continue
        factor = row[entering]
        if factor:
            tableau[r] = new = [(v * pivot - factor * p) // det for v, p in zip(row, pivot_row)]
            new[entering] = -factor
            rhs[r] = (rhs[r] * pivot - factor * pivot_rhs) // det
        elif pivot != det:
            tableau[r] = [v * pivot // det for v in row]
            rhs[r] = rhs[r] * pivot // det
    factor = reduced[entering]
    reduced[:] = [(v * pivot - factor * p) // det for v, p in zip(reduced, pivot_row)]
    reduced[entering] = -factor
    pivot_row[entering] = det
    basis[leaving], cobasis[entering] = cobasis[entering], basis[leaving]
    if pivot < 0:
        tableau[:] = [[-v for v in row] for row in tableau]
        rhs[:] = [-v for v in rhs]
        reduced[:] = [-v for v in reduced]
        pivot = -pivot
    return pivot


def _reduced_costs(tableau, basis, cobasis, costs, det):
    reduced = [costs[j] * det for j in cobasis]
    for r, b in enumerate(basis):
        cb = costs[b]
        if cb:
            reduced = [v - cb * t for v, t in zip(reduced, tableau[r])]
    return reduced


def _require_integers(*vectors, what: str) -> None:
    # one non-integer entry (a Fraction, a float) makes the sum a non-integer
    if not isinstance(sum(map(sum, vectors)), int):
        raise ValidationError(f"{what} must be integers; scale rational inputs first")


def _require_program(rows, rhs, objective) -> None:
    if len(rhs) != len(rows) or any(len(row) != len(objective) for row in rows):
        raise ValidationError("one bound per row and one coefficient per variable are required")
    _require_integers(*rows, rhs, objective, what="LP coefficients")


def _from_origin(tableau, rhs, objective, largest=False):
    """One phase of ``max objective . x`` subject to ``tableau . x <= rhs``
    and ``x >= 0``, with ``rhs >= 0``, from the all-slack basis at the
    origin (slack ``r`` is variable ``len(objective) + r``), by ``_primal``'s
    rule. Pivots ``tableau`` and ``rhs`` in place; returns the status, the
    denominator, the basis, the cobasis and the reduced costs."""
    nvar = len(objective)
    basis = list(range(nvar, nvar + len(tableau)))
    cobasis = list(range(nvar))
    reduced = list(objective)
    status, det = _primal(tableau, rhs, basis, cobasis, reduced, 1, largest)
    return status, det, basis, cobasis, reduced


def solve(rows, rhs, objective) -> LPSolution:
    """Maximise ``objective . x`` subject to ``rows . x = rhs`` and ``x >= 0``,
    exactly, for integer inputs; on OPTIMAL the assignment satisfies every
    row and attains the reported value.

    Phase 1 starts from one artificial per row (a row with a negative bound
    is negated first), moves leftover zero artificials out of the basis and
    drops the rows that turn out redundant; phase 2 runs on what remains.
    """
    _require_program(rows, rhs, objective)
    nvar = len(objective)
    tableau = [[-a for a in row] if bound < 0 else list(row) for row, bound in zip(rows, rhs)]
    bounds = [abs(bound) for bound in rhs]

    # Phase 1: drive the artificials, _from_origin's slacks, to zero; the
    # reduced costs of max -sum(artificials) are the rows' column sums.
    column_sums = [sum(row[j] for row in tableau) for j in range(nvar)]
    status, det, basis, cobasis, _ = _from_origin(tableau, bounds, column_sums)
    if status is not Status.OPTIMAL:
        raise InvariantViolated("phase 1 reported unbounded; its objective is bounded by 0")
    if any(bounds[r] != 0 for r, b in enumerate(basis) if b >= nvar):
        return LPSolution(Status.INFEASIBLE, None, None)
    # Pivot leftover artificials out of the basis or drop redundant rows.
    keep: list[int] = []
    for r, row in enumerate(tableau):
        if basis[r] < nvar:
            keep.append(r)
            continue
        target = min((c for c, j in enumerate(cobasis) if j < nvar and row[c] != 0),
                     key=cobasis.__getitem__, default=-1)
        if target < 0:
            continue  # redundant row
        det = _pivot(tableau, bounds, basis, cobasis, [0] * nvar, r, target, det)
        keep.append(r)
    columns = [c for c, j in enumerate(cobasis) if j < nvar]
    tableau = [[tableau[r][c] for c in columns] for r in keep]
    bounds = [bounds[r] for r in keep]
    basis = [basis[r] for r in keep]
    cobasis = [cobasis[c] for c in columns]

    # Phase 2 with the real objective.
    reduced = _reduced_costs(tableau, basis, cobasis, objective, det)
    status, det = _primal(tableau, bounds, basis, cobasis, reduced, det)
    if status is Status.UNBOUNDED:
        return LPSolution(Status.UNBOUNDED, None, None)

    assignment = [ZERO] * nvar
    for r, b in enumerate(basis):
        assignment[b] = Fraction(bounds[r], det)
    value = sum(c * x for c, x in zip(objective, assignment))
    return LPSolution(Status.OPTIMAL, value, tuple(assignment))


def matrix_game_value(
    matrix, scale: int = 1, *, decide: bool = False
) -> tuple[Fraction, tuple[Fraction, ...] | None, tuple[Fraction, ...] | None]:
    """Exact value of the zero-sum game ``max_row min_col m^T A`` together
    with optimal mixtures for both players, given ``matrix = scale * A`` in
    integers (``scale`` a positive int).

    Shifting the matrix positive, by ``scale - min``, makes the column
    player's scaled program start from an all-slack feasible basis, so this
    runs a single simplex phase; the row mixture is read off the slack
    reduced costs by duality and the column mixture off the basic solution.
    The shifted matrix is ``scale`` times ``A`` shifted by ``1 - min``: the
    pivots and mixtures do not see the scale, and the value divides it out.
    Bland's rule gives the mixtures that witnesses print.
    ``decide`` pivots by ``_primal``'s ``largest`` rule and gives no column
    mixture, nor a row mixture unless the value is > 0 and every basic variable
    is positive: then the dual optimum is unique (Mangasarian 1979), so Bland's.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    if ncols == 0 or any(len(row) != ncols for row in matrix):
        raise ValidationError("matrix game needs equal rows of at least one column")
    _require_integers(*matrix, what="matrix game entries")
    if type(scale) is not int or scale < 1:
        raise ValidationError(f"matrix game scale must be a positive int, got {scale!r}")
    shift = scale - min(min(row) for row in matrix)

    tableau = [[v + shift for v in row] for row in matrix]
    rhs = [1] * nrows
    status, det, basis, cobasis, reduced = _from_origin(tableau, rhs, [1] * ncols, decide)
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
    value = Fraction(det - shift * total, scale * total)
    if decide and not (value > 0 and all(rhs)):
        return value, None, None
    weights = [0] * nrows  # a basic slack's row has weight 0
    for c, j in enumerate(cobasis):
        if j >= ncols:
            weights[j - ncols] = -reduced[c]
    row_mixture = tuple(Fraction(w, total) for w in weights)
    columns = None if decide else tuple(Fraction(v, total) for v in scaled_columns)
    return value, row_mixture, columns


def optimum_from_origin(
    rows, rhs, objective
) -> tuple[Fraction, tuple[Fraction, ...] | None] | None:
    """Exact optimum of ``max objective . x`` subject to ``rows . x <= rhs``
    and ``x >= 0``, for integer inputs with ``rhs >= 0``, and the optimal
    ``x`` where it is unique; None when the program is unbounded.

    The origin is feasible, so this runs one phase from the all-slack basis,
    as ``matrix_game_value`` does, with no artificials. The vertex is
    returned only when every non-basic reduced cost of the final basis is
    negative: then raising any non-basic variable lowers the objective, so
    no other feasible point is optimal and every pivot rule stops there.
    Otherwise it is None and a caller that prints a vertex runs ``solve``.
    """
    _require_program(rows, rhs, objective)
    if any(bound < 0 for bound in rhs):
        raise ValidationError("bounds must be non-negative, so the origin is feasible")
    tableau = [list(row) for row in rows]
    rhs = list(rhs)
    nvar = len(objective)
    status, det, basis, _, reduced = _from_origin(tableau, rhs, objective)
    if status is Status.UNBOUNDED:
        return None
    scaled = [0] * nvar
    for r, b in enumerate(basis):
        if b < nvar:
            scaled[b] = rhs[r]
    optimum = Fraction(sum(c * v for c, v in zip(objective, scaled)), det)
    if not all(reduced):
        return optimum, None
    return optimum, tuple(Fraction(v, det) for v in scaled)
