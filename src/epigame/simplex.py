"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's anti-cycling rule for both the entering
and the leaving choice, so the solver terminates on every input and every
verdict (optimal / infeasible / unbounded) is exact. Free variables are split
into differences of nonnegative ones.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968, the pivoting of
Avis's lrs): the inputs are scaled once to integers, and each entry is kept as
an integer over one shared positive denominator, the determinant of the
current basis, so a pivot is exact integer arithmetic with one exact division.
All rows share one scale and the objective another, which keeps every sign
and ratio comparison, hence every Bland pivot, as on the rational tableau.
`Fraction`s are built only when results are read out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InvariantViolated, ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)


class Relation(enum.Enum):
    LE = "<="
    EQ = "="
    GE = ">="


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: Relation
    bound: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` subject to the constraints; ``nonnegative[k]``
    says whether variable ``k`` is sign-restricted."""

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    nonnegative: tuple[bool, ...]

    def __post_init__(self):
        nvar = len(self.objective)
        if len(self.nonnegative) != nvar:
            raise ValidationError("one sign flag per variable is required")
        for c in self.constraints:
            if len(c.coeffs) != nvar:
                raise ValidationError("constraint dimension mismatch")


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


def _integers(values, scale):
    """``scale * v`` for each rational ``v``; exact when ``scale`` is a common
    multiple of the denominators."""
    return [v.numerator * (scale // v.denominator) for v in values]


def solve(lp: LinearProgram) -> LPSolution:
    """Solve exactly; on OPTIMAL the assignment satisfies every constraint
    under rational re-evaluation and attains the reported value."""
    nvar = len(lp.objective)
    scale = lcm(*(v.denominator for c in lp.constraints for v in (*c.coeffs, c.bound)))

    # Map original variables to standard (nonnegative) columns.
    column_of: list[tuple[int, int]] = []  # (positive column, negative column or -1)
    ncols = 0
    for k in range(nvar):
        if lp.nonnegative[k]:
            column_of.append((ncols, -1))
            ncols += 1
        else:
            column_of.append((ncols, ncols + 1))
            ncols += 2

    rows: list[list[int]] = []
    rhs: list[int] = []
    for c in lp.constraints:
        *coeffs, bound = _integers((*c.coeffs, c.bound), scale)
        row = [0] * ncols
        for k, a in enumerate(coeffs):
            pos, neg = column_of[k]
            row[pos] += a
            if neg >= 0:
                row[neg] -= a
        slack = 0
        if c.relation is Relation.LE:
            slack = 1
        elif c.relation is Relation.GE:
            slack = -1
        if bound < 0:
            row = [-v for v in row]
            bound = -bound
            slack = -slack
        if slack != 0:
            row.append(slack)
        rows.append(row)
        rhs.append(bound)

    # Append slack columns one per inequality, then artificials where needed.
    nslack = sum(1 for r in rows if len(r) > ncols)
    width = ncols + nslack
    seen = 0
    basis: list[int] = []
    artificial_rows: list[int] = []
    for idx, row in enumerate(rows):
        extra = row[ncols:]
        base = row[:ncols] + [0] * nslack
        if extra:
            base[ncols + seen] = extra[0]
            if extra[0] == 1:
                basis.append(ncols + seen)
            else:
                basis.append(-1)
            seen += 1
        else:
            basis.append(-1)
        rows[idx] = base
    first_artificial = width
    for idx in range(len(rows)):
        if basis[idx] < 0:
            artificial_rows.append(idx)
    for pos, idx in enumerate(artificial_rows):
        basis[idx] = width + pos
    width += len(artificial_rows)
    for idx, row in enumerate(rows):
        row.extend([0] * (width - len(row)))
        if basis[idx] >= first_artificial:
            row[basis[idx]] = 1

    # Phase 1: drive the artificials to zero.
    det = 1
    if artificial_rows:
        costs1 = [0] * width
        for idx in artificial_rows:
            costs1[basis[idx]] = -1
        reduced = _reduced_costs(rows, basis, costs1, det)
        status, det = _bland(rows, rhs, basis, reduced, det)
        if status is not Status.OPTIMAL:
            raise InvariantViolated("phase 1 reported unbounded; its objective is bounded by 0")
        if any(
            rhs[r] != 0
            for r in range(len(rows))
            if basis[r] >= first_artificial
        ):
            return LPSolution(Status.INFEASIBLE, None, None)
        # Pivot leftover artificials out of the basis or drop redundant rows.
        keep: list[int] = []
        for r in range(len(rows)):
            if basis[r] < first_artificial:
                keep.append(r)
                continue
            target = -1
            for j in range(first_artificial):
                if rows[r][j] != 0:
                    target = j
                    break
            if target < 0:
                continue  # redundant constraint
            det = _pivot(rows, rhs, basis, [0] * width, r, target, det)
            keep.append(r)
        rows = [rows[r][:first_artificial] for r in keep]
        rhs = [rhs[r] for r in keep]
        basis = [basis[r] for r in keep]
        width = first_artificial

    # Phase 2 with the real objective.
    objective = _integers(lp.objective, lcm(*(v.denominator for v in lp.objective)))
    costs2 = [0] * width
    for k in range(nvar):
        pos, neg = column_of[k]
        costs2[pos] += objective[k]
        if neg >= 0:
            costs2[neg] -= objective[k]
    reduced = _reduced_costs(rows, basis, costs2, det)
    status, det = _bland(rows, rhs, basis, reduced, det)
    if status is Status.UNBOUNDED:
        return LPSolution(Status.UNBOUNDED, None, None)

    standard = [ZERO] * width
    for r, b in enumerate(basis):
        standard[b] = Fraction(rhs[r], det)
    assignment = []
    for k in range(nvar):
        pos, neg = column_of[k]
        value = standard[pos] - (standard[neg] if neg >= 0 else ZERO)
        assignment.append(value)
    value = sum(c * x for c, x in zip(lp.objective, assignment))
    return LPSolution(Status.OPTIMAL, value, tuple(assignment))


def matrix_game_value(matrix) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact value of the zero-sum game ``max_row min_col m^T A`` together
    with optimal mixtures for both players.

    Shifting the matrix positive makes the column player's scaled program
    start from an all-slack feasible basis, so this runs a single simplex
    phase; the row mixture is read off the slack reduced costs by duality
    and the column mixture off the basic solution. Scaling the shifted
    matrix to integers scales the program's variables alike, which the
    mixtures do not see and the value divides back out.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    if ncols == 0 or any(len(row) != ncols for row in matrix):
        raise ValidationError("matrix game needs equal rows of at least one column")
    shift = ONE - min(min(row) for row in matrix)
    shifted = [[v + shift for v in row] for row in matrix]
    scale = lcm(*(v.denominator for row in shifted for v in row))

    rows = []
    for j in range(nrows):
        row = _integers(shifted[j], scale) + [0] * nrows
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
    value = Fraction(det, scale * total) - shift
    return value, row_mixture, column_mixture


def check_feasible(lp: LinearProgram, assignment: tuple[Fraction, ...]) -> bool:
    """Exact feasibility re-check of a candidate assignment."""
    if len(assignment) != len(lp.objective):
        return False
    for flag, x in zip(lp.nonnegative, assignment):
        if flag and x < 0:
            return False
    for c in lp.constraints:
        lhs = sum(a * x for a, x in zip(c.coeffs, assignment))
        if c.relation is Relation.LE and lhs > c.bound:
            return False
        if c.relation is Relation.GE and lhs < c.bound:
            return False
        if c.relation is Relation.EQ and lhs != c.bound:
            return False
    return True
