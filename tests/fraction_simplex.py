"""Reference solver for the differential tests of `epigame.simplex`.

The two-phase Bland-rule simplex on a dense tableau of `Fraction`s that the
engine used before its integer-preserving tableau. It makes the same entering
and leaving choices on the same rational tableau, so the engine must agree
with it exactly: status, value, mixtures, assignment and pivot sequence.
"""

from __future__ import annotations

from fractions import Fraction

from epigame.errors import ValidationError
from epigame.simplex import LinearProgram, LPSolution, Relation, Status

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


def solve(lp: LinearProgram) -> LPSolution:
    """Solve exactly; on OPTIMAL the assignment satisfies every constraint
    under rational re-evaluation and attains the reported value."""
    nvar = len(lp.objective)

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

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for c in lp.constraints:
        row = [ZERO] * ncols
        for k, a in enumerate(c.coeffs):
            pos, neg = column_of[k]
            row[pos] += a
            if neg >= 0:
                row[neg] -= a
        bound = c.bound
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
            row.append(Fraction(slack))
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
        base = row[:ncols] + [ZERO] * nslack
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
        row.extend([ZERO] * (width - len(row)))
        if basis[idx] >= first_artificial:
            row[basis[idx]] = ONE

    # Phase 1: drive the artificials to zero.
    if artificial_rows:
        costs1 = [ZERO] * width
        for idx in artificial_rows:
            costs1[basis[idx]] = Fraction(-1)
        reduced = _reduced_costs(rows, basis, costs1)
        status = _bland(rows, rhs, basis, reduced)
        assert status is Status.OPTIMAL  # phase-1 objective is bounded by 0
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
            dummy = [ZERO] * width
            _pivot(rows, rhs, basis, dummy, r, target)
            keep.append(r)
        rows = [rows[r][:first_artificial] for r in keep]
        rhs = [rhs[r] for r in keep]
        basis = [basis[r] for r in keep]
        width = first_artificial

    # Phase 2 with the real objective.
    costs2 = [ZERO] * width
    for k in range(nvar):
        pos, neg = column_of[k]
        costs2[pos] += lp.objective[k]
        if neg >= 0:
            costs2[neg] -= lp.objective[k]
    reduced = _reduced_costs(rows, basis, costs2)
    status = _bland(rows, rhs, basis, reduced)
    if status is Status.UNBOUNDED:
        return LPSolution(Status.UNBOUNDED, None, None)

    standard = [ZERO] * width
    for r, b in enumerate(basis):
        standard[b] = rhs[r]
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
