"""Dense two-phase simplex for small linear programs.

Problem form: minimize c.x subject to G x >= h and A x = b, with every
variable free.  The solver works on the dual in standard form,
maximize h'.y subject to G'^T y = c, y >= 0, where G' stacks G, A and -A
(each equality as two opposite inequalities).  Its tableau has one row
per primal variable however many inequality rows there are, which suits
the synthesis programs: few free variables, many rows.  The start is a
crash basis (Bixby 1992, "Implementing the simplex method: the initial
basis"): a dual row with a unit column whose one entry exceeds
PIVOT_ELIGIBLE, which comes from a primal row that bounds that one
variable, starts with that column basic, and phase one drives the
artificials of the other rows to zero.  For the min-max synthesis
program, solved over mu = D - lambda, only the deposit row is left to
phase one.  An unbounded phase two means the primal is infeasible.  No
dual point means it is unbounded or infeasible; then the right-hand side
is set to zero, which makes the phase-one basis a vertex of the dual of
the c = 0 program, and the same steps go on from it: an unbounded phase
two is a Farkas ray (infeasible), and otherwise the final basis gives a
primal point, which the recheck certifies (unbounded).  The primal point
and both sets of multipliers are solved from the one final basis, which
must give finite values, and overflow on the way (a smallest ratio that
is not finite, or a NaN reduced cost) is a NumericalBreakdown too.
Pivoting uses Bland's rule, so the method terminates without cycling:
the first column with a negative reduced cost enters, and among the rows
that tie in the ratio test (within 1e-12 (1 + |r|) of the smallest ratio
r) the one with the smallest basic column leaves.  Each step is a few
array operations: one scan of the reduced costs, one division for the
ratios of the eligible rows and one rank-1 update of the rows the pivot
column touches.  This is meant for the dense systems produced elsewhere
in the package, not for large-scale work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown, ValidationError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_ELIGIBLE = 1e-9


def _as_matrix(mat, ncols, name):
    if mat is None:
        return np.zeros((0, ncols))
    out = np.asarray(mat, dtype=np.float64)
    if out.size == 0:
        return out.reshape(0, ncols)
    if out.ndim != 2 or out.shape[1] != ncols:
        raise DimensionMismatch(f"{name} must have {ncols} columns, got shape {out.shape}")
    return out


def _as_vector(vec, length, name):
    if vec is None:
        if length:
            raise ValidationError(f"{name} is required when its matrix has {length} rows")
        return np.zeros(0)
    out = np.asarray(vec, dtype=np.float64).reshape(-1)
    if out.shape[0] != length:
        raise DimensionMismatch(f"{name} must have length {length}, got {out.shape[0]}")
    return out


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """minimize c.x  s.t.  g @ x >= h,  a_eq @ x = b_eq,  x free."""

    c: np.ndarray
    g: np.ndarray = None
    h: np.ndarray = None
    a_eq: np.ndarray = None
    b_eq: np.ndarray = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64).reshape(-1)
        g = _as_matrix(self.g, c.shape[0], "g")
        h = _as_vector(self.h, g.shape[0], "h")
        a_eq = _as_matrix(self.a_eq, c.shape[0], "a_eq")
        b_eq = _as_vector(self.b_eq, a_eq.shape[0], "b_eq")
        for name, arr in (("c", c), ("g", g), ("h", h), ("a_eq", a_eq), ("b_eq", b_eq)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"linear program field {name} has non-finite entries")
        for name, arr in (("c", c), ("g", g), ("h", h), ("a_eq", a_eq), ("b_eq", b_eq)):
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    dual_ineq: np.ndarray | None = None
    dual_eq: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau, row, col):
    tableau[row] /= tableau[row, col]
    # one rank-1 update of the rows with a nonzero factor in the column
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    rows = np.flatnonzero(factor)
    tableau[rows] -= factor[rows, None] * tableau[row]


def _run(tableau, basis):
    """Iterate to optimality with Bland's rule.

    The last tableau row holds reduced costs, the last column the rhs;
    every other column may enter.  Returns "optimal" or "unbounded".
    """
    nrows = tableau.shape[0] - 1
    for _ in range(2000 + 200 * (2 * nrows + tableau.shape[1] - 1)):
        negative = np.flatnonzero(tableau[-1, :-1] < -OPT_TOL)
        if not negative.size:
            # a NaN reads as no negative: the multipliers overflowed
            if np.isnan(tableau[-1, :-1]).any():
                raise NumericalBreakdown("the basis gives a point that is not finite")
            return "optimal"
        enter = negative[0]
        col = tableau[:nrows, enter]
        eligible = np.flatnonzero(col > PIVOT_ELIGIBLE)
        if not eligible.size:
            return "unbounded"
        ratios = tableau[eligible, -1] / col[eligible]
        best = ratios.min()
        if not math.isfinite(best):
            raise NumericalBreakdown("the ratio test's smallest ratio is not finite")
        ties = eligible[ratios <= best + 1e-12 * (1.0 + abs(best))]
        leave = ties[basis[ties].argmin()]
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    raise NumericalBreakdown("simplex iteration limit exceeded")


@np.errstate(all="ignore")  # overflow ends in a non-finite check, not a warning
def solve(lp: LinearProgram) -> LpOutcome:
    """Solve the program; outcome status is one of optimal, infeasible, unbounded."""
    d, p, q = lp.num_vars, lp.g.shape[0], lp.a_eq.shape[0]
    h_all = np.concatenate([lp.h, lp.b_eq, -lp.b_eq])
    # dual rows g_all^T y = c, one per primal variable, signed so the rhs
    # is >= 0; g_all stacks g, a_eq and -a_eq, and a holds its columns
    signs = np.where(lp.c < 0, -1.0, 1.0)
    a = np.vstack([lp.g, lp.a_eq, -lp.a_eq]).T * signs[:, None]
    m = a.shape[1]
    b0 = lp.c * signs

    # crash basis: a row with a unit column whose entry the ratio test
    # could pivot on (> PIVOT_ELIGIBLE; a primal row that bounds that one
    # variable) starts with the first such column basic, at
    # b0[r] / a[r, j] >= 0, and every other row with its artificial;
    # artificials never enter, so the tableau holds only the real columns,
    # and basis entry m + r is row r's artificial, a unit column
    tableau = np.zeros((d + 1, m + 1))
    tableau[:d, :-1] = a
    tableau[:d, -1] = b0
    basis = np.arange(m, m + d)
    nonzero = tableau[:, :-1] != 0  # the zero cost row keeps argmax defined at d = 0
    row_of = nonzero.argmax(axis=0)  # each column's first nonzero row
    unit = np.flatnonzero((np.count_nonzero(nonzero, axis=0) == 1)
                          & (tableau[row_of, np.arange(m)] > PIVOT_ELIGIBLE))
    rows, first = np.unique(row_of[unit], return_index=True)
    basis[rows] = unit[first]
    tableau[rows] /= tableau[rows, basis[rows], None]
    # canonical phase-one objective: minimize the total of the artificials
    tableau[-1, :] = -tableau[:d][basis >= m].sum(axis=0)
    _run(tableau, basis)

    # no dual point: go on with the c = 0 program, from this basis at a zero rhs
    no_dual = -tableau[-1, -1] > FEAS_TOL * (1.0 + np.abs(b0).max(initial=0.0))
    if no_dual:
        tableau[:d, -1] = b0 = np.zeros(d)

    # an artificial left basic sits at zero; pivot it out where a real
    # column can take its row, else its row is zero in every real column
    for r in range(d):
        if basis[r] >= m:
            row = np.abs(tableau[r, :-1])
            if row.max(initial=0.0) > PIVOT_ELIGIBLE:
                basis[r] = int(row.argmax())
                _pivot(tableau, r, basis[r])

    cost = np.concatenate([-h_all, np.zeros(d)])  # maximize h_all.y
    tableau[-1, :-1] = cost[:m]
    tableau[-1, -1] = 0.0
    for r, b in enumerate(basis):
        if cost[b] != 0.0:
            tableau[-1, :] -= cost[b] * tableau[r, :]
    if _run(tableau, basis) == "unbounded":
        return LpOutcome("infeasible")  # an unbounded dual ray

    # y and x from the final basis itself: tableau reads carry pivot drift
    bmat = np.eye(d)
    real = basis < m
    bmat[:, real] = a[:, basis[real]]
    y = np.zeros(m + d)
    try:
        y[basis] = np.linalg.solve(bmat, b0)
        x = -signs * np.linalg.solve(bmat.T, cost[basis])
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("final basis is singular") from None
    value = float(lp.c @ x)
    if not (math.isfinite(value) and np.isfinite(x).all()):
        raise NumericalBreakdown("the basis gives a point that is not finite")

    recheck = 1e-7 * (1.0 + np.abs(h_all).max(initial=0.0))
    if p and np.any(lp.g @ x - lp.h < -recheck):
        raise NumericalBreakdown("optimal basis violates an inequality on recheck")
    if q and np.any(np.abs(lp.a_eq @ x - lp.b_eq) > recheck):
        raise NumericalBreakdown("optimal basis violates an equality on recheck")
    if no_dual:
        return LpOutcome("unbounded")
    return LpOutcome("optimal", x, value, y[:p], y[p : p + q] - y[p + q : m])
