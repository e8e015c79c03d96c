"""Payment-scheme synthesis by linear programming.

Decision variables are the n*s entries of the payment matrix, flattened
row-major over (player, symbol), plus the deposit D under the min-max
objective.  Security rows come from the constraint builder and are
lifted into payment space through the emission matrix; self-containment
adds one row per symbol.  Infinite cost entries pin the corresponding
payment to zero (rows of the identity), and honest invariance repeats
one block per player (a Kronecker product with the identity).  Every
block is built over the payments alone; the min-max objective then
appends the D column and its cap rows D >= lambda once.  That program is
solved over mu = D*1 - lambda and D, an invertible change of variables
that turns each cap row into the bound mu >= 0, so the simplex starts
with every cap row basic and phase one runs over the D row alone.  The
scheme is read back as lambda = D - mu and re-verified on the rows in
lambda, and the dual multipliers are those of the program in lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameters,
    DimensionMismatch,
    Infeasible,
    NumericalBreakdown,
    Unbounded,
)
from .game_core import GameTree, StrategyProfile, honest_outcome
from .info_structure import InfoStructure, PaymentScheme, implemented_utilities
from .security import SecurityParams, build_constraints
from .simplex import LinearProgram, solve

OBJ_WEIGHTED = "weighted_cost"
OBJ_MINMAX = "min_max_deposit"

HONEST_PER_LEAF = "per_leaf"
HONEST_EXPECTED = "expected"


@dataclass(frozen=True)
class SynthesisOptions:
    """Toggles for the synthesis program.

    zero_inflation turns the per-symbol column-sum inequality into an
    equality.  honest_invariance forces payments to vanish on the honest
    outcome, either per supported leaf or only in expectation.
    """

    objective: str = OBJ_MINMAX
    zero_inflation: bool = False
    honest_invariance: bool = False
    honest_form: str = HONEST_PER_LEAF

    def __post_init__(self):
        if self.objective not in (OBJ_WEIGHTED, OBJ_MINMAX):
            raise BadParameters(f"unknown objective {self.objective!r}")
        if self.honest_form not in (HONEST_PER_LEAF, HONEST_EXPECTED):
            raise BadParameters(f"unknown honest-invariance form {self.honest_form!r}")


def _cost_matrix(cost, n, s):
    arr = np.asarray(cost, dtype=np.float64)
    if arr.shape != (n, s):
        raise DimensionMismatch(f"cost must be {n}x{s}, got {arr.shape}")
    if np.any(np.isnan(arr)) or np.any(np.isneginf(arr)):
        raise BadParameters("cost entries must be finite or +inf")
    return arr


def synthesize(
    tree: GameTree,
    info: InfoStructure,
    profile: StrategyProfile,
    params: SecurityParams,
    cost=None,
    opts: SynthesisOptions | None = None,
) -> PaymentScheme:
    """Find a self-contained payment matrix securing the profile.

    Raises Infeasible (with the constraint system attached) when no
    payment matrix works, Unbounded when a weighted objective has no
    finite optimum, and NumericalBreakdown if the solver's output fails
    re-verification.
    """
    opts = opts if opts is not None else SynthesisOptions()
    cost_mat = None if cost is None else _cost_matrix(cost, tree.n, info.s)
    if opts.objective == OBJ_WEIGHTED and cost_mat is None:
        raise BadParameters("weighted_cost objective requires a cost matrix")
    system = build_constraints(tree, profile, params)
    return _synthesize(tree, info, profile, system, cost_mat, opts)


def _synthesize(tree, info, profile, system, cost_mat=None, opts=SynthesisOptions()):
    """`synthesize` over the rows of `system`, for callers that hold them
    already; the solution is re-verified against the same rows."""
    if info.m != tree.m:
        raise DimensionMismatch(f"info structure has {info.m} leaf columns, tree has {tree.m}")
    n, s = tree.n, info.s
    ns = n * s
    u = tree.u

    colsum = np.tile(np.eye(s), (1, n))
    g_blocks, h_blocks = [-system.lift(info.phi)], [system.rhs - system.dot(u)]
    eq_blocks = []
    if opts.zero_inflation:
        eq_blocks.append(colsum)
    else:
        g_blocks.append(colsum)
        h_blocks.append(np.zeros(s))
    if cost_mat is not None:
        eq_blocks.append(np.eye(ns)[np.flatnonzero(np.isposinf(cost_mat))])
    if opts.honest_invariance:
        weights, _ = honest_outcome(tree, tree.ids[0], profile)
        if opts.honest_form == HONEST_PER_LEAF:
            per_player = info.phi[:, weights > 0.0].T  # one row per supported leaf
        else:
            per_player = (info.phi @ weights)[None, :]  # symbol pdf of the honest outcome
        eq_blocks.append(np.kron(np.eye(n), per_player))
    g, h = np.vstack(g_blocks), np.concatenate(h_blocks)
    a_eq = np.vstack(eq_blocks) if eq_blocks else np.zeros((0, ns))

    if opts.objective == OBJ_MINMAX:
        # one more variable, the deposit D, which is minimised, and the
        # program is solved over mu = D*1 - lambda: a row r.lambda >= h
        # reads -r.mu + (r.1) D >= h, and each cap row D >= lambda becomes
        # the bound mu >= 0, whose dual column the simplex starts basic
        g = np.block([[-g, g.sum(axis=1, keepdims=True)], [np.eye(ns), np.zeros((ns, 1))]])
        h = np.concatenate([h, np.zeros(ns)])
        a_eq = np.hstack([-a_eq, a_eq.sum(axis=1, keepdims=True)])
        c = np.zeros(ns + 1)
        c[ns] = 1.0
    else:
        c = np.where(np.isposinf(cost_mat), 0.0, cost_mat).ravel()

    lp = LinearProgram(c, g, h, a_eq, np.zeros(len(a_eq)))
    outcome = solve(lp)
    if outcome.status == "infeasible":
        raise Infeasible("no payment scheme satisfies the constraints", constraints=system)
    if outcome.status == "unbounded":
        raise Unbounded("cost objective is unbounded below on the feasible region")

    x = outcome.x
    lam = x[ns] - x[:ns] if opts.objective == OBJ_MINMAX else x
    scheme = PaymentScheme(lam.reshape(n, s))
    report = system.check(implemented_utilities(u, scheme, info))
    if not report.passed:
        raise NumericalBreakdown(
            f"solver output fails re-verification (min slack {report.min_slack:.3e})"
        )
    return scheme


def minmax_deposit(tree: GameTree, info: InfoStructure, profile: StrategyProfile, t: int = 1) -> float:
    """Smallest worst-case deposit that makes the profile an equilibrium.

    Solves the synthesis program at delta=0 under the min-max objective
    and reports the largest payment entry; +inf when even that program
    is infeasible.
    """
    system = build_constraints(tree, profile, SecurityParams(delta=0.0, t=t))
    return _minmax_payment(tree, info, profile, system)


def _minmax_payment(tree, info, profile, system) -> float:
    """Largest payment of the min-max scheme over the rows of `system`,
    +inf when no scheme satisfies them."""
    try:
        return float(_synthesize(tree, info, profile, system).matrix.max())
    except Infeasible:
        return math.inf
