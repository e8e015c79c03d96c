"""Coalition deviation constraints and scheme verification.

The target property: for every subgame, every coalition C of size at
most t, every leaf that C can force (others on-profile) outside the
support of the on-profile continuation, and every member i of C, the
member's expected on-profile utility beats the leaf by at least delta.

Each such requirement is one row on member i's row of E = U - Lambda @
Phi alone, stored as (i, m-vector of leaf coefficients): +w_a on the
support leaves of the subgame (fractional exactly when chance nodes sit
on the on-profile path), -1 on the deviation leaf, right-hand side
delta.  Rows are deduplicated on (player, support, weights, leaf),
keeping the metadata of the first occurrence; generation order is
preorder over subgames, then coalition size, then coalition, then
member, then leaf, so the row order is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import BadParameters, DimensionMismatch
from .game_core import GameTree, StrategyProfile, utility_matrix
from .info_structure import InfoStructure, PaymentScheme, implemented_utilities

SLACK_TOL = 1e-9


@dataclass(frozen=True)
class SecurityParams:
    """delta: required utility gap (>= 0); t: maximum coalition size."""

    delta: float
    t: int = 1

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta < 0:
            raise BadParameters(f"delta must be finite and nonnegative, got {self.delta}")
        if self.t < 1:
            raise BadParameters(f"coalition bound t must be at least 1, got {self.t}")


@dataclass(frozen=True)
class ConstraintRow:
    """Provenance of one constraint row."""

    subgame: str
    coalition: tuple[int, ...]
    deviator: int
    leaf: int


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Rows with coef[r] @ E[player[r]] >= rhs[r] required; callers
    use `dot`, `lift` or the dense view `a`, not this layout."""

    player: np.ndarray  # (alpha,) ints
    coef: np.ndarray  # (alpha, m)
    rhs: np.ndarray
    rows: tuple[ConstraintRow, ...]
    n: int
    m: int
    delta: float
    t: int

    @property
    def alpha(self) -> int:
        return len(self.rows)

    def dot(self, x) -> np.ndarray:
        """Every row applied to x of shape (n, m), one value per row."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n, self.m):
            raise DimensionMismatch(f"expected a {self.n}x{self.m} matrix, got {x.shape}")
        return (self.coef @ x.T)[np.arange(self.alpha), self.player]

    def lift(self, phi) -> np.ndarray:
        """The rows over vec(Lambda) (row-major, player blocks of s
        symbols), given that E depends on Lambda through Lambda @ phi."""
        return self._blocks(self.coef @ np.asarray(phi, dtype=np.float64).T)

    @property
    def a(self) -> np.ndarray:
        """The rows as a dense (alpha, n*m) matrix over vec(E), row-major."""
        return self._blocks(self.coef)

    def check(self, e) -> VerifyReport:
        """The slack of every row at implemented utilities e (n, m), and
        the rows it violates beyond SLACK_TOL."""
        slacks = self.dot(e) - self.rhs
        slacks.setflags(write=False)
        violations = tuple((row, float(s)) for row, s in zip(self.rows, slacks) if s < -SLACK_TOL)
        return VerifyReport(not violations, slacks, violations, self)

    def _blocks(self, per_row: np.ndarray) -> np.ndarray:
        out = np.zeros((self.alpha, self.n, per_row.shape[1]))
        out[np.arange(self.alpha), self.player] = per_row
        return out.reshape(self.alpha, -1)


def inducible_leaves(
    tree: GameTree, root_id: str, coalition: Iterable[int], profile: StrategyProfile
) -> frozenset[int]:
    """Leaf indices the coalition can reach with positive probability.

    Coalition members choose freely at their branches, everyone else
    follows the profile, and chance contributes every positive-probability
    child.
    """
    members = frozenset(int(i) for i in coalition)
    if any(i < 0 or i >= tree.n for i in members):
        raise BadParameters(f"coalition {sorted(members)} out of range for {tree.n} players")
    start = tree.position(root_id)
    return frozenset(lf.index for lf, _ in tree.reach(start, tree.resolve(profile), members))


def build_constraints(
    tree: GameTree, profile: StrategyProfile, params: SecurityParams
) -> ConstraintSystem:
    n, m = tree.n, tree.m
    if params.t > n:
        raise BadParameters(f"coalition bound t={params.t} exceeds {n} players")
    chosen = tree.resolve(profile)
    coalitions = [c for size in range(1, params.t + 1) for c in combinations(range(n), size)]
    # numbers the distinct honest outcomes (support leaves, their weights)
    supports: dict[tuple, int] = {}
    seen: set[tuple[int, int, int]] = set()
    metadata: list[ConstraintRow] = []
    row_support: list[tuple] = []
    for v, root in enumerate(tree.order):
        honest = [(lf.index, p) for lf, p in tree.reach(v, chosen) if p > 0]
        support = tuple(j for j, _ in honest)
        outcome = (support, tuple(p for _, p in honest))
        sid = supports.setdefault(outcome, len(supports))
        for coalition in coalitions:
            reachable = {lf.index for lf, _ in tree.reach(v, chosen, coalition)}
            targets = sorted(reachable.difference(support))
            for i in coalition:
                for j in targets:
                    if (i, sid, j) in seen:
                        continue
                    seen.add((i, sid, j))
                    metadata.append(ConstraintRow(root.id, coalition, i, j))
                    row_support.append(outcome)
    alpha = len(metadata)
    coef = np.zeros((alpha, m))
    for r, (support, weights) in enumerate(row_support):
        coef[r, list(support)] = weights
    coef[np.arange(alpha), [row.leaf for row in metadata]] = -1.0
    player = np.array([row.deviator for row in metadata], dtype=np.intp)
    rhs = np.full(alpha, float(params.delta))
    for arr in (player, coef, rhs):
        arr.setflags(write=False)
    return ConstraintSystem(player, coef, rhs, tuple(metadata), n, m, float(params.delta), params.t)


@dataclass(frozen=True, eq=False)
class VerifyReport:
    passed: bool
    slacks: np.ndarray
    violations: tuple[tuple[ConstraintRow, float], ...]
    system: ConstraintSystem

    @property
    def min_slack(self) -> float | None:
        return float(self.slacks.min()) if self.slacks.size else None


def verify(
    tree: GameTree,
    info: InfoStructure,
    scheme: PaymentScheme,
    profile: StrategyProfile,
    params: SecurityParams,
) -> VerifyReport:
    """Check whether the scheme secures the profile at (delta, t)."""
    if info.m != tree.m:
        raise DimensionMismatch(f"{info.m} emission columns for {tree.m} leaves")
    system = build_constraints(tree, profile, params)
    return system.check(implemented_utilities(utility_matrix(tree), scheme, info))
