"""Coalition deviation constraints and scheme verification.

The target property: for every subgame, every coalition C of size at
most t, every leaf that C can force (others on-profile) outside the
support of the on-profile continuation, and every member i of C, the
member's expected on-profile utility beats the leaf by at least delta.

Each such requirement is one row on member i's row of E = U - Lambda @
Phi alone: the honest outcome of the subgame (its support leaves with
weights w_a, fractional exactly when chance nodes sit on the on-profile
path) against one deviation leaf, with right-hand side delta.  A row is
stored as (player, outcome id, leaf); the distinct outcomes the rows
use sit in one flat (outcome id, leaf, weight) table.  Rows are
deduplicated on (player, outcome, leaf), keeping the metadata of the
first occurrence; generation order is preorder over subgames, then
coalition size, then coalition, then member, then leaf, so the row
order is deterministic.

`build_constraints` finds the rows in one pass over reversed preorder.
It gives every node its honest outcome and, per coalition, the set of
leaves the coalition can reach from it; a branch whose owner is outside
the coalition shares its chosen child's set.  Only a subgame whose
honest outcome differs from its parent's emits rows.  Any other one is
followed on-profile by its parent (an outcome's support is never
empty), so its reachable sets lie inside the parent's and each of its
rows repeats one of the parent's.  Each reachable set lives only until
its parent has used it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import BadParameters, DimensionMismatch
from .game_core import Branch, GameTree, Leaf, StrategyProfile, check_profile, utility_matrix
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
    """Rows with (honest outcome - leaf) @ E[player[r]] >= rhs[r] required.

    Row r pairs the honest outcome `outcome[r]` of its subgame with the
    deviation leaf `leaf[r]`.  Outcome k puts weight `support_weight[e]`
    on leaf `support_leaf[e]` for each table entry e with
    `support_outcome[e] == k`, entries grouped by outcome in leaf order.
    Callers use `dot`, `lift` or the dense view `a`, not this layout."""

    player: np.ndarray  # (alpha,) ints
    outcome: np.ndarray  # (alpha,) ints
    leaf: np.ndarray  # (alpha,) ints
    support_outcome: np.ndarray  # one entry per (outcome, support leaf)
    support_leaf: np.ndarray
    support_weight: np.ndarray
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
        return self._apply(x)[np.arange(self.alpha), self.player]

    def lift(self, phi) -> np.ndarray:
        """The rows over vec(Lambda) (row-major, player blocks of s
        symbols), given that E depends on Lambda through Lambda @ phi."""
        return self._blocks(self._apply(np.asarray(phi, dtype=np.float64)))

    @property
    def a(self) -> np.ndarray:
        """The rows as a dense (alpha, n*m) matrix over vec(E), row-major."""
        per_outcome = np.zeros((self.outcome.max(initial=-1) + 1, self.m))
        per_outcome[self.support_outcome, self.support_leaf] = self.support_weight
        coef = per_outcome[self.outcome]
        coef[np.arange(self.alpha), self.leaf] = -1.0
        return self._blocks(coef)

    def check(self, e) -> VerifyReport:
        """The slack of every row at implemented utilities e (n, m), and
        the rows it violates beyond SLACK_TOL."""
        slacks = self.dot(e) - self.rhs
        slacks.setflags(write=False)
        violations = tuple((row, float(s)) for row, s in zip(self.rows, slacks) if s < -SLACK_TOL)
        return VerifyReport(not violations, slacks, violations, self)

    def _apply(self, y: np.ndarray) -> np.ndarray:
        """(alpha, k): each row's honest outcome of y (k, m) minus y at its leaf."""
        honest = np.zeros((self.outcome.max(initial=-1) + 1, y.shape[0]))
        weighted = self.support_weight[:, None] * y.T[self.support_leaf]
        np.add.at(honest, self.support_outcome, weighted)
        return honest[self.outcome] - y.T[self.leaf]

    def _blocks(self, per_row: np.ndarray) -> np.ndarray:
        out = np.zeros((self.alpha, self.n, per_row.shape[1]))
        out[np.arange(self.alpha), self.player] = per_row
        return out.reshape(self.alpha, -1)


def inducible_leaves(
    tree: GameTree, root_id: str, coalition: Iterable[int], profile: StrategyProfile
) -> frozenset[int]:
    """Leaf numbers the coalition can reach with positive probability.

    Coalition members choose freely at their branches, everyone else
    follows the profile, and chance contributes every positive-probability
    child.
    """
    members = frozenset(int(i) for i in coalition)
    if any(i < 0 or i >= tree.n for i in members):
        raise BadParameters(f"coalition {sorted(members)} out of range for {tree.n} players")
    start = tree.position(root_id)
    return frozenset(j for j, _ in tree.reach(start, tree.resolve(profile), members))


def build_constraints(
    tree: GameTree, profile: StrategyProfile, params: SecurityParams
) -> ConstraintSystem:
    n = tree.n
    if params.t > n:
        raise BadParameters(f"coalition bound t={params.t} exceeds {n} players")
    chosen = check_profile(tree, profile)
    order, kids = tree.order, tree.kids
    coalitions = [c for size in range(1, params.t + 1) for c in combinations(range(n), size)]
    # the distinct honest outcomes (support leaves, their weights), numbered
    ids: dict[tuple, int] = {}
    outcomes: list[tuple] = []
    outcome_of = [0] * len(order)  # honest outcome id of every node
    reach: list = [None] * len(order)  # per coalition, until the parent has used them
    targets: list[tuple[int, list]] = []  # (node, sorted deviation leaves per coalition)

    def number(key) -> int:
        if key not in ids:
            ids[key] = len(outcomes)
            outcomes.append(key)
        return ids[key]

    def emit(v: int) -> None:
        support = outcomes[outcome_of[v]][0]
        per_coalition = [sorted(s.difference(support)) for s in reach[v]]
        if any(per_coalition):
            targets.append((v, per_coalition))

    for v in range(len(order) - 1, -1, -1):
        node = order[v]
        if isinstance(node, Leaf):
            j = tree.leaf_index[v]
            outcome_of[v] = number(((j,), (1.0,)))
            reach[v] = [{j} for _ in coalitions]
            continue
        if isinstance(node, Branch):
            outcome_of[v] = outcome_of[chosen[v]]
            followed = [chosen[v]]
        else:
            # weights from the top down, as honest_outcome multiplies them
            honest = [(j, p) for j, p in tree.reach(v, chosen) if p > 0]
            outcome_of[v] = number((tuple(j for j, _ in honest), tuple(p for _, p in honest)))
            followed = [c for (q, _), c in zip(node.children, kids[v]) if q > 0]
        for c in kids[v]:
            # a child with v's outcome is one v follows (supports are never
            # empty), so its rows repeat v's; a leaf reaches only its support
            if outcome_of[c] != outcome_of[v] and not isinstance(order[c], Leaf):
                emit(c)
        sets = []
        for k, coalition in enumerate(coalitions):
            free = isinstance(node, Branch) and node.owner in coalition
            parts = [reach[c][k] for c in (kids[v] if free else followed)]
            # union into the largest child's set, which no other node holds
            acc = max(parts, key=len)
            for part in parts:
                if part is not acc:
                    acc |= part
            sets.append(acc)
        for c in kids[v]:
            reach[c] = None
        reach[v] = sets
    emit(0)

    seen: set[tuple[int, int, int]] = set()
    metadata: list[ConstraintRow] = []
    row_outcome: list[int] = []
    targets.sort(key=lambda item: item[0])
    for v, per_coalition in targets:
        sid = outcome_of[v]
        for coalition, leaves in zip(coalitions, per_coalition):
            for i in coalition:
                for j in leaves:
                    if (i, sid, j) not in seen:
                        seen.add((i, sid, j))
                        metadata.append(ConstraintRow(order[v].id, coalition, i, j))
                        row_outcome.append(sid)
    # renumber the outcomes the rows use, in order of first use
    used: dict[int, int] = {}
    row_outcome = [used.setdefault(sid, len(used)) for sid in row_outcome]
    table = [outcomes[sid] for sid in used]
    support_outcome = np.array([k for k, (support, _) in enumerate(table) for _ in support],
                               dtype=np.intp)
    support_leaf = np.array([j for support, _ in table for j in support], dtype=np.intp)
    support_weight = np.array([w for _, weights in table for w in weights], dtype=np.float64)
    player = np.array([row.deviator for row in metadata], dtype=np.intp)
    leaf = np.array([row.leaf for row in metadata], dtype=np.intp)
    rhs = np.full(len(metadata), float(params.delta))
    arrays = (player, np.array(row_outcome, dtype=np.intp), leaf,
              support_outcome, support_leaf, support_weight, rhs)
    for arr in arrays:
        arr.setflags(write=False)
    return ConstraintSystem(*arrays, tuple(metadata), n, tree.m, float(params.delta), params.t)


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
