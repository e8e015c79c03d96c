"""Coalition deviation constraints and scheme verification.

The target property: for every subgame, every coalition C of at most t
players, every leaf that C can force (others on-profile) only by leaving
the profile, and every member i of C, the member's expected on-profile
utility beats the leaf by at least delta.  Each requirement is one row
on member i's row of E = U - Lambda @ Phi: the subgame's honest outcome
(support leaves and weights) against one deviation leaf, with right-hand
side delta, stored as (player, outcome id, leaf) over one flat (outcome
id, leaf, weight) table.  No two rows share (player, outcome, leaf): no
two emitting subgames (below) share an outcome.  Rows go by subgame in
preorder, coalition size, coalition in combinations order, member, leaf.

`build_constraints` works on arrays over the compiled preorder.  Only a
subgame whose honest outcome differs from its parent's emits rows: any
other one is followed on-profile by its parent, so its rows repeat the
parent's.  C reaches leaf j from v exactly when the path from v to j
has no zero-probability chance edge and C holds its deviators S, the
owners of the unchosen edges on it.  So a row needs 1 <= |S|, and member
i gets one exactly when |S + {i}| <= t, first from S + {i}, the smallest
coalition that holds i and reaches j.  Pointer jumping (`_settle`) finds
the deepest such edge over every leaf, per player and for chance, so the
work follows the leaves, players and rows, not the C(n, <= t) coalitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import BadParameters, DimensionMismatch
from .game_core import GameTree, StrategyProfile, check_profile
from .info_structure import InfoStructure, PaymentScheme, implemented_utilities

SLACK_TOL = 1e-9


@dataclass(frozen=True)
class SecurityParams:
    """delta: required utility gap (>= 0); t: maximum coalition size."""

    delta: float
    t: int = 1

    def __post_init__(self):
        real = (int, float, np.integer, np.floating)
        if (isinstance(self.delta, bool) or not isinstance(self.delta, real)
                or not np.isfinite(self.delta) or self.delta < 0):
            raise BadParameters(f"delta must be a finite nonnegative number, got {self.delta!r}")
        if isinstance(self.t, bool) or not isinstance(self.t, (int, np.integer)) or self.t < 1:
            raise BadParameters(f"coalition bound t must be an integer >= 1, got {self.t!r}")


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
    `support_outcome[e] == k`, entries grouped by outcome in leaf order;
    outcome k < m is leaf k, and the chance heads' outcomes follow.  Row r
    came from the subgame at preorder position `subgame[r]` of `tree` and
    from coalition `coalitions[coalition[r]]`; `rows` and `check` build
    `ConstraintRow`s from these only when read.  Callers use `dot`, `lift`
    or the dense view `a`, not this layout."""

    player: np.ndarray  # (alpha,) ints
    outcome: np.ndarray  # (alpha,) ints
    leaf: np.ndarray  # (alpha,) ints
    support_outcome: np.ndarray  # one entry per (outcome, support leaf)
    support_leaf: np.ndarray
    support_weight: np.ndarray
    rhs: np.ndarray
    subgame: np.ndarray  # (alpha,) preorder positions in tree
    coalition: np.ndarray  # (alpha,) indices into coalitions
    coalitions: tuple[tuple[int, ...], ...]
    tree: GameTree
    n: int
    m: int

    @property
    def alpha(self) -> int:
        return len(self.player)

    @cached_property
    def rows(self) -> tuple[ConstraintRow, ...]:
        return tuple(map(self._row, range(self.alpha)))

    def _row(self, r: int) -> ConstraintRow:
        return ConstraintRow(self.tree.ids[self.subgame[r]],
                             self.coalitions[self.coalition[r]],
                             int(self.player[r]), int(self.leaf[r]))

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
        per_outcome = np.zeros((self.support_outcome[-1] + 1, self.m))
        per_outcome[self.support_outcome, self.support_leaf] = self.support_weight
        coef = per_outcome[self.outcome]
        coef[np.arange(self.alpha), self.leaf] = -1.0
        return self._blocks(coef)

    def check(self, e) -> VerifyReport:
        """The slack of every row at implemented utilities e (n, m), and
        the rows it violates beyond SLACK_TOL."""
        slacks = self.dot(e) - self.rhs
        slacks.setflags(write=False)
        violations = tuple((self._row(r), float(slacks[r]))
                           for r in np.flatnonzero(slacks < -SLACK_TOL).tolist())
        return VerifyReport(not violations, slacks, violations, self)

    def _apply(self, y: np.ndarray) -> np.ndarray:
        """(alpha, k): each row's honest outcome of y (k, m) minus y at its leaf."""
        honest = np.zeros((self.support_outcome[-1] + 1, y.shape[0]))
        weighted = self.support_weight[:, None] * y.T[self.support_leaf]
        np.add.at(honest, self.support_outcome, weighted)
        return honest[self.outcome] - y.T[self.leaf]

    def _blocks(self, per_row: np.ndarray) -> np.ndarray:
        out = np.zeros((self.alpha, self.n, per_row.shape[1]))
        out[np.arange(self.alpha), self.player] = per_row
        return out.reshape(self.alpha, self.n * per_row.shape[1])


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
    return frozenset(j for j, _ in tree.reach(start, check_profile(tree, profile), members))


def _settle(f: np.ndarray) -> np.ndarray:
    """Where following the positions in `f` ends: f[f] until every entry
    is a fixed point.  Each round doubles the steps taken, so a path of
    length d settles in about log2(d) rounds (pointer jumping)."""
    while True:
        g = f[f]
        if np.array_equal(g, f):
            return f
        f = g


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The ranges [start[k], start[k] + length[k]) one after another."""
    offset = np.cumsum(length) - length
    return np.arange(length.sum()) + np.repeat(start - offset, length)


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the columns of `keys` by row 0, then row 1, ...: the first
    column of each distinct value, and each column's rank among them."""
    order = np.lexsort(keys[::-1])
    new = np.ones(len(order), dtype=bool)
    new[1:] = (keys[:, order[1:]] != keys[:, order[:-1]]).any(axis=0)
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    return order[new], rank


def build_constraints(
    tree: GameTree, profile: StrategyProfile, params: SecurityParams
) -> ConstraintSystem:
    n, m = tree.n, tree.m
    if params.t > n:
        raise BadParameters(f"coalition bound t={params.t} exceeds {n} players")
    chosen = check_profile(tree, profile)
    size = len(tree.ids)
    node = np.arange(size)
    choice = np.array(chosen, dtype=np.intp)  # -1 off branches
    leaf_index = np.array(tree.leaf_index, dtype=np.intp)
    is_leaf = leaf_index >= 0
    nkids = np.fromiter(map(len, tree.kids), np.intp, size)
    child = np.fromiter(chain.from_iterable(tree.kids), np.intp, size - 1)
    parent = np.zeros(size, dtype=np.intp)  # the root is its own parent
    parent[child] = np.repeat(node, nkids)
    # the leaves under v are lo[v]..hi[v]-1: the last one is reached by
    # following last children
    last = node.copy()
    last[~is_leaf] = child[np.cumsum(nkids)[~is_leaf] - 1]
    lo = np.cumsum(is_leaf) - is_leaf
    hi = leaf_index[_settle(last)] + 1

    # Honest outcomes.  Play from v follows chosen children down to its
    # head, a leaf or chance node, and v's outcome is the head's.  Leaf j
    # is outcome j; a chance node's outcome is the leaves it reaches with
    # positive weight, with id m, m+1, ... unless a head before it had
    # the same leaves and weights.
    sid = leaf_index.copy()
    ids: dict[tuple, int] = {}
    zero = np.zeros(size, dtype=bool)  # zero-probability chance children
    for v in np.flatnonzero(~is_leaf & (choice < 0)).tolist():
        # weights from the top down, as honest_outcome multiplies them
        honest = [(j, p) for j, p in tree.reach(v, chosen) if p > 0]
        if len(honest) == 1 and honest[0][1] == 1.0:
            sid[v] = honest[0][0]
        else:
            key = (tuple(j for j, _ in honest), tuple(p for _, p in honest))
            sid[v] = ids.setdefault(key, m + len(ids))
        zero[[c for q, c in zip(tree.labels[v], tree.kids[v]) if not q > 0]] = True
    sid = sid[_settle(np.where(choice >= 0, choice, node))]
    # the support of outcome k is the next sup_len[k] entries
    sup_len = np.array([1] * m + [len(leaves) for leaves, _ in ids], dtype=np.intp)
    sup_leaf = np.array([*range(m), *(j for leaves, _ in ids for j in leaves)], dtype=np.intp)
    sup_weight = np.array([*[1.0] * m, *(p for _, weights in ids for p in weights)])

    # A leaf reaches only its own support.
    emit = ~is_leaf & (sid != sid[parent])
    emit[0] = True
    sub = np.flatnonzero(emit)
    sub_sid = sid[sub]

    # Row o < n marks the nodes player o's unchosen edges enter, row n those
    # zero-probability edges enter; top[o, j]: the deepest one over leaf j.
    owner = np.array(tree.owner, dtype=np.intp)
    owner[owner < 0] = n
    blocked = np.zeros((n + 1, size), dtype=bool)
    blocked[owner[parent], node] = zero | ((choice[parent] >= 0) & (choice[parent] != node))
    top = np.array([_settle(np.where(row, node, parent)) for row in blocked])[:, is_leaf]

    # Candidates (v, j) by subgame, then leaf: top[n, j] not below v, and 1 to
    # t deviators o (top[o, j] below v); a leaf with none is on v's play.
    width = hi[sub] - lo[sub]
    seg = np.repeat(np.arange(len(sub)), width)
    leaf = _ranges(lo[sub], width)
    below = top[:, leaf] > sub[seg]
    count = below[:n].sum(axis=0)
    live = np.flatnonzero(~below[n] & (count >= 1) & (count <= params.t))
    seg, leaf = seg[live], leaf[live]
    # Group them by deviators S (bits, player 0 first), rank the coalitions
    # S + {i} by (size, inverted bits), order rows by (subgame, slot, leaf).
    first, group = _group(np.packbits(below[:n, live], axis=0))
    deviators = below[:n, live[first]]
    size_with = deviators.sum(axis=0) + ~deviators  # (member, group)
    gives = size_with <= params.t
    member, of = np.nonzero(gives)
    joined = np.packbits(deviators[:, of] | (np.arange(n)[:, None] == member), axis=0)
    ranked, rank = _group(np.vstack([size_with[gives], ~joined]))
    slot = np.zeros_like(size_with)
    slot[gives] = rank * n + member
    player, pos = np.nonzero(gives[:, group])
    slot = slot[player, group[pos]]
    order = np.argsort(seg[pos] * (len(ranked) * n) + slot, kind="stable")
    slot, pos = slot[order], pos[order]
    # Rows are unique as built.  A subgame has one row per (player, leaf),
    # and no two emitting subgames share an outcome: its support lies under
    # both heads, so the lower subgame is on the upper one's play, and its
    # parent has the same outcome (a chance parent whose one positive child
    # has p = 1 takes the child's id by key), so the lower one does not
    # emit.  Every ranked coalition comes from a (member, group) with rows.
    player, leaf, seg, coalition = slot % n, leaf[pos], seg[pos], slot // n
    members = np.unpackbits(joined[:, ranked], axis=0, count=n)
    coalitions = tuple(tuple(np.flatnonzero(c).tolist()) for c in members.T)

    rhs = np.full(len(player), float(params.delta))
    arrays = (player, sub_sid[seg], leaf, np.repeat(np.arange(len(sup_len)), sup_len),
              sup_leaf, sup_weight, rhs, sub[seg], coalition)
    for arr in arrays:
        arr.setflags(write=False)
    return ConstraintSystem(*arrays, coalitions, tree, n, m)


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
        raise DimensionMismatch(f"info structure has {info.m} leaf columns, tree has {tree.m}")
    system = build_constraints(tree, profile, params)
    return system.check(implemented_utilities(tree.u, scheme, info))
