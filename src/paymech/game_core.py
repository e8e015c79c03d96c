"""Finite extensive-form games of perfect information.

A game tree has one nested format, the one a game document holds.  Each
node is an object with exactly one key: a decision node owned by a
player, {"branch": {"id", "owner", "children": {move: node}}}; a random
move with fixed probabilities, {"chance": {"id", "children": [{"p",
"node"}]}}; or a terminal node, {"leaf": {"id", "utilities",
"emission"}}.  Every leaf carries a utility vector, one entry per player,
and an emission distribution over the symbols of whatever reporting
mechanism observes the play.  `json.loads` builds these nodes from a
document's text, and `leaf`, `branch` and `chance` build them in code
(branch children as an `OrderedMap`, whose order the canonical writer
keeps).

A `GameTree` keeps no node object: it is columns over preorder
positions, position 0 the root.  `ids[v]` is the node's id, `owner[v]`
its player (-1 off branches), `labels[v]` its move names at a branch,
its child probabilities at a chance node and () at a leaf, `kids[v]` its
child positions and `leaf_index[v]` its leaf number (-1 at other nodes).
Leaves are numbered 0..m-1 in preorder; that order fixes the columns of
the utility matrix `u` (n, m) and of the emission matrix `phi` (s, m),
which the tree keeps read-only.  A node with a leaf number is a leaf,
one with an owner a branch, any other a chance node.

`_read_tree` is the one reader of nested trees, from a document or from
code.  One pass over an explicit stack checks each node's JSON types and
places it, appending its position to its parent's child list and
numbering its leaf; then each value rule runs once over its whole column
(ids, branches, chance probabilities, leaves).  Pickles and copies hold
the tree's own columns, which passed every rule when the tree was read,
and restore them without a second reading.  Each call resolves a
strategy profile once, through `check_profile`, into `chosen`, the
chosen child position of every branch; a profile that misses a branch
or names another id is rejected.  The analyses are two loops over
these columns, one per question, none recursive:
- where on-profile or coalition play can go: the top-down spread
  `GameTree.reach`, which yields leaf numbers (`honest_outcome`,
  `expected_utilities`, `inducible_leaves`, a chance node's honest
  outcome in `security.build_constraints`, and the (leaf, symbol) law
  an escrow episode is drawn from);
- what each player should do: `backward_induction`, one pass over
  reversed preorder.
`security.build_constraints` loops over no other node: it copies the
columns and `chosen` into numpy arrays and works on those.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    BadParameters,
    BadProbabilitySum,
    DimensionMismatch,
    DuplicateNodeId,
    MissingBranchChoice,
    UnknownNodeId,
    ValidationError,
)

PROB_TOL = 1e-9

# A strategy profile is a plain mapping: branch id -> chosen move name.
StrategyProfile = Mapping[str, str]


class OrderedMap(dict):
    """Dict whose key order the canonical writer preserves: branch children."""


def leaf(node_id: str, utilities: Iterable[float], emission: Iterable[float]) -> dict:
    return {"leaf": {"id": node_id, "utilities": [*map(float, utilities)],
                     "emission": [*map(float, emission)]}}


def branch(node_id: str, owner: int, children) -> dict:
    """A branch of player `owner`; `children` maps move names to nodes or
    lists (move, node) pairs, in order."""
    pairs = [*(children.items() if isinstance(children, Mapping) else children)]
    moves = OrderedMap((str(m), c) for m, c in pairs)
    if len(moves) < len(pairs):
        raise _repeated_move(node_id)
    return {"branch": {"id": node_id, "owner": int(owner), "children": moves}}


def chance(node_id: str, children: Iterable[tuple[float, dict]]) -> dict:
    return {"chance": {"id": node_id,
                       "children": [{"p": float(p), "node": c} for p, c in children]}}


def _repeated_move(node_id) -> ValidationError:
    return ValidationError(f"branch {node_id!r} repeats a move name")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class GameTree:
    """A validated game tree: columns over preorder positions.

    `GameTree(players, root)` takes a nested tree: the tree of a game
    document, or one built from `leaf`, `branch` and `chance`.
    Validation happens at construction: node ids must be unique, chance
    probabilities and leaf emissions must be distributions, utility
    vectors must be finite and match the player count, and all leaves
    must emit over the same symbol count.  A pickle or copy holds the
    fields but `positions` and restores them unchecked; pickle streams
    are not an input format, and unpickling untrusted bytes is unsafe in
    itself.  Pickling, deepcopy, == and hash go through the columns, so
    deep trees do not recurse; a zero utility or probability equals its
    negative, as it does in a tuple.
    """

    players: tuple[str, ...]
    ids: tuple[str, ...]
    owner: tuple[int, ...]  # -1 off branches
    labels: tuple[tuple, ...]  # moves, probabilities, or () at a leaf
    kids: tuple[tuple[int, ...], ...]
    leaf_index: tuple[int, ...]  # -1 off leaves
    positions: dict[str, int]
    # read-only: u[i, j] is player i's utility at leaf j, phi[k, j] the
    # probability that leaf j emits symbol k
    u: np.ndarray
    phi: np.ndarray

    def __init__(self, players, root):
        players = check_players(players)
        self._install(players, *_read_tree(len(players), root))

    def _install(self, *values):
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)

    def __reduce__(self):
        return _restore, (self.players, self.ids, self.owner, self.labels, self.kids,
                          self.leaf_index, self.u, self.phi)

    def __eq__(self, other):
        if type(other) is not GameTree:
            return NotImplemented
        return ((self.players, self.ids, self.owner, self.labels)
                == (other.players, other.ids, other.owner, other.labels)
                and np.array_equal(self.u, other.u) and np.array_equal(self.phi, other.phi))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0
        return hash((self.players, self.ids, self.owner, self.labels,
                     (self.u + 0.0).tobytes(), (self.phi + 0.0).tobytes()))

    def __repr__(self):
        return f"GameTree(players={self.players!r}, nodes={len(self.ids)}, leaves={self.m})"

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def num_symbols(self) -> int:
        return self.phi.shape[0]

    def position(self, node_id: str) -> int:
        if node_id not in self.positions:
            raise UnknownNodeId(f"no node with id {node_id!r}")
        return self.positions[node_id]

    def reach(self, start: int, chosen, free=()) -> list[tuple[int, float]]:
        """Numbers of the leaves reachable from position `start`, in leaf
        order, each with the product of the chance probabilities on its
        path.  Branches of players in `free` take every move, the others
        their `chosen` child; chance nodes spread over their
        positive-probability children."""
        owner, labels, kids, leaf_index = self.owner, self.labels, self.kids, self.leaf_index
        out = []
        todo = [(start, 1.0)]
        while todo:
            v, p = todo.pop()
            if leaf_index[v] >= 0:
                out.append((leaf_index[v], p))
            elif owner[v] < 0:
                for q, c in zip(labels[v][::-1], kids[v][::-1]):
                    if q > 0:
                        todo.append((c, p * q))
            elif owner[v] in free:
                todo.extend((c, p) for c in kids[v][::-1])
            else:
                todo.append((chosen[v], p))
        return out


def _restore(players, ids, owner, labels, kids, leaf_index, u, phi) -> GameTree:
    """The tree whose fields `GameTree.__reduce__` gave, as a pickle or a
    copy holds them: it installs them, rebuilds `positions` and makes `u`
    and `phi` read-only, and does not read or check the tree again."""
    u.setflags(write=False)
    phi.setflags(write=False)
    tree = object.__new__(GameTree)
    tree._install(players, ids, owner, labels, kids, leaf_index,
                  dict(zip(ids, range(len(ids)))), u, phi)
    return tree


def check_players(players) -> tuple[str, ...]:
    """The player names as a tuple: at least one, and no name twice."""
    players = tuple(str(p) for p in players)
    if not players:
        raise BadParameters("a game needs at least one player")
    if len(set(players)) != len(players):
        raise BadParameters("player names must be unique")
    return players


def _require(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object")
    if key not in doc:
        raise ValidationError(f"{where} is missing {key!r}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{where}.{key} must be a number")
        return _to_floats((value,), f"{where}.{key}")[0]
    if not isinstance(value, kind):
        raise ValidationError(f"{where}.{key} must be {kind.__name__}")
    return value


def _to_floats(numbers, where) -> tuple[float, ...]:
    try:
        return tuple(map(float, numbers))
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{where} must contain only finite numbers") from None


def _parse_numbers(values, where) -> tuple[float, ...]:
    for v in values:
        if v.__class__ is not float and (isinstance(v, bool) or not isinstance(v, (int, float))):
            raise ValidationError(f"{where} must contain only numbers")
    return _to_floats(values, where)


_NODE_SHAPE = ("each tree node must be an object with exactly one of "
               "'branch', 'chance', or 'leaf'")

_KINDS = frozenset(("leaf", "branch", "chance"))
_UTILITIES = itemgetter("utilities")
_EMISSION = itemgetter("emission")


def _read_tree(n: int, root) -> tuple:
    """The `GameTree` fields after `players` of the nested tree `root` in
    a game of `n` players.  One preorder pass over an explicit stack
    checks each node's JSON types and places it: its position joins the
    child list on top of `slots`, which pops in step with the node stack,
    and a leaf takes the next leaf number.  A value of its exact JSON
    class passes an identity test; any other goes to `_require`, which
    raises the fault or accepts a subclass (the `OrderedMap` children of
    `branch`, numpy floats).  `_leaf_rows` checks the leaf rows as
    columns after the walk or, before a fault found in it is raised, over
    the leaves read so far: the first JSON type fault in preorder is
    reported.  Then each value rule runs once over its column and reports
    its first node in preorder, in rule order: ids; branches (a move, an
    owner in range); chance probabilities; leaf utility and emission
    counts, utility values, emission signs, emission sums.  Move names
    are distinct already: they are the keys of one object, and `branch`
    and the reader check them where keys are turned into strings."""
    ids: list = []
    owners: list = []
    labels: list = []
    kids: list = []
    leaf_index: list = []
    leaves: list[int] = []  # the positions of each kind
    branches: list[int] = []
    chances: list[int] = []
    bodies: list = []  # the leaf objects, in leaf order
    stack = [root]
    slots: list[list[int]] = [[]]  # the child list of each node on `stack`
    try:
        while stack:
            doc = stack.pop()
            v = len(ids)
            slots.pop().append(v)
            if doc.__class__ is not dict and not isinstance(doc, dict):
                raise ValidationError(_NODE_SHAPE)
            try:
                kind, = doc
            except ValueError:  # not exactly one key
                raise ValidationError(_NODE_SHAPE) from None
            body = doc[kind]
            node_id = body.get("id") if body.__class__ is dict else None
            if node_id.__class__ is not str:
                if kind not in _KINDS:
                    raise ValidationError(f"unknown node kind {kind!r}")
                node_id = _require(body, "id", str, kind)
            j = -1
            if kind == "leaf":
                j = len(leaves)
                leaves.append(v)
                bodies.append(body)
                owner, names, row = -1, (), ()
            elif kind == "branch":
                owner = body.get("owner")
                if owner.__class__ is not int:
                    owner = _require(body, "owner", int, f"branch {node_id}")
                    if isinstance(owner, bool):
                        raise ValidationError(f"branch {node_id}.owner must be an integer")
                children = body.get("children")
                if children.__class__ is not dict:
                    children = _require(body, "children", dict, f"branch {node_id}")
                names = tuple(children)
                try:
                    "".join(names)  # the keys of an object read from JSON are strings
                except TypeError:  # a tree built without `branch` may have other keys
                    names = tuple(map(str, names))
                    if len(set(names)) < len(names):
                        raise _repeated_move(node_id)
                branches.append(v)
                row = []
                slots += [row] * len(names)
                stack.extend(reversed(children.values()))
            elif kind == "chance":
                entries = body.get("children")
                if entries.__class__ is not list:
                    entries = _require(body, "children", list, f"chance {node_id}")
                probs, subs = [], []
                for entry in entries:
                    p, sub = ((entry.get("p"), entry.get("node")) if entry.__class__ is dict
                              else (None, None))
                    if p.__class__ is not float:
                        p = _require(entry, "p", float, f"chance {node_id} child")
                    if sub.__class__ is not dict:
                        sub = _require(entry, "node", dict, f"chance {node_id} child")
                    probs.append(p)
                    subs.append(sub)
                owner, names = -1, tuple(probs)
                chances.append(v)
                row = []
                slots += [row] * len(subs)
                stack.extend(reversed(subs))
            else:
                raise ValidationError(f"unknown node kind {kind!r}")
            ids.append(node_id)
            owners.append(owner)
            labels.append(names)
            kids.append(row)
            leaf_index.append(j)
    except ValidationError:
        _leaf_rows(bodies)
        raise
    utilities, emissions = _leaf_rows(bodies)

    positions = dict(zip(ids, range(len(ids))))
    if len(positions) < len(ids):
        seen: set = set()
        for node_id in ids:
            if node_id in seen:
                raise DuplicateNodeId(f"node id {node_id!r} appears more than once")
            seen.add(node_id)

    for v in branches:
        if not labels[v]:
            raise ValidationError(f"branch {ids[v]} has no children")
        if not 0 <= owners[v] < n:
            raise DimensionMismatch(
                f"branch {ids[v]!r} owner {owners[v]} out of range for {n} players")
    for v in chances:
        if min(labels[v], default=0.0) < 0:
            raise BadProbabilitySum(f"chance node {ids[v]!r} has a negative probability")
        total = sum(labels[v])
        if not abs(total - 1.0) <= PROB_TOL:
            raise BadProbabilitySum(f"chance node {ids[v]!r} probabilities sum to {total!r}")

    # every branch and chance node has a child by now, so m >= 1
    s = len(emissions[0])
    if s < 1:
        raise DimensionMismatch(f"leaf {ids[leaves[0]]!r} has an empty emission pdf")
    if {*map(len, utilities)} != {n} or {*map(len, emissions)} != {s}:
        for v, utility, emission in zip(leaves, utilities, emissions):
            if len(utility) != n:
                raise DimensionMismatch(
                    f"leaf {ids[v]!r} has {len(utility)} utilities, expected {n}")
            if len(emission) != s:
                raise DimensionMismatch(
                    f"leaf {ids[v]!r} emits over {len(emission)} symbols, expected {s}")
    # one row per leaf here; the tree keeps the transposes
    m = len(leaves)
    u = np.fromiter(chain.from_iterable(utilities), np.float64, m * n).reshape(m, n)
    finite = np.isfinite(u).all(axis=1)
    if not finite.all():
        raise ValidationError(f"leaf {ids[leaves[finite.argmin()]]!r} has a non-finite utility")
    phi = np.fromiter(chain.from_iterable(emissions), np.float64, m * s).reshape(m, s)
    check_emission_columns(phi.T, lambda j: f"leaf {ids[leaves[j]]!r}")
    u.setflags(write=False)
    phi.setflags(write=False)
    return (tuple(ids), tuple(owners), tuple(labels), tuple(map(tuple, kids)),
            tuple(leaf_index), positions, u.T, phi.T)


def _leaf_rows(leaves) -> tuple[list, list]:
    """The utility rows and the emission rows of the leaf objects `leaves`,
    each a list of numbers that are not bools and fit a float.  Each column
    is tested in a few passes at C speed, and its rows are kept as read;
    only when a test fails are the leaves walked in preorder, utilities
    before emission, to report the first fault or to convert the numbers
    of a subclass."""
    try:
        utilities = [*map(_UTILITIES, leaves)]
        emissions = [*map(_EMISSION, leaves)]
    except KeyError:
        pass
    else:
        if _plain_rows(utilities) and _plain_rows(emissions):
            return utilities, emissions
    utilities, emissions = [], []
    for body in leaves:
        where = f"leaf {body['id']}"
        utilities.append(_parse_numbers(_require(body, "utilities", list, where), "utilities"))
        emissions.append(_parse_numbers(_require(body, "emission", list, where), "emission"))
    return utilities, emissions


_LIST = frozenset((list,))
_FLOAT = frozenset((float,))
_NUMBER = frozenset((float, int))


def _plain_rows(rows) -> bool:
    """Whether `rows` are lists of floats, or of floats and ints that
    convert to floats."""
    if not {*map(type, rows)} <= _LIST:
        return False
    classes = {*map(type, chain.from_iterable(rows))}
    if classes <= _FLOAT:
        return True
    if not classes <= _NUMBER:
        return False
    try:  # an int beyond the float range does not convert
        deque(map(float, chain.from_iterable(rows)), 0)
    except OverflowError:
        return False
    return True


def check_emission_columns(phi: np.ndarray, name) -> None:
    """Require each column of the (s, m) array `phi` to be a pdf: first no
    negative entry in any column, then every sum within PROB_TOL of 1,
    which a NaN sum fails.  The first bad column j is named `name(j)` in
    the error.  Each sum adds the symbols in order from 0.0, as a loop over
    one leaf's emission does, rather than in numpy's pairwise order."""
    negative = np.flatnonzero((phi < 0).any(axis=0))
    if negative.size:
        raise BadProbabilitySum(f"{name(negative[0])} has a negative emission probability")
    total = np.zeros(phi.shape[1])
    for row in phi:
        total += row
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= PROB_TOL))
    if bad.size:
        raise BadProbabilitySum(f"{name(bad[0])} emission pdf sums to {float(total[bad[0]])!r}")


def check_profile(tree: GameTree, profile: StrategyProfile) -> list[int]:
    """Require one valid move for every branch, and no stray ids; returns
    the chosen child position of every branch, -1 at other nodes."""
    positions, owner = tree.positions, tree.owner
    for nid in profile:
        if nid not in positions or owner[positions[nid]] < 0:
            raise UnknownNodeId(f"profile names {nid!r}, which is not a branch of this tree")
    chosen = [-1] * len(owner)
    for v, (nid, moves) in enumerate(zip(tree.ids, tree.labels)):
        if owner[v] >= 0:
            if nid not in profile:
                raise MissingBranchChoice(f"profile has no move for branch {nid!r}")
            move = profile[nid]
            try:
                chosen[v] = tree.kids[v][moves.index(move)]
            except ValueError:
                raise MissingBranchChoice(
                    f"branch {nid!r} has no move {move!r} (moves: {moves})") from None
    return chosen


def backward_induction(tree: GameTree) -> dict[str, str]:
    """Subgame-perfect choices, ties resolved toward the leftmost child.

    One pass over reversed preorder: a leaf is worth its utilities, a
    chance node the probability-weighted sum over its positive-probability
    children, and a branch the value of the first child best for its
    owner."""
    owner, labels, kids, leaf_index = tree.owner, tree.labels, tree.kids, tree.leaf_index
    rows = tree.u.T.tolist()  # one list per leaf, read once
    values: list = [None] * len(kids)
    best_move: dict[int, str] = {}
    for v in range(len(kids) - 1, -1, -1):
        j, o = leaf_index[v], owner[v]
        if j >= 0:
            values[v] = rows[j]
        elif o >= 0:
            worth = [values[c][o] for c in kids[v]]
            best = worth.index(max(worth))  # the leftmost of the best
            best_move[v] = labels[v][best]
            values[v] = values[kids[v][best]]
        else:
            acc = np.zeros(tree.n)
            for p, c in zip(labels[v], kids[v]):
                if p > 0:
                    acc += p * np.asarray(values[c], dtype=np.float64)
            values[v] = acc
    return {tree.ids[v]: move for v, move in reversed(best_move.items())}


def honest_outcome(tree: GameTree, root_id: str, profile: StrategyProfile):
    """Leaf distribution and expected utilities of on-profile play.

    Starting from the subgame rooted at `root_id`, branches follow the
    profile and chance spreads over its children.  Returns `(w, u)`
    where w is a length-m weight vector over leaves (summing to 1) and
    u = U @ w.
    """
    start = tree.position(root_id)
    w = np.zeros(tree.m)
    u = np.zeros(tree.n)
    for j, p in tree.reach(start, check_profile(tree, profile)):
        w[j] += p
        u = u + p * tree.u[:, j]
    return w, u


def expected_utilities(tree: GameTree, profile: StrategyProfile) -> np.ndarray:
    """Expected utility vector when every branch follows the profile: the
    root's honest outcome."""
    return honest_outcome(tree, tree.ids[0], profile)[1]
