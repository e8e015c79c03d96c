"""Finite extensive-form games of perfect information.

A game tree is built from three node kinds: decision nodes owned by a
player (Branch), random moves with fixed probabilities (Chance), and
terminal nodes (Leaf).  Every leaf carries a utility vector, one entry
per player, and an emission distribution over the symbols of whatever
reporting mechanism observes the play.  Leaves are numbered 0..m-1 in
depth-first, left-to-right order; that order fixes the columns of the
utility matrix and of the emission matrix everywhere else in the
package.  The number belongs to the compiled tree, not to the `Leaf`,
so one leaf object can sit at different places in different trees.

Every tree is laid out and validated by one function, `_assemble`, from
the flat preorder list of `_structure`: each leaf itself, each branch or
chance node as its kind, id, owner and child labels.  Trees built in
code, pickled or copied trees and the document reader in `jsonio` all
pass such a list.  `_assemble` fills the preorder arrays in one loop:
`order[v]` is the node at preorder position v, `kids[v]` its child
positions and `leaf_index[v]` its leaf number (-1 at other nodes).  It
then checks each value rule once over its whole column (ids, branches,
chance probabilities, leaves), the leaf rules on the utility matrix `u`
(n, m) and the emission matrix `phi` (s, m), which the tree keeps,
read-only, for every later call.  Each call resolves a strategy profile
once, through `check_profile`, into `chosen`, the chosen child position
of every branch; a profile that misses a branch or names another id is
rejected.  The analyses are three loops over these arrays, one per
question, none recursive:
- where on-profile or coalition play can go: the top-down spread
  `GameTree.reach`, which yields leaf numbers (`honest_outcome`,
  `expected_utilities`, `inducible_leaves`, and a chance node's honest
  outcome in `security.build_constraints`);
- what each player should do: `backward_induction`, one pass over
  reversed preorder;
- where one episode goes: the sampled path of an escrow episode.
`security.build_constraints` loops over no other node: it copies `kids`,
`leaf_index` and `chosen` into numpy arrays and works on those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

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


@dataclass(frozen=True)
class Leaf:
    id: str
    utilities: tuple[float, ...]
    emission: tuple[float, ...]


class _Structural:
    """== and hash by `_structure`, so deep trees compare without recursion;
    repr shows the node's own fields and its child labels (moves or
    probabilities), not its subtree."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _structure(self) == _structure(other)

    def __hash__(self):
        return hash(_structure(self))

    def __repr__(self):
        owner = f", owner={self.owner}" if hasattr(self, "owner") else ""
        labels = tuple(k for k, _ in self.children)
        return f"{type(self).__name__}(id={self.id!r}{owner}, children={labels!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Branch(_Structural):
    id: str
    owner: int
    children: tuple[tuple[str, "Node"], ...]

    def moves(self) -> tuple[str, ...]:
        return tuple(move for move, _ in self.children)


@dataclass(frozen=True, eq=False, repr=False)
class Chance(_Structural):
    id: str
    children: tuple[tuple[float, "Node"], ...]


Node = Union[Branch, Chance, Leaf]


def _structure(root: Node) -> tuple:
    """Every node under `root` in preorder, as its own fields: a leaf
    itself, another node its type, id, owner (-1 for chance) and child
    labels.  Equal exactly when the nested trees are."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node)
        elif isinstance(node, (Branch, Chance)):
            out.append((type(node), node.id, getattr(node, "owner", -1),
                        tuple(k for k, _ in node.children)))
            stack.extend(child for _, child in reversed(node.children))
        else:
            raise ValidationError(f"unknown node type {type(node).__name__}")
    return tuple(out)


def leaf(node_id: str, utilities: Iterable[float], emission: Iterable[float]) -> Leaf:
    return Leaf(node_id, tuple(float(u) for u in utilities), tuple(float(p) for p in emission))


def branch(node_id: str, owner: int, children) -> Branch:
    if isinstance(children, Mapping):
        children = children.items()
    return Branch(node_id, int(owner), tuple((str(m), c) for m, c in children))


def chance(node_id: str, children: Iterable[tuple[float, Node]]) -> Chance:
    return Chance(node_id, tuple((float(p), c) for p, c in children))


@dataclass(frozen=True)
class GameTree:
    """A validated game tree, compiled into preorder arrays.

    Validation happens at construction: node ids must be unique, chance
    probabilities and leaf emissions must be distributions, utility
    vectors must be finite and match the player count, and all leaves
    must emit over the same symbol count.  Leaves are numbered
    depth-first.  `root` is rebuilt, equal to the root passed in but not
    the same object.  Pickling and deepcopy go through the flat
    `_structure` list, so deep trees do not recurse.
    """

    players: tuple[str, ...]
    root: Node
    leaves: tuple[Leaf, ...] = field(init=False, repr=False, compare=False)
    # position = preorder id; order[0] is the root
    order: tuple[Node, ...] = field(init=False, repr=False, compare=False)
    kids: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    leaf_index: tuple[int, ...] = field(init=False, repr=False, compare=False)
    positions: dict[str, int] = field(init=False, repr=False, compare=False)
    # read-only: u[i, j] is player i's utility at leaf j, phi[k, j] the
    # probability that leaf j emits symbol k
    u: np.ndarray = field(init=False, repr=False, compare=False)
    phi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._install(check_players(self.players), _structure(self.root))

    @classmethod
    def from_structure(cls, players: tuple[str, ...], structure) -> "GameTree":
        """The tree whose `_structure` list this is, with `players` as
        `check_players` returns them: the form pickles keep and the
        document reader emits."""
        tree = object.__new__(cls)
        tree._install(players, structure)
        return tree

    def _install(self, players, structure):
        arrays = _assemble(structure, len(players))
        for name, value in zip(("players", "root", "order", "kids", "leaf_index", "positions",
                                "leaves", "u", "phi"), (players, arrays[0][0], *arrays)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return GameTree.from_structure, (self.players, _structure(self.root))

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return len(self.leaves)

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
        order, kids, leaf_index = self.order, self.kids, self.leaf_index
        out = []
        todo = [(start, 1.0)]
        while todo:
            v, p = todo.pop()
            node = order[v]
            if isinstance(node, Leaf):
                out.append((leaf_index[v], p))
            elif isinstance(node, Chance):
                for (q, _), c in zip(node.children[::-1], kids[v][::-1]):
                    if q > 0:
                        todo.append((c, p * q))
            elif node.owner in free:
                todo.extend((c, p) for c in kids[v][::-1])
            else:
                todo.append((chosen[v], p))
        return out


def check_players(players) -> tuple[str, ...]:
    """The player names as a tuple: at least one, and no name twice."""
    players = tuple(str(p) for p in players)
    if not players:
        raise BadParameters("a game needs at least one player")
    if len(set(players)) != len(players):
        raise BadParameters("player names must be unique")
    return players


def _assemble(structure, n: int):
    """Lay a `_structure` list out in preorder, then check it rule by rule:
    (order, kids, leaf_index, positions, leaves, u, phi).  Entry v is the
    node at position v; a branch or chance node is built from its children
    once the last of them is placed.  Each rule runs over its whole column
    and reports the first node that breaks it, in preorder, so of several
    faults the first rule's is reported: ids; branches (a move, an owner
    in range, distinct move names); chance probabilities; leaf utility
    and emission counts, utility values, emission signs, emission sums."""
    order = list(structure)
    kids: list[list[int]] = [[] for _ in order]
    leaf_index = [-1] * len(order)
    leaves: list[Leaf] = []
    branches: list[tuple] = []
    chances: list[tuple] = []
    parents: list[int] = []  # branch and chance nodes still taking children
    for v, entry in enumerate(order):
        if parents:
            kids[parents[-1]].append(v)
        if isinstance(entry, Leaf):
            leaf_index[v] = len(leaves)
            leaves.append(entry)
        else:
            (branches if entry[0] is Branch else chances).append(entry)
            parents.append(v)
        while parents and len(kids[parents[-1]]) == len(order[parents[-1]][3]):
            p = parents.pop()
            kind, node_id, owner, labels = order[p]
            children = tuple(zip(labels, [order[c] for c in kids[p]]))
            order[p] = (Branch(node_id, owner, children) if kind is Branch
                        else Chance(node_id, children))

    ids = [entry.id if isinstance(entry, Leaf) else entry[1] for entry in structure]
    positions = dict(zip(ids, range(len(ids))))
    if len(positions) < len(ids):
        seen: set = set()
        for node_id in ids:
            if node_id in seen:
                raise DuplicateNodeId(f"node id {node_id!r} appears more than once")
            seen.add(node_id)

    for _, node_id, owner, moves in branches:
        if not moves:
            raise ValidationError(f"branch {node_id} has no children")
        if not 0 <= owner < n:
            raise DimensionMismatch(f"branch {node_id!r} owner {owner} out of range for {n} players")
        if len(set(moves)) != len(moves):
            raise ValidationError(f"branch {node_id!r} repeats a move name")
    for _, node_id, _, probs in chances:
        if min(probs, default=0.0) < 0:
            raise BadProbabilitySum(f"chance node {node_id!r} has a negative probability")
        total = sum(probs)
        if not abs(total - 1.0) <= PROB_TOL:
            raise BadProbabilitySum(f"chance node {node_id!r} probabilities sum to {total!r}")

    # every branch and chance node has a child by now, so m >= 1
    s = len(leaves[0].emission)
    if s < 1:
        raise DimensionMismatch(f"leaf {leaves[0].id!r} has an empty emission pdf")
    for lf in leaves:
        if len(lf.utilities) != n:
            raise DimensionMismatch(f"leaf {lf.id!r} has {len(lf.utilities)} utilities, expected {n}")
        if len(lf.emission) != s:
            raise DimensionMismatch(
                f"leaf {lf.id!r} emits over {len(lf.emission)} symbols, expected {s}"
            )
    # one row per leaf here; the tree keeps the transposes
    u = np.array([lf.utilities for lf in leaves], dtype=np.float64)
    finite = np.isfinite(u).all(axis=1)
    if not finite.all():
        raise ValidationError(f"leaf {leaves[finite.argmin()].id!r} has a non-finite utility")
    phi = np.array([lf.emission for lf in leaves], dtype=np.float64)
    check_emission_columns(phi.T, lambda j: f"leaf {leaves[j].id!r}")
    u.setflags(write=False)
    phi.setflags(write=False)
    return (tuple(order), tuple(map(tuple, kids)), tuple(leaf_index), positions, tuple(leaves),
            u.T, phi.T)


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


def utility_matrix(tree: GameTree) -> np.ndarray:
    """The (n, m) utilities, one column per leaf; read-only."""
    return tree.u


def emission_stack(tree: GameTree) -> np.ndarray:
    """The (num_symbols, m) leaf emission pdfs, one column per leaf; read-only."""
    return tree.phi


def check_profile(tree: GameTree, profile: StrategyProfile) -> list[int]:
    """Require one valid move for every branch, and no stray ids; returns
    the chosen child position of every branch, -1 at other nodes."""
    positions, order = tree.positions, tree.order
    for nid in profile:
        if nid not in positions or not isinstance(order[positions[nid]], Branch):
            raise UnknownNodeId(f"profile names {nid!r}, which is not a branch of this tree")
    chosen = [-1] * len(order)
    for v, node in enumerate(order):
        if isinstance(node, Branch):
            if node.id not in profile:
                raise MissingBranchChoice(f"profile has no move for branch {node.id!r}")
            move = profile[node.id]
            for k, (name, _) in enumerate(node.children):
                if name == move:
                    chosen[v] = tree.kids[v][k]
                    break
            else:
                raise MissingBranchChoice(
                    f"branch {node.id!r} has no move {move!r} (moves: {node.moves()})")
    return chosen


def backward_induction(tree: GameTree) -> dict[str, str]:
    """Subgame-perfect choices, ties resolved toward the leftmost child.

    One pass over reversed preorder: a leaf is worth its utilities, a
    chance node the probability-weighted sum over its positive-probability
    children, and a branch the value of the first child best for its
    owner."""
    kids = tree.kids
    values: list = [None] * len(tree.order)
    best_move: dict[int, str] = {}
    for v in range(len(tree.order) - 1, -1, -1):
        node = tree.order[v]
        if isinstance(node, Leaf):
            values[v] = node.utilities
        elif isinstance(node, Branch):
            worth = [values[c][node.owner] for c in kids[v]]
            best = worth.index(max(worth))  # the leftmost of the best
            best_move[v] = node.children[best][0]
            values[v] = values[kids[v][best]]
        else:
            acc = np.zeros(tree.n)
            for (p, _), c in zip(node.children, kids[v]):
                if p > 0:
                    acc += p * np.asarray(values[c], dtype=np.float64)
            values[v] = acc
    return {tree.order[v].id: best_move[v] for v in sorted(best_move)}


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
    return honest_outcome(tree, tree.root.id, profile)[1]


def subgame_ids(tree: GameTree) -> tuple[str, ...]:
    """All node ids in depth-first preorder; each roots a subgame."""
    return tuple(node.id for node in tree.order)
