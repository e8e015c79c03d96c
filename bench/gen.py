"""Seeded game generators and a non-recursive JSON writer.

Trees are held as flat preorder arrays (`Tree`), so generating, writing
and evaluating them never recurses: chains thousands of levels deep are
as easy as wide trees.  The writer emits the game-document format that
`paymech.jsonio.parse_game_doc` reads.

Every float is drawn from a `numpy.random.Generator` seeded by the
caller, so one seed always gives the same documents byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

LEAF, BRANCH, CHANCE = "leaf", "branch", "chance"


@dataclass
class Tree:
    """A game tree as preorder arrays; node 0 is the root."""

    players: tuple[str, ...]
    alphabet: tuple[str, ...]
    ids: list[str] = field(default_factory=list)
    kind: list[str] = field(default_factory=list)
    owner: list[int] = field(default_factory=list)  # -1 off branches
    children: list[list[int]] = field(default_factory=list)
    moves: list[list[str]] = field(default_factory=list)  # branch move names
    probs: list[list[float]] = field(default_factory=list)  # chance probabilities
    utilities: list[list[float] | None] = field(default_factory=list)
    emission: list[list[float] | None] = field(default_factory=list)
    intended: dict[str, str] = field(default_factory=dict)

    def add(self, kind, owner=-1, utilities=None, emission=None, node_id=None) -> int:
        self.ids.append(node_id if node_id is not None else f"v{len(self.kind)}")
        self.kind.append(kind)
        self.owner.append(owner)
        self.children.append([])
        self.moves.append([])
        self.probs.append([])
        self.utilities.append(utilities)
        self.emission.append(emission)
        return len(self.kind) - 1

    @property
    def size(self) -> int:
        return len(self.kind)

    @property
    def n(self) -> int:
        return len(self.players)

    def node_id(self, k: int) -> str:
        return self.ids[k]

    def move_child(self, k: int, move: str) -> int:
        return self.children[k][self.moves[k].index(move)]

    def postorder(self) -> list[int]:
        out, stack = [], [(0, False)]
        while stack:
            k, done = stack.pop()
            if done or self.kind[k] == LEAF:
                out.append(k)
                continue
            stack.append((k, True))
            for c in reversed(self.children[k]):
                stack.append((c, False))
        return out

    def leaf_order(self) -> list[int]:
        """Node numbers of the leaves in depth-first left-to-right order."""
        return [k for k in range(self.size) if self.kind[k] == LEAF]  # numbers are preorder


def tree_from_doc(doc: dict) -> Tree:
    """Read a game document (as parsed by `json.loads`) into a `Tree`."""
    tree = Tree(tuple(doc["players"]), tuple(doc["alphabet"]))
    stack = [(-1, None, None, doc["tree"])]  # (parent, move, probability, node)
    while stack:
        parent, move, p, node = stack.pop()
        (kind, body), = node.items()
        if kind == LEAF:
            k = tree.add(LEAF, utilities=list(body["utilities"]),
                         emission=list(body["emission"]), node_id=body["id"])
        else:
            k = tree.add(kind, owner=body.get("owner", -1), node_id=body["id"])
            if kind == BRANCH:
                kids = [(k, m, None, c) for m, c in body["children"].items()]
            else:
                kids = [(k, None, e["p"], e["node"]) for e in body["children"]]
            stack.extend(reversed(kids))
        if parent >= 0:
            tree.children[parent].append(k)
            if move is not None:
                tree.moves[parent].append(move)
            else:
                tree.probs[parent].append(p)
    tree.intended = dict(doc["intended"])
    return tree


def _emission(rng, s: int, one_hot_share: float) -> list[float]:
    if rng.random() < one_hot_share:
        e = [0.0] * s
        e[int(rng.integers(s))] = 1.0
        return e
    return [float(p) for p in rng.dirichlet(np.ones(s))]


def _leaf_values(rng, n: int, integer: bool = False) -> list[float]:
    if integer:  # ties and degenerate programs, as hand-written games have
        return [float(v) for v in rng.integers(0, 10, n)]
    # continuous draws leave no ties for backward induction to break
    return [float(v) for v in rng.uniform(-10.0, 10.0, n)]


def balanced_tree(
    seed,
    depth: int,
    width: int,
    players: int = 2,
    symbols: int = 4,
    chance_share: float = 0.0,
    one_hot_share: float = 0.5,
    random_owners: bool = False,
    integer_utilities: bool = False,
) -> Tree:
    """Complete `width`-ary tree of the given depth, intended profile = SPE.

    Each internal node is a chance node with probability `chance_share`
    (Dirichlet probabilities) and otherwise a branch, owned by the players
    in turn by level, or by a uniformly drawn player with `random_owners`.
    Each leaf emits one symbol for sure with probability `one_hot_share`
    and otherwise a Dirichlet(1) mix.  Utilities are uniform on [-10, 10),
    or whole numbers 0..9 with `integer_utilities`.
    """
    rng = np.random.default_rng(seed)
    tree = Tree(tuple(f"P{i}" for i in range(players)), tuple(f"s{k}" for k in range(symbols)))
    stack = [(-1, 0)]  # (parent, level), popped in preorder
    while stack:
        parent, level = stack.pop()
        if level == depth:
            k = tree.add(LEAF, utilities=_leaf_values(rng, players, integer_utilities),
                         emission=_emission(rng, symbols, one_hot_share))
        elif rng.random() < chance_share:
            k = tree.add(CHANCE)
            tree.probs[k] = [float(p) for p in rng.dirichlet(np.ones(width))]
        else:
            owner = int(rng.integers(players)) if random_owners else level % players
            k = tree.add(BRANCH, owner=owner)
            tree.moves[k] = [f"m{c}" for c in range(width)]
        if parent >= 0:
            tree.children[parent].append(k)
        if level < depth:
            stack.extend((k, level + 1) for _ in range(width))
    tree.intended = spe_profile(tree)
    return tree


def chain(seed, depth: int, players: int = 2, symbols: int = 4) -> Tree:
    """A path of `depth` branches, each offering 'stop' (a leaf) or 'go'.

    Owners alternate.  The intended profile is the SPE.
    """
    rng = np.random.default_rng(seed)
    tree = Tree(tuple(f"P{i}" for i in range(players)), tuple(f"s{k}" for k in range(symbols)))
    prev = -1
    for level in range(depth):
        k = tree.add(BRANCH, owner=level % players)
        tree.moves[k] = ["stop", "go"]
        if prev >= 0:
            tree.children[prev].append(k)
        stop = tree.add(LEAF, utilities=_leaf_values(rng, players),
                        emission=_emission(rng, symbols, 0.5))
        tree.children[k].append(stop)
        prev = k
    last = tree.add(LEAF, utilities=_leaf_values(rng, players),
                    emission=_emission(rng, symbols, 0.5))
    if prev >= 0:
        tree.children[prev].append(last)
    tree.intended = spe_profile(tree)
    return tree


def spe_profile(tree: Tree) -> dict[str, str]:
    """Backward induction, leftmost move on ties.

    The chance-node sums use the same operation order as the package, so
    the profile is the one `paymech spe` reports, float for float.
    """
    value: dict[int, list[float]] = {}
    profile: dict[str, str] = {}
    for k in tree.postorder():
        kind = tree.kind[k]
        if kind == LEAF:
            value[k] = tree.utilities[k]
        elif kind == CHANCE:
            acc = [0.0] * tree.n
            for p, c in zip(tree.probs[k], tree.children[k]):
                if p > 0:
                    acc = [a + p * v for a, v in zip(acc, value[c])]
            value[k] = acc
        else:
            i = tree.owner[k]
            best = 0
            for c in range(1, len(tree.children[k])):
                if value[tree.children[k][c]][i] > value[tree.children[k][best]][i]:
                    best = c
            profile[tree.node_id(k)] = tree.moves[k][best]
            value[k] = value[tree.children[k][best]]
    return profile


def deviation_profile(tree: Tree, seed) -> dict[str, str]:
    """The intended profile with a random other move at each branch on the
    deviating path from the root, so that play is sure to change.
    """
    rng = np.random.default_rng(seed)
    profile = dict(tree.intended)
    k = 0
    while tree.kind[k] != LEAF:
        if tree.kind[k] == BRANCH:
            nid = tree.node_id(k)
            options = [m for m in tree.moves[k] if m != tree.intended[nid]]
            profile[nid] = options[int(rng.integers(len(options)))]
            k = tree.move_child(k, profile[nid])
        else:
            k = tree.children[k][0]
    return profile


def random_scheme(tree: Tree, seed) -> list[list[float]]:
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, (tree.n, len(tree.alphabet)))
    return [[float(v) for v in row] for row in lam]


# -- writer -------------------------------------------------------------------

def _dump(value) -> str:
    return json.dumps(value, ensure_ascii=True)


def game_text(tree: Tree) -> str:
    """Game document text, written with an explicit stack (no recursion)."""
    parts = ['{"players": ', _dump(list(tree.players)),
             ', "alphabet": ', _dump(list(tree.alphabet)),
             ', "intended": ', _dump(tree.intended), ', "tree": ']
    stack: list = [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        k = item
        nid = _dump(tree.node_id(k))
        kind = tree.kind[k]
        if kind == LEAF:
            parts.append(f'{{"leaf": {{"id": {nid}, "utilities": {_dump(tree.utilities[k])}, '
                         f'"emission": {_dump(tree.emission[k])}}}}}')
            continue
        tail: list = []
        if kind == BRANCH:
            parts.append(f'{{"branch": {{"id": {nid}, "owner": {tree.owner[k]}, "children": {{')
            for c, (move, child) in enumerate(zip(tree.moves[k], tree.children[k])):
                tail += [("" if c == 0 else ", ") + _dump(move) + ": ", child]
        else:
            parts.append(f'{{"chance": {{"id": {nid}, "children": [')
            for c, (p, child) in enumerate(zip(tree.probs[k], tree.children[k])):
                tail += [("" if c == 0 else ", ") + f'{{"p": {_dump(p)}, "node": ', child, "}"]
        tail.append("}}}" if kind == BRANCH else "]}}")
        stack.extend(reversed(tail))
    parts.append("}\n")
    return "".join(parts)


def scheme_text(alphabet, lam) -> str:
    deposits = [max(row) for row in lam]
    return _dump({"alphabet": list(alphabet), "lambda": lam, "max_deposits": deposits}) + "\n"


def profile_text(profile: dict) -> str:
    return _dump(profile) + "\n"
