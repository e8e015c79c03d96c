"""Shared factories and independent oracles for the test suite.

The oracles deliberately take the dumbest correct route: constraint rows
by enumerating coalition strategies outright, linear programs by
enumerating basic feasible points inside a large box.  Slow but
trustworthy on the small instances used here.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from paymech import (
    GameTree,
    InfoStructure,
    branch,
    chance,
    honest_outcome,
    leaf,
)

FEAS_TOL = 1e-7

# One "N. PASS/FAIL: detail" line per acceptance criterion, shown in the
# terminal summary by the conftest hook.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:2d} {status}: {detail}")


# ---------------------------------------------------------------- trees

def random_emission(rng, s):
    if rng.random() < 0.5:
        out = np.zeros(s)
        out[rng.integers(s)] = 1.0
        return out
    return rng.dirichlet(np.ones(s))


def random_tree(rng, n_players=2, num_symbols=3, max_nodes=12, allow_chance=True):
    """Random game: root is always a branch, every leaf emits over
    num_symbols, total node count stays within max_nodes."""
    return GameTree(*random_root(rng, n_players, num_symbols, max_nodes, allow_chance))


def random_root(rng, n_players=2, num_symbols=3, max_nodes=12, allow_chance=True):
    """The players and the nested root of `random_tree`, from the same draws."""
    counter = [0]
    budget = [int(rng.integers(4, max_nodes + 1))]

    def make_leaf():
        counter[0] += 1
        utilities = rng.integers(-5, 6, size=n_players).astype(float)
        return leaf(f"L{counter[0]}", utilities, random_emission(rng, num_symbols))

    def make_node(depth):
        budget[0] -= 1
        if depth >= 3 or budget[0] <= 1 or rng.random() < 0.35:
            return make_leaf()
        counter[0] += 1
        node_id = counter[0]
        width = int(rng.integers(2, 4))
        if allow_chance and rng.random() < 0.25:
            probs = rng.dirichlet(np.ones(width))
            kids = [(float(p), make_node(depth + 1)) for p in probs]
            return chance(f"C{node_id}", kids)
        owner = int(rng.integers(n_players))
        kids = [(f"m{k}", make_node(depth + 1)) for k in range(width)]
        return branch(f"B{node_id}", owner, kids)

    budget[0] -= 1
    root_id = "root"
    width = int(rng.integers(2, 4))
    owner = int(rng.integers(n_players))
    root = branch(root_id, owner, [(f"m{k}", make_node(1)) for k in range(width)])
    players = tuple(f"P{i + 1}" for i in range(n_players))
    return players, root


def chain_tree(depth):
    """A `depth`-deep chain: branch b{d} of player d % 2 stops at leaf s{d}
    or goes on; the last "go" reaches a chance node over two leaves.  All
    values are exact in 12 significant digits, so documents round-trip."""
    node = chance("end", [(0.25, leaf("e0", (0.0, 1.0), (0.5, 0.5))),
                          (0.75, leaf("e1", (1.0, 0.0), (1.0, 0.0)))])
    for d in reversed(range(depth)):
        node = branch(f"b{d}", d % 2, [("stop", leaf(f"s{d}", (d % 3, d % 5), (1.0, 0.0))),
                                       ("go", node)])
    return GameTree(("A", "B"), node)


def random_profile(rng, tree):
    out = {}
    for nid, owner, moves in zip(tree.ids, tree.owner, tree.labels):
        if owner >= 0:
            out[nid] = moves[int(rng.integers(len(moves)))]
    return out


def leaf_ids(tree):
    """The ids of the leaves, in leaf order."""
    return [nid for nid, j in zip(tree.ids, tree.leaf_index) if j >= 0]


def has_chance(tree):
    return any(owner < 0 and j < 0 for owner, j in zip(tree.owner, tree.leaf_index))


def preorder_leaves(root):
    """The leaf bodies ({"id", "utilities", "emission"}) of a nested tree,
    in leaf order."""
    out, stack = [], [root]
    while stack:
        (kind, body), = stack.pop().items()
        if kind == "leaf":
            out.append(body)
        elif kind == "branch":
            stack.extend(reversed(body["children"].values()))
        else:
            stack.extend(child["node"] for child in reversed(body["children"]))
    return out


def nested(tree, phi=None, value=float, u=None):
    """The nested root of `tree`, built over reversed preorder from its
    columns, with the emission matrix `phi` (s, m) and the utility matrix
    `u` (n, m) in place of its own and `value` applied to every
    probability, utility and emission."""
    phi = tree.phi if phi is None else phi
    u = tree.u if u is None else u
    nodes = [None] * len(tree.ids)
    for v in reversed(range(len(tree.ids))):
        nid, j, owner = tree.ids[v], tree.leaf_index[v], tree.owner[v]
        kids = [nodes[c] for c in tree.kids[v]]
        if j >= 0:
            nodes[v] = leaf(nid, map(value, u[:, j]), map(value, phi[:, j]))
        elif owner >= 0:
            nodes[v] = branch(nid, owner, zip(tree.labels[v], kids))
        else:
            nodes[v] = chance(nid, zip(map(value, tree.labels[v]), kids))
    return nodes[0]


# every column of a GameTree but the matrices
COLUMNS = ("players", "ids", "owner", "labels", "kids", "leaf_index", "positions")


def assert_same_columns(got, want):
    """Every column of `got` equals `want`'s; positions in the same order,
    and u and phi read-only float64 arrays of the same shape and bytes."""
    for name in COLUMNS:
        assert getattr(got, name) == getattr(want, name), name
    assert list(got.positions.items()) == list(want.positions.items())
    for name in ("u", "phi"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes() and not a.flags.writeable, name
    assert got == want and hash(got) == hash(want)


def random_instance(rng, n_players=2, num_symbols=3, max_nodes=12, allow_chance=True):
    tree = random_tree(rng, n_players, num_symbols, max_nodes, allow_chance)
    alphabet = tuple(f"s{k}" for k in range(num_symbols))
    info = InfoStructure.from_tree(tree, alphabet)
    return tree, info, random_profile(rng, tree)


def solvable_instance(rng, n_players=2, max_nodes=10, allow_chance=True):
    """Instance whose synthesis always has solutions: one private symbol
    per leaf keeps the emission matrix square and invertible, so any
    implemented-utility target is reachable."""
    tree = random_tree(rng, n_players, num_symbols=1, max_nodes=max_nodes,
                       allow_chance=allow_chance)
    m = tree.m
    phi = np.eye(m)
    tree2 = GameTree(tree.players, nested(tree, phi))
    alphabet = tuple(f"s{k}" for k in range(m))
    info = InfoStructure.from_tree(tree2, alphabet)
    return tree2, info, random_profile(rng, tree2)


# --------------------------------------------- constraint-row oracle

def _subtree_branches(tree, root_id):
    out = []
    stack = [tree.position(root_id)]
    while stack:
        v = stack.pop()
        if tree.owner[v] >= 0:
            out.append(v)
        stack.extend(tree.kids[v])
    return out


def _reached(tree, root_id, moves, profile):
    found = set()
    stack = [tree.position(root_id)]
    while stack:
        v = stack.pop()
        nid, labels = tree.ids[v], tree.labels[v]
        if tree.leaf_index[v] >= 0:
            found.add(tree.leaf_index[v])
        elif tree.owner[v] >= 0:
            stack.append(tree.kids[v][labels.index(moves.get(nid, profile[nid]))])
        else:
            stack.extend(c for p, c in zip(labels, tree.kids[v]) if p > 0)
    return found


def oracle_rows(tree, profile, delta, t):
    """All distinct (coefficients, rhs) deviation rows, found by brute
    force over every pure strategy of every coalition in every subgame."""
    n, m = tree.n, tree.m
    rows = set()
    for root_id in tree.ids:
        w, _ = honest_outcome(tree, root_id, profile)
        # every leaf on-profile play reaches, even at a weight that
        # underflows to 0.0
        support = _reached(tree, root_id, {}, profile)
        for size in range(1, t + 1):
            for coalition in combinations(range(n), size):
                owned = [b for b in _subtree_branches(tree, root_id)
                         if tree.owner[b] in coalition]
                induced = set()
                for choice in product(*(tree.labels[b] for b in owned)):
                    moves = {tree.ids[b]: mv for b, mv in zip(owned, choice)}
                    induced |= _reached(tree, root_id, moves, profile)
                for i in coalition:
                    base = i * m
                    for j in sorted(induced - support):
                        vec = np.zeros(n * m)
                        for a in support:
                            vec[base + a] += w[a]
                        vec[base + j] -= 1.0
                        rows.add((tuple(vec), float(delta)))
    return rows


def system_rows(system):
    return {(tuple(row), system.delta) for row in system.a}


# --------------------------------------------------- LP vertex oracle

def random_lp(rng):
    """Small integer LP over free variables; roughly a third carry one
    equality row.  Shapes and magnitudes keep the vertex oracle exact."""
    from paymech import LinearProgram

    d = int(rng.integers(1, 4))
    p = int(rng.integers(0, 5))
    c = rng.integers(-4, 5, size=d).astype(float)
    g = h = a_eq = b_eq = None
    if p:
        g = rng.integers(-4, 5, size=(p, d)).astype(float)
        h = rng.integers(-8, 9, size=p).astype(float)
    if rng.random() < 0.3:
        row = rng.integers(-4, 5, size=d).astype(float)
        while not row.any():
            row = rng.integers(-4, 5, size=d).astype(float)
        a_eq = row.reshape(1, d)
        b_eq = rng.integers(-8, 9, size=1).astype(float)
    return LinearProgram(c=c, g=g, h=h, a_eq=a_eq, b_eq=b_eq)


def _vertex_optimum(c, g, h, a_eq, b_eq, box):
    d = len(c)
    blocks = [np.eye(d), -np.eye(d)]
    bounds = [np.full(d, -box), np.full(d, -box)]
    if g is not None and len(g):
        blocks.insert(0, np.asarray(g, dtype=float))
        bounds.insert(0, np.asarray(h, dtype=float))
    gg = np.vstack(blocks)
    hh = np.concatenate(bounds)
    if a_eq is not None and len(a_eq):
        aa = np.asarray(a_eq, dtype=float)
        bb = np.asarray(b_eq, dtype=float)
    else:
        aa = np.zeros((0, d))
        bb = np.zeros(0)
    q = aa.shape[0]
    best = None
    best_x = None
    for combo in combinations(range(gg.shape[0]), d - q):
        mat = np.vstack([aa, gg[list(combo)]])
        if abs(np.linalg.det(mat)) < 1e-9:
            continue
        x = np.linalg.solve(mat, np.concatenate([bb, hh[list(combo)]]))
        if np.all(gg @ x >= hh - FEAS_TOL) and (q == 0 or np.all(np.abs(aa @ x - bb) <= FEAS_TOL)):
            val = float(np.asarray(c) @ x)
            if best is None or val < best:
                best = val
                best_x = x
    return best, best_x


def lp_oracle(c, g=None, h=None, a_eq=None, b_eq=None):
    """Classify a small LP by vertex enumeration in two nested boxes.

    Returns (status, value): a finite optimum that does not move when
    the box doubles is 'optimal'; a moving or box-supported optimum is
    'unbounded'; no feasible vertex is 'infeasible'.  Assumes, as the
    generators here guarantee, that a nonempty feasible set meets the
    smaller box.
    """
    v1, _ = _vertex_optimum(c, g, h, a_eq, b_eq, 1e5)
    if v1 is None:
        return "infeasible", None
    v2, _ = _vertex_optimum(c, g, h, a_eq, b_eq, 2e5)
    if v2 is not None and abs(v2 - v1) <= 1e-6 * (1.0 + abs(v1)):
        return "optimal", v1
    return "unbounded", None
