"""Reference answers computed from the generator's own trees.

Nothing here imports paymech: each answer the command line prints is
checked against a separate, non-recursive computation over `gen.Tree`.
The constraint enumeration follows the order documented in
`paymech.security` (preorder subgames, then coalition size, coalition,
member and leaf), with duplicates dropped by coefficient pattern, so
counts and the first-occurrence metadata of every row can be compared
exactly.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from gen import BRANCH, CHANCE, LEAF, Tree


def leaf_index(tree: Tree) -> dict[int, int]:
    return {k: j for j, k in enumerate(tree.leaf_order())}


def honest_weights(tree: Tree, root: int, profile, index) -> dict[int, float]:
    """Leaf weights of on-profile play from `root`; `index` is `leaf_index(tree)`.

    Probabilities are multiplied top-down starting from 1.0, the same
    order the package uses, so equal patterns compare equal as floats.
    """
    out: dict[int, float] = {}
    stack = [(root, 1.0)]
    while stack:
        k, p = stack.pop()
        kind = tree.kind[k]
        if kind == LEAF:
            out[index[k]] = out.get(index[k], 0.0) + p
        elif kind == BRANCH:
            stack.append((tree.move_child(k, profile[tree.node_id(k)]), p))
        else:
            for q, c in zip(tree.probs[k], tree.children[k]):
                if q > 0:
                    stack.append((c, p * q))
    return out


def implemented(tree: Tree, lam) -> np.ndarray:
    """E = U - Lambda Phi, shape (n, m)."""
    leaves = tree.leaf_order()
    u = np.array([tree.utilities[k] for k in leaves]).T
    phi = np.array([tree.emission[k] for k in leaves]).T
    return u - np.asarray(lam, dtype=np.float64) @ phi


def expected_implemented(tree: Tree, lam, profile) -> np.ndarray:
    e = implemented(tree, lam)
    w = honest_weights(tree, 0, profile, leaf_index(tree))
    return sum(p * e[:, j] for j, p in w.items())


def expected_utilities(tree: Tree, profile) -> np.ndarray:
    leaves = tree.leaf_order()
    w = honest_weights(tree, 0, profile, leaf_index(tree))
    return sum(p * np.asarray(tree.utilities[leaves[j]]) for j, p in w.items())


def _reach(tree: Tree, coalition, profile, index) -> list[frozenset]:
    """Leaves each subgame's coalition can reach, computed bottom-up."""
    members = set(coalition)
    reach: list = [None] * tree.size
    for k in tree.postorder():
        kind = tree.kind[k]
        if kind == LEAF:
            reach[k] = frozenset((index[k],))
        elif kind == BRANCH and tree.owner[k] not in members:
            reach[k] = reach[tree.move_child(k, profile[tree.node_id(k)])]
        else:
            kids = tree.children[k]
            if kind == CHANCE:
                kids = [c for q, c in zip(tree.probs[k], kids) if q > 0]
            reach[k] = frozenset().union(*(reach[c] for c in kids))
    return reach


def constraint_rows(tree: Tree, profile, t: int):
    """Deduplicated rows as (subgame id, coalition, member, leaf, weights)."""
    index = leaf_index(tree)
    coalitions = [c for size in range(1, t + 1) for c in combinations(range(tree.n), size)]
    reach = {c: _reach(tree, c, profile, index) for c in coalitions}
    seen = set()
    rows = []
    for k in range(tree.size):  # node numbers are preorder
        w = honest_weights(tree, k, profile, index)
        support = tuple(sorted((a, p) for a, p in w.items() if p > 0))
        support_set = {a for a, _ in support}
        for c in coalitions:
            targets = sorted(reach[c][k] - support_set)
            for i in c:
                for j in targets:
                    key = (i, support, j)
                    if key in seen:
                        continue
                    seen.add(key)
                    rows.append((tree.node_id(k), c, i, j, support))
    return rows


def verify_answer(tree: Tree, lam, profile, delta: float, t: int) -> dict:
    """What `paymech verify` should print, with unrounded slacks."""
    e = implemented(tree, lam)
    rows = constraint_rows(tree, profile, t)
    slacks = [sum(p * e[i, a] for a, p in support) - e[i, j] - delta
              for _, _, i, j, support in rows]
    violations = [(sub, list(c), i, j, s)
                  for (sub, c, i, j, _), s in zip(rows, slacks) if s < -1e-9]
    return {
        "passed": not violations,
        "num_constraints": len(rows),
        "num_violations": len(violations),
        "min_slack": min(slacks) if slacks else None,
        "violations": violations,
        "scale": float(np.abs(e).max()) + delta,
    }


def close(a: float, b: float, scale: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(scale))


def program(tree: Tree, delta: float, t: int, costs=None, minmax: bool = True):
    """The synthesis program as (c, g, h): minimize c.x subject to g x >= h.

    x is the payment matrix flattened row-major over (player, symbol),
    followed by the largest entry z under the min-max objective.  Each
    security row reads w . (u_i - Phi^T lambda_i) >= delta, where w puts the
    honest weights on the supported leaves and -1 on the deviation leaf;
    self-containment asks every column sum of lambda to be >= 0, and the
    min-max rows ask z >= lambda_r.  Payments whose cost is +inf are pinned
    to zero under either objective, so their columns are dropped.
    """
    leaves = tree.leaf_order()
    u = np.array([tree.utilities[k] for k in leaves]).T
    phi = np.array([tree.emission[k] for k in leaves]).T
    n, s = u.shape[0], phi.shape[0]
    nv = n * s + minmax
    rows = constraint_rows(tree, tree.intended, t)
    keep = np.ones(nv, dtype=bool)
    if costs is not None:
        cost = np.asarray(costs, dtype=np.float64).ravel()
        keep[:n * s] = ~np.isinf(cost)
    g = np.zeros((len(rows) + s + (n * s if minmax else 0), nv))
    h = np.zeros(g.shape[0])
    for r, (_, _, i, j, support) in enumerate(rows):
        w = np.zeros(u.shape[1])
        for a, p in support:
            w[a] = p
        w[j] -= 1.0
        g[r, i * s:(i + 1) * s] = -(phi @ w)
        h[r] = delta - float(w @ u[i])
    for k in range(s):
        g[len(rows) + k, k:n * s:s] = 1.0
    if minmax:
        cap = np.arange(n * s)
        g[len(rows) + s + cap, cap] = -1.0
        g[len(rows) + s:, -1] = 1.0
        c = np.zeros(nv)
        c[-1] = 1.0
    else:
        c = cost
    return c[keep], g[:, keep], h


def _revised_simplex(a, b, cost, basis, bland_after=50):
    """Minimize cost.y subject to a y = b, y >= 0, from a feasible basis.

    Revised simplex that solves with the basis matrix afresh at every
    step: Dantzig's entering rule, switching to Bland's rule after
    `bland_after` degenerate steps in a row, so it cannot cycle.  Returns
    ("optimal", basis, y_B, multipliers) or ("unbounded", basis, ray, q),
    where the ray is the direction of the basic variables as y_q grows.
    """
    k, cols = a.shape
    cost_tol = 1e-10 * (1.0 + np.abs(cost).max())
    degenerate = 0
    for _ in range(50 * (k + cols) + 1000):
        mat = a[:, basis]
        y_b = np.maximum(np.linalg.solve(mat, b), 0.0)
        pi = np.linalg.solve(mat.T, cost[basis])
        reduced = cost - pi @ a
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -cost_tol)
        if not entering.size:
            return "optimal", basis, y_b, pi
        bland = degenerate >= bland_after
        q = int(entering[0] if bland else entering[np.argmin(reduced[entering])])
        d = np.linalg.solve(mat, a[:, q])
        eligible = np.flatnonzero(d > 1e-9 * (1.0 + np.abs(d).max()))
        if not eligible.size:
            return "unbounded", basis, -d, q
        ratios = y_b[eligible] / d[eligible]
        theta = ratios.min()
        ties = eligible[ratios <= theta + 1e-12 * (1.0 + theta)]
        if bland:
            leave = min(ties, key=lambda r: basis[r])
        else:
            leave = ties[np.argmax(d[ties])]
        degenerate = degenerate + 1 if theta <= 1e-12 else 0
        basis[leave] = q
    raise RuntimeError("reference simplex did not terminate")


def solve_program(c, g, h):
    """('optimal', value) or ('infeasible', None) for min c.x s.t. g x >= h.

    Works on the dual, max h.y s.t. g^T y = c, y >= 0: one equation per
    primal variable, so the basis stays small however many constraint
    rows there are.  The primal solution is read from the optimal
    basis's multipliers, and every answer is returned only with a
    certificate that holds up to rounding: a primal point and a dual
    point of equal value, or a ray y >= 0 with g^T y = 0 and h.y > 0,
    which no x can satisfy (Farkas).  An infeasible dual would leave the
    primal unbounded or infeasible; it cannot happen under the min-max
    objective (z >= 0 follows from the rows) nor for a cost in the cone
    of the rows, as the LP gadget draws it, and raises an error.
    """
    k, m = g.shape[1], g.shape[0]
    a, b = g.T.copy(), np.asarray(c, dtype=np.float64).copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    # phase one: artificials on every equation
    a1 = np.hstack([a, np.eye(k)])
    cost1 = np.concatenate([np.zeros(m), np.ones(k)])
    _, basis, y_b, _ = _revised_simplex(a1, b, cost1, list(range(m, m + k)))
    if y_b @ cost1[basis] > 1e-9 * (1.0 + np.abs(b).max()):
        raise RuntimeError("reference program's dual is infeasible")
    # drive the artificials, all at zero, out of the basis; drop the
    # equations that no real column can take over (they are redundant)
    rows = list(range(k))
    for r in range(k - 1, -1, -1):
        if basis[r] < m:
            continue
        line = np.linalg.solve(a1[np.ix_(rows, basis)].T, np.eye(len(rows))[r]) @ a1[rows, :m]
        cand = np.flatnonzero(np.abs(line) > 1e-9 * (1.0 + np.abs(line).max()))
        if cand.size:
            basis[r] = int(cand[np.argmax(np.abs(line[cand]))])
        else:
            del rows[r], basis[r]
    a, b = a[rows], b[rows]
    status, basis, y_b, extra = _revised_simplex(a, b, -h, basis)
    tol = 1e-7 * (1.0 + np.abs(h).max() + np.abs(c).max())
    if status == "unbounded":
        ray = np.zeros(m)
        ray[basis] = y_b  # how the basic variables move as y_q grows
        ray[extra] = 1.0
        if ray.min() < -tol or np.abs(g.T @ ray).max() > tol * ray.max() or h @ ray <= 0:
            raise RuntimeError("reference infeasibility certificate does not hold")
        return "infeasible", None
    y = np.zeros(m)
    y[basis] = y_b
    x = np.zeros(k)
    x[rows] = -extra
    x = np.where(flip, -x, x)
    value = float(np.asarray(c) @ x)
    if ((g @ x - h).min() < -tol or np.abs(g.T @ y - c).max() > tol
            or abs(value - h @ y) > tol):
        raise RuntimeError("reference optimality certificate does not hold")
    return "optimal", value


def lp_answer(tree: Tree, delta: float, t: int, costs=None, minmax: bool = True):
    """('optimal', value) or ('infeasible', None) for the synthesis program,
    under the min-max objective or the cost objective."""
    return solve_program(*program(tree, delta, t, costs, minmax))
