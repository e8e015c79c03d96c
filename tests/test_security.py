"""Constraint generation, verification, and the block form of the rows."""

import dataclasses
import io
import json
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from paymech import (
    BadParameters,
    ConstraintRow,
    DimensionMismatch,
    GameTree,
    InfoStructure,
    PaymentScheme,
    PvcParams,
    SecurityParams,
    backward_induction,
    branch,
    build_constraints,
    build_pvc,
    chance,
    check_profile,
    dumps_canonical,
    game_to_doc,
    inducible_leaves,
    leaf,
    parse_game_doc,
    run_episode,
    scheme_to_doc,
    synthesize,
    verify,
)
from paymech.cli import dispatch
from paymech.security import SLACK_TOL

from .helpers import oracle_rows, random_instance, system_rows


def test_security_params_validation():
    with pytest.raises(BadParameters):
        SecurityParams(delta=-1.0)
    with pytest.raises(BadParameters):
        SecurityParams(delta=np.inf)
    with pytest.raises(BadParameters):
        SecurityParams(delta=0.0, t=0)
    for delta in ("1", None, True, np.bool_(False), 1j, np.complex128(1), np.nan, -np.inf):
        with pytest.raises(BadParameters, match="delta must be"):
            SecurityParams(delta=delta)
    assert SecurityParams(delta=np.float32(0.5)).delta == 0.5
    assert SecurityParams(delta=np.int64(2)).delta == 2
    for t in (1.5, 2.0, True, False, "2", None):
        with pytest.raises(BadParameters, match="coalition bound t"):
            SecurityParams(delta=0.0, t=t)
    assert SecurityParams(delta=0.0).t == 1
    assert SecurityParams(delta=0.0, t=np.int64(2)).t == 2


def test_commerce_constraints_are_the_known_three(commerce):
    system = build_constraints(commerce.tree, commerce.profile, SecurityParams(delta=100.0))
    assert system.alpha == 3
    assert [(r.deviator, r.leaf) for r in system.rows] == [(0, 2), (1, 1), (0, 0)]
    # every gap under the closed-form scheme is exactly x
    u = commerce.tree.u
    e = u - commerce.scheme.matrix @ commerce.info.phi
    np.testing.assert_allclose(system.a @ e.ravel(), [100.0, 100.0, 100.0], atol=1e-9)


def test_inducible_leaves_hand_cases(commerce):
    # buyer alone, from the root: seller stays on "send"
    got = inducible_leaves(commerce.tree, "root", [0], commerce.profile)
    assert got == frozenset({2, 3})
    # seller alone can steer to either subtree but not buyer's choices
    got = inducible_leaves(commerce.tree, "root", [1], commerce.profile)
    assert got == frozenset({1, 3})
    # the grand coalition reaches everything
    got = inducible_leaves(commerce.tree, "root", [0, 1], commerce.profile)
    assert got == frozenset({0, 1, 2, 3})
    with pytest.raises(BadParameters):
        inducible_leaves(commerce.tree, "root", [5], commerce.profile)


def test_rows_match_bruteforce_enumeration():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, min(n, 2) + 1))
        tree, info, profile = random_instance(rng, n_players=n)
        system = build_constraints(tree, profile, SecurityParams(delta=0.5, t=t))
        assert system_rows(system) == oracle_rows(tree, profile, 0.5, t)


# Leaf B's on-profile weight 1e-200 * 1e-200 underflows to 0.0, but play
# reaches it without leaving the profile, so it is no deviation: the rows
# are player 0's move to D, for player 0 and, at t = 2, for player 1.
UNDERFLOW = {
    "players": ["P", "Q"], "alphabet": ["x", "y"], "intended": {"r": "go"},
    "tree": {"branch": {"id": "r", "owner": 0, "children": {
        "go": {"chance": {"id": "c1", "children": [
            {"p": 1e-200, "node": {"chance": {"id": "c2", "children": [
                {"p": 1e-200, "node": {"leaf": {"id": "B", "utilities": [5, 0],
                                                "emission": [1, 0]}}},
                {"p": 1, "node": {"leaf": {"id": "C", "utilities": [1, 0],
                                           "emission": [1, 0]}}},
            ]}}},
            {"p": 1, "node": {"leaf": {"id": "A", "utilities": [1, 0], "emission": [1, 0]}}},
        ]}},
        "out": {"leaf": {"id": "D", "utilities": [0, 0], "emission": [0, 1]}},
    }}},
}


def test_a_leaf_on_the_play_is_no_deviation_even_at_zero_weight(tmp_path):
    game = parse_game_doc(UNDERFLOW)
    expected = {1: [("r", (0,), 0, 3)], 2: [("r", (0,), 0, 3), ("r", (0, 1), 1, 3)]}
    game_path, scheme_path = tmp_path / "game.json", tmp_path / "scheme.json"
    game_path.write_text(json.dumps(UNDERFLOW))

    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        code = dispatch([str(a) for a in argv], stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    for t, rows in expected.items():
        system = build_constraints(game.tree, game.profile, SecurityParams(delta=1.0, t=t))
        assert list(system.rows) == [ConstraintRow(*row) for row in rows]
        assert system_rows(system) == oracle_rows(game.tree, game.profile, 1.0, t)
        code, _, err = run("synth", game_path, "--delta", 1, "--t", t, "-o", scheme_path)
        assert (code, err) == (0, "")
        if t == 1:
            assert json.loads(scheme_path.read_text())["lambda"] == [[0, 0], [0, 0]]
        code, out, err = run("verify", game_path, scheme_path, "--delta", 1, "--t", t)
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert report["passed"] and report["num_constraints"] == len(rows)
        assert report["min_slack"] == 0


def test_rows_do_not_depend_on_delta():
    # delta is only the rows' right-hand side, which `deposit_lower_bound`
    # relies on when it builds once at delta = 0 for every delta
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        tree, _, profile = random_instance(rng, n_players=n, max_nodes=20)
        for t in range(1, n + 1):
            zero = build_constraints(tree, profile, SecurityParams(delta=0.0, t=t))
            other = build_constraints(tree, profile, SecurityParams(delta=1.5, t=t))
            differ = []
            for field in dataclasses.fields(zero):
                a, b = getattr(zero, field.name), getattr(other, field.name)
                if isinstance(a, np.ndarray):
                    same = a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                else:
                    same = a is b or a == b
                if not same:
                    differ.append(field.name)
            assert differ == ["delta"]
            assert (zero.delta, other.delta) == (0.0, 1.5)


def test_rows_are_deduplicated():
    rng = np.random.default_rng(29)
    for _ in range(20):
        tree, info, profile = random_instance(rng)
        system = build_constraints(tree, profile, SecurityParams(delta=1.0, t=2))
        keys = {tuple(row) for row in system.a}
        assert len(keys) == system.alpha


def test_verify_accepts_backward_induction_profile_without_chance():
    # at delta=0 and zero payments, the induction profile satisfies every
    # single-player constraint on chance-free trees
    rng = np.random.default_rng(31)
    for _ in range(25):
        tree, info, _ = random_instance(rng, allow_chance=False)
        profile = backward_induction(tree)
        zero = PaymentScheme(np.zeros((tree.n, info.s)))
        report = verify(tree, info, zero, profile, SecurityParams(delta=0.0))
        assert report.passed, report.violations


def test_verify_reports_violations_with_slack(commerce):
    zero = PaymentScheme(np.zeros((2, 3)))
    report = verify(commerce.tree, commerce.info, zero, commerce.profile,
                    SecurityParams(delta=0.0))
    assert not report.passed
    assert report.min_slack == pytest.approx(-100.0)
    # the buyer's profitable deviation: reject after send, pocketing the item
    assert any(r.deviator == 0 and r.leaf == 2 and s == pytest.approx(-100.0)
               for r, s in report.violations)


def test_verify_slack_tolerance_is_tight(commerce):
    report = verify(commerce.tree, commerce.info, commerce.scheme, commerce.profile,
                    SecurityParams(delta=100.0))
    assert report.passed and report.min_slack == pytest.approx(0.0, abs=1e-9)
    report2 = verify(commerce.tree, commerce.info, commerce.scheme, commerce.profile,
                     SecurityParams(delta=100.001))
    assert not report2.passed


def test_shape_faults_rejected(commerce, tmp_path):
    system = build_constraints(commerce.tree, commerce.profile, SecurityParams(delta=1.0))
    with pytest.raises(DimensionMismatch, match=r"expected a 2x4 matrix, got \(2, 3\)"):
        system.dot(np.zeros((2, 3)))
    # an info structure over 5 leaves on the 4-leaf tree: verify says what
    # synthesize and the escrow say
    wide = InfoStructure(commerce.info.alphabet, np.eye(3)[[0, 1, 2, 0, 0]].T)
    params = SecurityParams(delta=1.0)
    for call in (lambda: verify(commerce.tree, wide, commerce.scheme, commerce.profile, params),
                 lambda: synthesize(commerce.tree, wide, commerce.profile, params),
                 lambda: run_episode(commerce.tree, wide, commerce.scheme, commerce.profile, 0)):
        with pytest.raises(DimensionMismatch) as err:
            call()
        assert str(err.value) == "info structure has 5 leaf columns, tree has 4"
    # a 1-row scheme for the 2 players: the library and the CLI say so in
    # the same words, whether they verify or play the scheme
    short = PaymentScheme(commerce.scheme.matrix[:1])
    message = "scheme is 1x3, expected 2x3"
    for call in (lambda: verify(commerce.tree, commerce.info, short, commerce.profile, params),
                 lambda: run_episode(commerce.tree, commerce.info, short, commerce.profile, 0)):
        with pytest.raises(DimensionMismatch) as err:
            call()
        assert str(err.value) == message
    game_path, scheme_path = tmp_path / "game.json", tmp_path / "scheme.json"
    alphabet = commerce.info.alphabet
    game_path.write_text(dumps_canonical(game_to_doc(commerce.tree, alphabet, commerce.profile)))
    scheme_path.write_text(dumps_canonical(scheme_to_doc(alphabet, short)))
    for argv in (["verify", game_path, scheme_path, "--delta", "1"],
                 ["simulate", game_path, scheme_path]):
        out, err = io.StringIO(), io.StringIO()
        code = dispatch([str(a) for a in argv], stdout=out, stderr=err)
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")


def test_block_rows_match_the_dense_matrix():
    # the kron lifting of the dense rows is the reference for lift
    rng = np.random.default_rng(37)

    def check(tree, info, profile, t):
        n = tree.n
        system = build_constraints(tree, profile, SecurityParams(delta=0.5, t=t))
        a, lifted = system.a, system.lift(info.phi)
        assert a.shape == (system.alpha, n * tree.m)
        assert lifted.shape == (system.alpha, n * info.s)
        np.testing.assert_allclose(lifted, a @ np.kron(np.eye(n), info.phi.T), atol=1e-12)
        x = rng.normal(size=(n, tree.m))
        np.testing.assert_allclose(system.dot(x), a @ x.ravel(), atol=1e-12)

    for trial in range(30):
        n = 3 if trial % 3 == 0 else 2
        tree, info, profile = random_instance(
            rng, n_players=n, num_symbols=int(rng.integers(2, 5)), max_nodes=16
        )
        check(tree, info, profile, 2 if n == 3 else 1)
    # a game without branches has no rows
    lone = GameTree(("A",), leaf("x", (1.0,), (1.0,)))
    check(lone, InfoStructure.from_tree(lone, ("s",)), {}, 1)


def test_coalitions_only_add_constraints():
    rng = np.random.default_rng(41)
    for _ in range(15):
        tree, info, profile = random_instance(rng, n_players=3)
        single = build_constraints(tree, profile, SecurityParams(delta=1.0, t=1))
        pairs = build_constraints(tree, profile, SecurityParams(delta=1.0, t=2))
        assert system_rows(single) <= system_rows(pairs)


def _reference_rows(tree, profile, t):
    """The rows as one `tree.reach` per subgame per coalition finds them,
    deduplicated on (player, support id, leaf): the metadata, and the
    dense matrix as (row, column, value) triplets."""
    n, m = tree.n, tree.m
    chosen = check_profile(tree, profile)
    coalitions = [c for size in range(1, t + 1) for c in combinations(range(n), size)]
    supports, seen, rows, triplets = {}, set(), [], []
    for v in range(len(tree.ids)):
        honest = [(j, p) for j, p in tree.reach(v, chosen) if p > 0]
        support = tuple(j for j, _ in honest)
        sid = supports.setdefault((support, tuple(p for _, p in honest)), len(supports))
        for coalition in coalitions:
            reachable = {j for j, _ in tree.reach(v, chosen, coalition)}
            for i in coalition:
                for j in sorted(reachable.difference(support)):
                    if (i, sid, j) in seen:
                        continue
                    seen.add((i, sid, j))
                    r = len(rows)
                    rows.append(ConstraintRow(tree.ids[v], coalition, i, j))
                    triplets += [(r, i * m + a, p) for a, p in honest] + [(r, i * m + j, -1.0)]
    return rows, triplets


def _chain(depth):
    # level d: branch b{d} of player d % 2 either stops at leaf s{d} or goes on
    node = leaf("end", (0.0, 0.0), (0.5, 0.5))
    for d in reversed(range(depth)):
        stop = leaf(f"s{d}", (1.0 + d % 3, 2.0 - d % 5), (1.0, 0.0))
        node = branch(f"b{d}", d % 2, [("stop", stop), ("go", node)])
    return GameTree(("A", "B"), node)


def _two_step():
    # leaf z is reached from the root only if players 0 and 1 both leave
    # the profile
    def end(name):
        return leaf(name, (1.0, 2.0, 3.0), (1.0,))

    tree = GameTree(("A", "B", "C"), branch("r", 0, [
        ("a", end("x")), ("b", branch("s", 1, [("c", end("y")), ("d", end("z"))])),
    ]))
    return tree, {"r": "a", "s": "c"}


def test_row_order_and_metadata_match_the_per_subgame_walk():
    # verify prints violations in row order, so the order is output
    cases = []
    rng = np.random.default_rng(43)
    for trial in range(40):
        n, t = (3, 2) if trial % 2 else (2, 1)
        tree, _, profile = random_instance(rng, n_players=n, max_nodes=20)
        cases.append((tree, profile, t))
    # coalitions of three and more players, up to the grand coalition
    for n in (4, 4, 5, 5):
        tree, _, profile = random_instance(rng, n_players=n, max_nodes=20)
        cases += [(tree, profile, t) for t in range(1, n + 1)]
    # |S| = t for leaf z at t = 2, and t = n
    two_step, profile = _two_step()
    cases += [(two_step, profile, 2), (two_step, profile, 3)]
    # a chance node whose only positive-probability child has p = 1, and
    # zero-probability children whose subtrees hold branches
    hand = GameTree(("A", "B"), branch("r", 0, [
        ("a", chance("c1", [
            (0.0, leaf("z", (9.0, 9.0), (1.0,))),
            (1.0, branch("b1", 1, [("x", leaf("l1", (1.0, 2.0), (1.0,))),
                                   ("y", leaf("l2", (3.0, 0.0), (1.0,)))])),
        ])),
        ("b", chance("c2", [
            (0.0, branch("b2", 1, [("x", leaf("l3", (0.0, 5.0), (1.0,))),
                                   ("y", leaf("l4", (4.0, 1.0), (1.0,)))])),
            (0.25, leaf("l5", (2.0, 2.0), (1.0,))),
            (0.75, branch("b3", 0, [("x", leaf("l6", (6.0, 0.0), (1.0,))),
                                    ("y", leaf("l7", (0.0, 6.0), (1.0,)))])),
        ])),
    ]))
    for moves in product("ab", "xy", "xy", "xy"):
        profile = dict(zip(("r", "b1", "b2", "b3"), moves))
        cases += [(hand, profile, 1), (hand, profile, 2)]
    # a p = 1 chance node over a subgame whose play meets a second chance
    # node: the two heads must share one outcome id, or rows repeat
    nested = GameTree(("A", "B"), branch("r", 0, [
        ("a", chance("c1", [
            (0.0, leaf("z", (9.0, 9.0), (1.0,))),
            (1.0, branch("b", 1, [
                ("x", chance("c2", [
                    (0.5, leaf("l1", (1.0, 2.0), (1.0,))),
                    (0.5, branch("d", 0, [("u", leaf("l2", (3.0, 0.0), (1.0,))),
                                          ("v", leaf("l3", (0.0, 5.0), (1.0,)))])),
                ])),
                ("y", leaf("l4", (4.0, 1.0), (1.0,))),
            ])),
        ])),
        ("b", leaf("l5", (2.0, 2.0), (1.0,))),
    ]))
    for moves in product("ab", "xy", "uv"):
        profile = dict(zip(("r", "b", "d"), moves))
        cases += [(nested, profile, 1), (nested, profile, 2)]
    # a p = 1 chance node (c1) is followed like a chosen move: its play
    # meets the head c7, which comes after a second head, c3, in preorder,
    # and the zero-probability child c0 heads a subtree of its own
    follow = GameTree(("A", "B"), branch("r", 0, [
        ("a", chance("c1", [
            (1.0, branch("b2", 1, [
                ("x", chance("c3", [(0.5, leaf("l1", (1.0, 2.0), (1.0,))),
                                    (0.5, leaf("l2", (3.0, 0.0), (1.0,)))])),
                ("y", chance("c7", [
                    (0.25, leaf("l3", (0.0, 5.0), (1.0,))),
                    (0.75, branch("d", 0, [("u", leaf("l4", (4.0, 1.0), (1.0,))),
                                           ("v", leaf("l5", (2.0, 2.0), (1.0,)))])),
                ])),
            ])),
            (0.0, chance("c0", [(0.5, leaf("l6", (6.0, 0.0), (1.0,))),
                                (0.5, leaf("l7", (0.0, 6.0), (1.0,)))])),
        ])),
        ("b", leaf("l8", (1.0, 1.0), (1.0,))),
    ]))
    for moves in product("ab", "xy", "uv"):
        profile = dict(zip(("r", "b2", "d"), moves))
        cases += [(follow, profile, 1), (follow, profile, 2)]
    chain = _chain(1500)
    cases.append((chain, backward_induction(chain), 1))
    cases.append((chain, {f"b{d}": "stop" if d % 7 == 3 else "go" for d in range(1500)}, 1))
    for tree, profile, t in cases:
        system = build_constraints(tree, profile, SecurityParams(delta=0.5, t=t))
        rows, triplets = _reference_rows(tree, profile, t)
        # violations build their rows apart from the cached `rows`
        report = system.check(rng.normal(size=(tree.n, tree.m)))
        assert list(report.violations) == [
            (rows[r], s) for r, s in enumerate(report.slacks) if s < -SLACK_TOL
        ]
        assert list(system.rows) == rows
        np.testing.assert_array_equal(system.player, [row.deviator for row in rows])
        assert system.delta == 0.5
        a = system.a
        r, c, value = (np.array(col) for col in zip(*triplets)) if triplets else ([], [], [])
        assert a.shape == (len(rows), tree.n * tree.m) and np.count_nonzero(a) == len(triplets)
        assert np.array_equal(a[r, c], value)
    # u's p = 1 child b holds every leaf of positive weight: its sibling's
    # leaves get 5e-324 * 0.5, which underflows to 0, so u is sure and b's
    # subgame does not repeat the root's rows under an outcome id of its
    # own.  The walk above counts the on-play leaves l4 and l5 as reached,
    # so these rows are pinned, and checked against the brute-force oracle.
    tiny = GameTree(("A", "B"), branch("r", 0, [
        ("go", chance("u", [
            (1.0, branch("b", 1, [
                ("a", chance("h", [(0.5, leaf("l1", (1.0, 2.0), (1.0,))),
                                   (0.5, leaf("l2", (2.0, 1.0), (1.0,)))])),
                ("z", leaf("l3", (0.0, 5.0), (1.0,))),
            ])),
            (5e-324, chance("d", [(0.5, leaf("l4", (9.0, 9.0), (1.0,))),
                                  (0.5, leaf("l5", (9.0, 9.0), (1.0,)))])),
        ])),
        ("out", leaf("l6", (0.0, 0.0), (1.0,))),
    ]))
    profile = {"r": "go", "b": "a"}
    expected = {1: [("r", (0,), 0, 5), ("r", (1,), 1, 2)],
                2: [("r", (0,), 0, 5), ("r", (1,), 1, 2), ("r", (0, 1), 0, 2), ("r", (0, 1), 1, 5)]}
    for t, rows in expected.items():
        system = build_constraints(tiny, profile, SecurityParams(delta=0.5, t=t))
        assert list(system.rows) == [ConstraintRow(*row) for row in rows]
        assert system.outcome.tolist() == [6] * len(rows)
        assert system_rows(system) == oracle_rows(tiny, profile, 0.5, t)


def test_coalitions_are_the_used_ones_and_the_smallest_that_force_each_row():
    two_step, profile = _two_step()
    expected = {
        2: [("r", (0,), 0, 1), ("r", (0, 1), 0, 2), ("r", (0, 1), 1, 1), ("r", (0, 1), 1, 2),
            ("r", (0, 2), 2, 1), ("s", (1,), 1, 2), ("s", (0, 1), 0, 2), ("s", (1, 2), 2, 2)],
        3: [("r", (0,), 0, 1), ("r", (0, 1), 0, 2), ("r", (0, 1), 1, 1), ("r", (0, 1), 1, 2),
            ("r", (0, 2), 2, 1), ("r", (0, 1, 2), 2, 2), ("s", (1,), 1, 2), ("s", (0, 1), 0, 2),
            ("s", (1, 2), 2, 2)],
    }
    for t, rows in expected.items():
        system = build_constraints(two_step, profile, SecurityParams(delta=1.0, t=t))
        assert list(system.rows) == [ConstraintRow(*row) for row in rows]
    cases = [(two_step, profile, t) for t in (1, 2, 3)]
    rng = np.random.default_rng(47)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        tree, _, profile = random_instance(rng, n_players=n, max_nodes=20)
        cases += [(tree, profile, t) for t in range(1, n + 1)]
    for tree, profile, t in cases:
        system = build_constraints(tree, profile, SecurityParams(delta=1.0, t=t))
        # each coalition a row uses, once, by size and then in combinations order
        used = {row.coalition for row in system.rows}
        every = [c for size in range(1, t + 1) for c in combinations(range(tree.n), size)]
        assert list(system.coalitions) == [c for c in every if c in used]
        for row in system.rows:
            assert row.deviator in row.coalition and len(row.coalition) <= t
            assert row.leaf in inducible_leaves(tree, row.subgame, row.coalition, profile)
            for other in set(row.coalition) - {row.deviator}:
                smaller = set(row.coalition) - {other}
                assert row.leaf not in inducible_leaves(tree, row.subgame, smaller, profile)


def test_large_coalition_bounds_cost_the_rows_not_the_coalitions():
    # 16 parties at t = 8: 39 202 coalitions, of which the rows use 136
    pvc = build_pvc(PvcParams(n=16, eps=0.5, u_plus=2, u_minus=-1, delta=1))
    tracemalloc.start()
    try:
        system = build_constraints(pvc.tree, pvc.profile, SecurityParams(delta=1.0, t=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert len(system.coalitions) == 136 and system.alpha == 512


def test_constraint_system_holds_no_dense_matrix():
    # balanced 3-ary depth-7 tree (3280 nodes, 2187 leaves); a dense
    # (alpha, m) layout would hold about 50 MB
    def node(path, depth):
        if depth == 7:
            k = int(path, 3) if path else 0
            return leaf(f"L{path}", (float(k % 5), float(k % 7)), (1.0,))
        kids = [(f"m{c}", node(path + str(c), depth + 1)) for c in range(3)]
        return branch(f"B{path}", depth % 2, kids)

    tree = GameTree(("A", "B"), node("", 0))
    assert len(tree.ids) == 3280
    system = build_constraints(tree, backward_induction(tree), SecurityParams(delta=1.0))
    held = [value for value in vars(system).values() if isinstance(value, np.ndarray)]
    assert system.alpha > 0
    assert all(arr.size < system.alpha * system.m for arr in held)
    assert sum(arr.nbytes for arr in held) < 1e6
