"""Tree construction, indexing, induction, and profile plumbing."""

import ast
import copy
import importlib
import inspect
import math
import pickle
import pkgutil
from types import MappingProxyType

import numpy as np
import pytest

from paymech import (
    BadParameters,
    BadProbabilitySum,
    ConstraintRow,
    InfoStructure,
    PaymentScheme,
    SecurityParams,
    build_constraints,
    inducible_leaves,
    monte_carlo,
    verify,
    DimensionMismatch,
    DuplicateNodeId,
    GameTree,
    MissingBranchChoice,
    UnknownNodeId,
    ValidationError,
    backward_induction,
    branch,
    chance,
    check_profile,
    expected_utilities,
    honest_outcome,
    leaf,
)

import paymech

from .helpers import (assert_same_columns, has_chance, leaf_ids, nested, preorder_leaves,
                      random_profile, random_root, random_tree)


def two_level_tree():
    return GameTree(
        ("A", "B"),
        branch("r", 0, [
            ("l", branch("rl", 1, [
                ("x", leaf("L0", (1.0, 2.0), (1, 0))),
                ("y", leaf("L1", (3.0, 0.0), (0, 1))),
            ])),
            ("r", chance("rc", [
                (0.25, leaf("L2", (0.0, 4.0), (1, 0))),
                (0.75, leaf("L3", (8.0, -4.0), (0.5, 0.5))),
            ])),
        ]),
    )


def test_leaf_indexing_is_depth_first_left_to_right():
    tree = two_level_tree()
    assert leaf_ids(tree) == ["L0", "L1", "L2", "L3"]
    assert [tree.leaf_index[tree.position(nid)] for nid in leaf_ids(tree)] == [0, 1, 2, 3]
    assert tree.n == 2 and tree.m == 4 and tree.num_symbols == 2


def test_leaf_can_sit_at_different_numbers_in_different_trees():
    a, b, c = (leaf(k, (1.0,), (1.0,)) for k in "abc")
    first = GameTree(("P",), branch("r", 0, [("x", a), ("y", b)]))
    second = GameTree(("P",), branch("r", 0, [("z", c), ("x", a), ("y", b)]))
    assert [t.leaf_index[t.position("a")] for t in (first, second)] == [0, 1]
    assert leaf_ids(second) == ["c", "a", "b"]


def test_placed_leaf_equals_a_fresh_one():
    tree = two_level_tree()
    fresh = leaf("L2", (0.0, 4.0), (1, 0))
    placed = leaf(leaf_ids(tree)[2], tree.u[:, 2], tree.phi[:, 2])
    assert placed == fresh


def test_deep_chain_pickles_and_deepcopies():
    node = chance("end", [(0.25, leaf("e0", (0.0, 1.0), (0.5, 0.5))),
                          (0.75, leaf("e1", (1.0, 0.0), (1.0, 0.0)))])
    for d in reversed(range(1500)):
        node = branch(f"b{d}", d % 2, [("stop", leaf(f"s{d}", (1.0, float(d)), (1.0, 0.0))),
                                       ("go", node)])
    tree = GameTree(("A", "B"), node)
    pickled = [pickle.loads(pickle.dumps(tree, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*pickled, copy.copy(tree), copy.deepcopy(tree)):
        assert_same_columns(twin, tree)


def test_utility_and_emission_matrices_follow_leaf_order():
    tree = two_level_tree()
    np.testing.assert_array_equal(
        tree.u, [[1, 3, 0, 8], [2, 0, 4, -4]]
    )
    np.testing.assert_array_equal(
        tree.phi, [[1, 0, 1, 0.5], [0, 1, 0, 0.5]]
    )


def test_stored_matrices_are_the_leaf_tuples_and_read_only():
    rng = np.random.default_rng(17)
    with_chance = 0
    for _ in range(200):
        players, root = random_root(rng, n_players=int(rng.integers(1, 4)),
                                    num_symbols=int(rng.integers(1, 12)), max_nodes=40)
        tree = GameTree(players, root)
        with_chance += has_chance(tree)
        u = np.array([body["utilities"] for body in preorder_leaves(root)]).T
        phi = np.array([body["emission"] for body in preorder_leaves(root)]).T
        for got, want in ((tree.u, u), (tree.phi, phi)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = 1.0
        alphabet = [f"s{k}" for k in range(tree.num_symbols)]
        assert InfoStructure.from_tree(tree, alphabet).phi is tree.phi
    assert with_chance > 50


def test_duplicate_node_id_rejected():
    with pytest.raises(DuplicateNodeId):
        GameTree(("A",), branch("r", 0, [
            ("l", leaf("x", (1.0,), (1.0,))),
            ("r", leaf("x", (2.0,), (1.0,))),
        ]))


def test_bad_emission_sum_rejected():
    with pytest.raises(BadProbabilitySum):
        GameTree(("A",), branch("r", 0, [
            ("l", leaf("a", (1.0,), (0.5, 0.4))),
            ("r", leaf("b", (2.0,), (1.0, 0.0))),
        ]))


def test_mismatched_emission_lengths_rejected():
    with pytest.raises(DimensionMismatch):
        GameTree(("A",), branch("r", 0, [
            ("l", leaf("a", (1.0,), (1.0,))),
            ("r", leaf("b", (2.0,), (0.5, 0.5))),
        ]))


def test_owner_out_of_range_rejected():
    with pytest.raises(DimensionMismatch):
        GameTree(("A",), branch("r", 3, [("l", leaf("a", (1.0,), (1.0,)))]))


def test_repeated_move_name_rejected():
    # in a list of pairs, or in a mapping whose keys name one move; a
    # tree built without `branch` is checked by the reader
    a, b = leaf("a", (1.0,), (1.0,)), leaf("b", (2.0,), (1.0,))
    for build in (lambda: branch("r", 0, [("l", a), ("l", b)]),
                  lambda: branch("r", 0, {1: a, "1": b}),
                  lambda: branch("r", 0, MappingProxyType({1: a, "1": b})),
                  lambda: {"branch": {"id": "r", "owner": 0, "children": {1: a, "1": b}}}):
        with pytest.raises(ValidationError) as info:
            GameTree(("A",), build())
        assert (type(info.value), str(info.value)) == (
            ValidationError, "branch 'r' repeats a move name")


def test_bad_chance_probabilities_rejected():
    with pytest.raises(BadProbabilitySum):
        GameTree(("A",), chance("r", [
            (0.5, leaf("a", (1.0,), (1.0,))),
            (0.4, leaf("b", (2.0,), (1.0,))),
        ]))


def test_non_finite_values_rejected():
    ok = leaf("ok", (0.0,), (1.0,))
    with pytest.raises(BadProbabilitySum):
        GameTree(("A",), leaf("x", (0.0,), (math.nan, math.nan)))
    with pytest.raises(BadProbabilitySum):
        GameTree(("A",), branch("r", 0, [("a", ok), ("b", leaf("x", (0.0,), (math.inf,)))]))
    with pytest.raises(BadProbabilitySum):
        GameTree(("A",), chance("c", [(math.nan, leaf("x", (0.0,), (1.0,))), (1.0, ok)]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            GameTree(("A",), leaf("x", (bad,), (1.0,)))


def test_child_that_is_not_a_node_rejected():
    for root in (branch("r", 0, [("l", leaf("a", (1.0,), (1.0,))), ("x", "oops")]), "oops"):
        with pytest.raises(ValidationError) as info:
            GameTree(("A",), root)
        assert (type(info.value), str(info.value)) == (
            ValidationError,
            "each tree node must be an object with exactly one of 'branch', 'chance', or 'leaf'")


def test_unknown_id_and_empty_player_list_rejected():
    tree = two_level_tree()
    with pytest.raises(UnknownNodeId) as info:
        tree.position("zz")
    assert str(info.value) == "no node with id 'zz'"
    with pytest.raises(BadParameters) as info:
        GameTree((), nested(tree))
    assert (type(info.value), str(info.value)) == (
        BadParameters, "a game needs at least one player")


def test_check_profile_requires_every_branch_and_no_strays():
    tree = two_level_tree()
    check_profile(tree, {"r": "l", "rl": "x"})
    with pytest.raises(MissingBranchChoice):
        check_profile(tree, {"r": "l"})
    stray = {"r": "l", "rl": "x", "ghost": "z"}
    for call in (lambda: check_profile(tree, stray), lambda: honest_outcome(tree, "r", stray),
                 lambda: expected_utilities(tree, stray),
                 lambda: inducible_leaves(tree, "r", (0,), stray)):
        with pytest.raises(UnknownNodeId):
            call()
    with pytest.raises(MissingBranchChoice):
        check_profile(tree, {"r": "l", "rl": "nope"})


def test_expected_utilities_mixes_chance():
    tree = two_level_tree()
    np.testing.assert_allclose(
        expected_utilities(tree, {"r": "r", "rl": "x"}),
        [0.25 * 0 + 0.75 * 8, 0.25 * 4 + 0.75 * -4],
    )


def test_backward_induction_prefers_owner_payoff():
    tree = two_level_tree()
    profile = backward_induction(tree)
    # at rl, player B picks x (2 > 0); at r, player A compares 1 vs 6.
    assert profile == {"rl": "x", "r": "r"}


def test_backward_induction_breaks_ties_leftmost():
    tree = GameTree(("A",), branch("r", 0, [
        ("first", leaf("a", (5.0,), (1.0,))),
        ("second", leaf("b", (5.0,), (1.0,))),
    ]))
    assert backward_induction(tree) == {"r": "first"}


def test_honest_outcome_weights_and_value():
    tree = two_level_tree()
    w, u = honest_outcome(tree, "r", {"r": "r", "rl": "x"})
    np.testing.assert_allclose(w, [0, 0, 0.25, 0.75])
    np.testing.assert_allclose(u, [6.0, -2.0])
    w2, u2 = honest_outcome(tree, "rl", {"r": "r", "rl": "y"})
    np.testing.assert_allclose(w2, [0, 1, 0, 0])
    np.testing.assert_allclose(u2, [3.0, 0.0])


def test_subgame_ids_preorder():
    tree = two_level_tree()
    assert tree.ids == ("r", "rl", "L0", "L1", "rc", "L2", "L3")


@pytest.mark.parametrize("allow_chance", [False, True], ids=["without_chance", "with_chance"])
def test_backward_induction_immune_to_single_deviations(allow_chance):
    # backward induction averages chance children in child order, the
    # honest outcome in leaf order, so values agree only to rounding
    rng = np.random.default_rng(7)
    for _ in range(30):
        tree = random_tree(rng, n_players=2, allow_chance=allow_chance)
        profile = backward_induction(tree)
        base = {
            root: honest_outcome(tree, root, profile)[1]
            for root in tree.ids
        }
        for nid, owner, moves in zip(tree.ids, tree.owner, tree.labels):
            if owner < 0:
                continue
            for move in moves:
                if move == profile[nid]:
                    continue
                tweaked = dict(profile)
                tweaked[nid] = move
                _, u = honest_outcome(tree, nid, tweaked)
                best = base[nid][owner]
                assert u[owner] <= best + 1e-12 * (1 + abs(best))


def test_random_profiles_reach_exactly_one_leaf_without_chance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        tree = random_tree(rng, allow_chance=False)
        profile = random_profile(rng, tree)
        w, _ = honest_outcome(tree, "root", profile)
        assert np.count_nonzero(w) == 1
        assert w.sum() == pytest.approx(1.0)


def test_deep_chain_analyses_match_plain_loops():
    # level d: branch b{d} of player d % 2 either stops at leaf s{d} (leaf
    # index d) or goes on; the last "go" reaches leaf "end" (index depth)
    depth = 1500
    owner = [d % 2 for d in range(depth)]
    stop_u = [(2.0 + d % 3, -float(d % 2)) if owner[d] == 0 else (-float(d % 2), 2.0 + d % 3)
              for d in range(depth)]
    util = stop_u + [(0.0, 0.0)]

    def chain(end_utilities):
        node = leaf("end", end_utilities, (0.5, 0.5))
        for d in reversed(range(depth)):
            node = branch(f"b{d}", owner[d], [("stop", leaf(f"s{d}", util[d], (1.0, 0.0))),
                                               ("go", node)])
        return node

    root = chain(util[depth])
    tree = GameTree(("A", "B"), root)
    info = InfoStructure.from_tree(tree, ("x", "y"))
    zero = PaymentScheme(np.zeros((2, 2)))

    twin = chain(util[depth])
    assert tree == GameTree(("A", "B"), twin) and hash(tree) == hash(GameTree(("A", "B"), twin))
    assert tree != GameTree(("A", "B"), chain((0.0, 1.0)))
    assert repr(tree)

    # plain loops over the chain
    spe, value = {}, util[depth]
    for d in reversed(range(depth)):
        if value[owner[d]] > util[d][owner[d]]:
            spe[f"b{d}"] = "go"
        else:
            spe[f"b{d}"], value = "stop", util[d]

    def outcome(d, profile):
        while d < depth and profile[f"b{d}"] == "go":
            d += 1
        return d

    def reachable(d, player, profile):
        found = set()
        for k in range(d, depth):
            if owner[k] == player:
                found.add(k)
            elif profile[f"b{k}"] == "stop":
                found.add(k)
                return found
        return found | {depth}

    assert backward_induction(tree) == spe
    np.testing.assert_array_equal(expected_utilities(tree, spe), value)
    assert tree.ids == tuple(
        [nid for d in range(depth) for nid in (f"b{d}", f"s{d}")] + ["end"]
    )
    go_all = {f"b{d}": "go" for d in range(depth)}
    for profile in (spe, go_all):
        for d in (0, 700, depth - 1):
            w, u = honest_outcome(tree, f"b{d}", profile)
            j = outcome(d, profile)
            assert np.flatnonzero(w).tolist() == [j] and w[j] == 1.0
            np.testing.assert_array_equal(u, util[j])
            for player in (0, 1):
                assert inducible_leaves(tree, f"b{d}", [player], profile) == frozenset(
                    reachable(d, player, profile)
                )

    expected_rows = []
    for d in range(depth):
        honest = outcome(d, spe)
        for player in (0, 1):
            for j in sorted(reachable(d, player, spe) - {honest}):
                expected_rows.append((ConstraintRow(f"b{d}", (player,), player, j), honest))
    system = build_constraints(tree, spe, SecurityParams(delta=0.0))
    assert list(system.rows) == [row for row, _ in expected_rows]
    report = verify(tree, info, zero, spe, SecurityParams(delta=0.0))
    slacks = [util[h][row.deviator] - util[row.leaf][row.deviator] for row, h in expected_rows]
    np.testing.assert_array_equal(report.slacks, slacks)
    assert report.passed

    for profile in (spe, go_all):
        j = outcome(0, profile)
        result = monte_carlo(tree, info, zero, profile, trials=100, seed=5)
        np.testing.assert_array_equal(result.mean_utilities, util[j])
        np.testing.assert_array_equal(result.std_errors, [0.0, 0.0])


def test_tree_modules_never_recurse():
    # deep chains rely on every tree walk being a loop: no function in the
    # package may call itself, directly or as a method of self or cls
    def calls_itself(fn):
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                return True
        return False

    recursive = []
    # every module but the package's __init__, which only imports
    modules = [importlib.import_module(f"paymech.{info.name}")
               for info in pkgutil.iter_modules(paymech.__path__)]
    assert len(modules) >= 12
    for module in modules:
        functions = [f for f in ast.walk(ast.parse(inspect.getsource(module)))
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        assert functions, module.__name__
        recursive += [f"{module.__name__}.{f.name}" for f in functions if calls_itself(f)]
    assert recursive == []


def test_modules_read_every_name_they_import():
    # a deletion takes its imports with it: each module reads every name it
    # imports (the package's __init__ imports only to re-export, and
    # `from __future__` binds no name)
    unused = []
    for info in pkgutil.iter_modules(paymech.__path__):
        module = ast.parse(inspect.getsource(importlib.import_module(f"paymech.{info.name}")))
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(module)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        unused += [f"paymech.{info.name}: {name}" for name in imported if name not in read]
    assert unused == []


def test_package_uses_every_private_function_and_class():
    # a deletion takes its helpers with it: each module-level def or class
    # named _x is read somewhere in the package, as a name, an attribute
    # or an imported name
    private, read = [], set()
    for info in pkgutil.iter_modules(paymech.__path__):
        module = ast.parse(inspect.getsource(importlib.import_module(f"paymech.{info.name}")))
        private += [f"paymech.{info.name}.{node.name}" for node in module.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")]
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert private
    assert [name for name in private if name.rsplit(".", 1)[1] not in read] == []


def test_only_game_core_names_node_classes():
    # game_core owns the nested format, and that format is the document's
    # nodes: no module names a node class, and the tree keeps no node object
    node_classes = {"Leaf", "Branch", "Chance"}
    naming = []
    for info in pkgutil.iter_modules(paymech.__path__):
        module = ast.parse(inspect.getsource(importlib.import_module(f"paymech.{info.name}")))
        names = set()
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if names & node_classes:
            naming.append(info.name)
    assert naming == []
    tree = two_level_tree()
    assert not any(hasattr(tree, name) for name in ("order", "leaves", "root"))


def test_equality_and_hash_follow_the_columns():
    # a zero equals its negative, as it does in the leaf tuples; one move
    # name, owner, probability, utility or emission more makes trees differ
    def game(move="x", owner=1, p=(0.25, 0.75), u0=(1.0, 0.0), e0=(1.0, 0.0)):
        return GameTree(("A", "B"), branch("r", 0, [
            ("l", branch("rl", owner, [
                (move, leaf("L0", u0, e0)),
                ("y", leaf("L1", (3.0, 0.0), (0.0, 1.0))),
            ])),
            ("r", chance("rc", [(p[0], leaf("L2", (0.0, 4.0), (1.0, 0.0))),
                                (p[1], leaf("L3", (8.0, -4.0), (0.5, 0.5)))])),
        ]))

    base = game()
    for same in (game(u0=(1.0, -0.0)), game(e0=(1.0, -0.0)), game(u0=(1.0, -0.0), e0=(1.0, -0.0)),
                 pickle.loads(pickle.dumps(game(u0=(1.0, -0.0)))), copy.deepcopy(base)):
        assert same == base and hash(same) == hash(base)
    assert game(p=(0.0, 1.0)) == game(p=(-0.0, 1.0))
    assert hash(game(p=(0.0, 1.0))) == hash(game(p=(-0.0, 1.0)))
    for other in (game(move="z"), game(owner=0), game(p=(0.5, 0.5)), game(u0=(1.0, 1.0)),
                  game(e0=(0.5, 0.5))):
        assert other != base and not other == base
    assert base != "tree" and GameTree(("A", "C"), nested(base)) != base
