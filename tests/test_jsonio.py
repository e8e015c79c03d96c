"""Canonical serialization and document parsing."""

import copy
import enum
import io
import json
import math
import pickle

import numpy as np
import pytest

from paymech import case_studies, cli, game_core, jsonio, reductions
from paymech.jsonio import read_array, read_profile
from paymech import (
    BadParameters,
    BadProbabilitySum,
    CommerceParams,
    DimensionMismatch,
    DuplicateNodeId,
    GameDocument,
    GameTree,
    OrderedMap,
    PaymentScheme,
    PvcParams,
    ValidationError,
    branch,
    build_commerce,
    build_pvc,
    chance,
    dumps_canonical,
    game_to_doc,
    leaf,
    lp_to_game,
    parse_game_doc,
    parse_scheme_doc,
    scheme_to_doc,
)

from .helpers import (assert_same_columns, chain_tree, has_chance, leaf_ids, nested,
                      random_instance, random_root, random_tree)

# dumps_canonical's bytes for TestWriter.test_golden_bytes, copied from the
# recursive writer's output before it was replaced
GOLDEN_TEXT = "\n".join([
    '{',
    '  "cl\\u00e9": "key",',
    '  "empty_dict": {},',
    '  "empty_list": [],',
    '  "floats": [0, "inf", "-inf", 1e-13, 0.333333333333, 123456789.123, 2],',
    '  "matrix": [',
    '    [1, -0.5],',
    '    [3, 1e+20]',
    '  ],',
    '  "mixed": [',
    '    1,',
    '    [',
    '      2,',
    '      [',
    '        3,',
    '        {}',
    '      ]',
    '    ],',
    '    {',
    '      "j": [0.5],',
    '      "k": []',
    '    },',
    '    "s",',
    '    null,',
    '    [],',
    '    {},',
    '    4',
    '  ],',
    '  "numpy": {',
    '    "b": true,',
    '    "f64": 0.25,',
    '    "i64": -7,',
    '    "list": [1.5, 2, false]',
    '  },',
    '  "ordered": {',
    '    "zeta": 1,',
    '    "alpha": [2]',
    '  },',
    '  "python": [true, false, null, 0, -12],',
    '  "sorted": {',
    '    "alpha": [2],',
    '    "zeta": 1',
    '  },',
    '  "text": "caf\\u00e9 \\u2713 \\"q\\"\\n",',
    '  "tuple": [1, "a", 2.5],',
    '  "zero_d": 2.5',
    '}',
])



class TestWriter:
    def test_sorted_keys_and_layout(self):
        out = dumps_canonical({"b": 1, "a": [1, 2], "c": {"z": True, "y": None}})
        assert out == (
            '{\n  "a": [1, 2],\n  "b": 1,\n  "c": {\n    "y": null,\n    "z": true\n  }\n}'
        )

    def test_ordered_map_keeps_insertion_order(self):
        om = OrderedMap()
        om["zz"] = 1
        om["aa"] = 2
        assert dumps_canonical(om) == '{\n  "zz": 1,\n  "aa": 2\n}'

    def test_float_formatting(self):
        assert dumps_canonical(0.1) == "0.1"
        assert dumps_canonical(-0.0) == "0"
        assert dumps_canonical(1 / 3) == "0.333333333333"
        assert dumps_canonical(56.25) == "56.25"
        assert dumps_canonical(2.0) == "2"
        assert dumps_canonical(float("inf")) == '"inf"'
        assert dumps_canonical(float("-inf")) == '"-inf"'

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            dumps_canonical({"v": float("nan")})

    def test_scalar_lists_inline_nested_multiline(self):
        assert dumps_canonical([1.5, "a", None]) == '[1.5, "a", null]'
        assert dumps_canonical([[1, 2], [3, 4]]) == "[\n  [1, 2],\n  [3, 4]\n]"
        assert dumps_canonical([]) == "[]"
        assert dumps_canonical({}) == "{}"

    def test_numpy_values_accepted(self):
        doc = {"m": np.array([[1.0, 2.0]]), "k": np.float64(0.5), "n": np.int64(3)}
        assert dumps_canonical(doc) == '{\n  "k": 0.5,\n  "m": [\n    [1, 2]\n  ],\n  "n": 3\n}'

    def test_non_string_keys_rejected(self):
        with pytest.raises(ValidationError):
            dumps_canonical({1: "x"})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            dumps_canonical({"v": object()})

    def test_golden_bytes(self):
        ordered = OrderedMap()
        ordered["zeta"] = 1
        ordered["alpha"] = [2]
        doc = {
            "numpy": {"f64": np.float64(0.25), "i64": np.int64(-7), "b": np.bool_(True),
                      "list": [np.float64(1.5), np.int64(2), np.bool_(False)]},
            "python": [True, False, None, 0, -12],
            "floats": [-0.0, float("inf"), float("-inf"), 1e-13, 1 / 3, 123456789.123456789, 2.0],
            "text": "café ✓ \"q\"\n",
            "clé": "key",
            "zero_d": np.array(2.5),
            "matrix": np.array([[1.0, -0.5], [3.0, 1e20]]),
            "tuple": (1, "a", 2.5),
            "empty_list": [],
            "empty_dict": {},
            "ordered": ordered,
            "sorted": {"zeta": 1, "alpha": [2]},
            "mixed": [1, [2, [3, {}]], {"k": [], "j": np.array([0.5])}, "s", None, [], {},
                      np.array(4)],
        }
        assert dumps_canonical(doc) == GOLDEN_TEXT
        with pytest.raises(ValidationError):
            dumps_canonical({"deep": [1, {"v": np.float64("nan")}]})
        with pytest.raises(ValidationError):
            dumps_canonical({"a": {1: "x"}})
        with pytest.raises(ValidationError):
            dumps_canonical(OrderedMap({2: "x"}))

    def test_golden_bytes_of_subclasses(self):
        # values of a subclass of a JSON type are written as that type
        class Move(enum.IntEnum):
            STAY = 3

        class Name(str):
            pass

        class Weight(float):
            pass

        values = [Move.STAY, Name("é"), Weight(0.5), Weight(-0.0), np.bool_(False)]
        doc = {"list": values, "move": Move.STAY, "name": Name("n"), "weight": Weight(2.0),
               "flag": np.bool_(True), "nested": [values, {"k": Name("v")}]}
        assert dumps_canonical(doc) == "\n".join([
            '{',
            '  "flag": true,',
            '  "list": [3, "\\u00e9", 0.5, 0, false],',
            '  "move": 3,',
            '  "name": "n",',
            '  "nested": [',
            '    [3, "\\u00e9", 0.5, 0, false],',
            '    {',
            '      "k": "v"',
            '    }',
            '  ],',
            '  "weight": 2',
            '}',
        ])

    def test_output_is_valid_json(self):
        doc = {"a": [1.25, -0.0], "b": {"c": "text", "d": [True, False]}}
        assert json.loads(dumps_canonical(doc)) == {
            "a": [1.25, 0.0],
            "b": {"c": "text", "d": [True, False]},
        }


class TestGameDocs:
    def test_round_trip_fixture(self, commerce):
        text = dumps_canonical(game_to_doc(commerce.tree, commerce.info.alphabet, commerce.profile))
        doc = parse_game_doc(json.loads(text))
        assert isinstance(doc, GameDocument)
        assert doc.tree.players == commerce.tree.players
        assert doc.profile == commerce.profile
        assert doc.costs is None
        np.testing.assert_array_equal(doc.tree.u, commerce.tree.u)
        np.testing.assert_array_equal(doc.info.phi, commerce.info.phi)
        # serialization is a fixed point: reparse and re-emit byte-identically
        again = dumps_canonical(game_to_doc(doc.tree, doc.info.alphabet, doc.profile))
        assert again == text

    def test_children_order_survives(self):
        # leaf indexing depends on branch child order, so the writer must
        # not sort these keys
        text = dumps_canonical(game_to_doc(*_two_leaf_game()))
        assert text.index('"zz"') < text.index('"aa"')
        doc = parse_game_doc(json.loads(text))
        assert leaf_ids(doc.tree)[0] == "first"

    def test_random_round_trips(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            tree, info, profile = random_instance(rng)
            text = dumps_canonical(game_to_doc(tree, info.alphabet, profile))
            doc = parse_game_doc(json.loads(text))
            # the writer keeps 12 significant digits, so equality is up to
            # that quantization; one parse/emit cycle is then a fixed point
            np.testing.assert_allclose(doc.tree.u, tree.u, rtol=1e-11)
            np.testing.assert_allclose(doc.info.phi, info.phi, rtol=1e-11, atol=1e-12)
            assert leaf_ids(doc.tree) == leaf_ids(tree)
            assert dumps_canonical(game_to_doc(doc.tree, doc.info.alphabet, doc.profile)) == text

    def test_costs_round_trip(self):
        players, alphabet, tree, profile = _two_leaf_parts()
        costs = np.array([[np.inf, 1.5, np.inf]])
        text = dumps_canonical(game_to_doc(tree, alphabet, profile, costs=costs))
        assert '"inf"' in text
        doc = parse_game_doc(json.loads(text))
        np.testing.assert_array_equal(doc.costs, costs)

    def test_parse_errors(self):
        players, alphabet, tree, profile = _two_leaf_parts()
        good = game_to_doc(tree, alphabet, profile)
        for mutate in (
            lambda d: d.pop("players"),
            lambda d: d.update(players=[]),
            lambda d: d.update(players=[1, 2]),
            lambda d: d.update(alphabet=[]),
            lambda d: d.update(tree={"branch": {"id": "r"}}),
            lambda d: d.update(tree={"widget": {}}),
            lambda d: d.update(tree={"branch": {"id": "r", "owner": 0, "children": {}}}),
            lambda d: d.update(intended={"root": 3}),
            lambda d: d.update(costs=[[1, 2]]),
            lambda d: d.update(costs=[["-inf", 0, 0]]),
            lambda d: d.update(costs=[["huge", 0, 0]]),
            lambda d: d.update(costs=[[True, 0, 0]]),
            lambda d: d.update(costs=[[1, 0, 0], [0, 0]]),
            lambda d: d.update(costs=[[]]),
            lambda d: d.update(costs={"A": [0, 0, 0]}),
            lambda d: d.update(intended=[]),
            lambda d: d.update(intended={"root": None}),
        ):
            broken = json.loads(dumps_canonical(good))
            mutate(broken)
            with pytest.raises(ValidationError):
                parse_game_doc(broken)

    def test_fault_table(self):
        # each document breaks one rule of one node; the class and the
        # message are part of the reader's contract
        for name, mutate, exc, message in READER_FAULTS:
            doc = copy.deepcopy(FAULT_BASE)
            mutate(doc)
            with pytest.raises(ValidationError) as info:
                parse_game_doc(doc)
            assert (type(info.value), str(info.value)) == (exc, message), name

    def test_shape_faults_come_before_value_faults(self):
        # the reader checks JSON types over the whole tree before any value
        # rule runs, so a later shape fault wins over an earlier value
        # fault; the players are checked before the tree is read
        doc = copy.deepcopy(FAULT_BASE)
        _heads(doc).update(emission=[])
        _stay(doc).update(utilities=[3, "three"])
        with pytest.raises(ValidationError) as info:
            parse_game_doc(doc)
        assert (type(info.value), str(info.value)) == (
            ValidationError, "utilities must contain only numbers")
        doc["players"] = ["A", "A"]
        with pytest.raises(BadParameters, match="player names must be unique"):
            parse_game_doc(doc)

    def test_reader_faults_come_in_preorder(self):
        # of two JSON-type faults the first in preorder is reported, the
        # number rules of a leaf's utilities included; within one leaf the
        # utilities come before the emission
        for first, second, message in [
            (lambda d: _heads(d).update(utilities=[1, "two"]),
             lambda d: _reply(d).update(owner=True),
             "utilities must contain only numbers"),
            (lambda d: _reply(d).update(owner=True),
             lambda d: _stay(d).update(utilities=[3, "three"]),
             "branch reply.owner must be an integer"),
            (lambda d: _heads(d).update(utilities=[1, "two"]),
             lambda d: _heads(d).pop("emission"),
             "utilities must contain only numbers"),
            (lambda d: _heads(d).update(utilities=[1, 10**400]),
             lambda d: _heads(d).pop("emission"),
             "utilities must contain only finite numbers"),
            (lambda d: _heads(d).update(emission=["x", 1]),
             lambda d: _stay(d).update(utilities=["y", 1]),
             "emission must contain only numbers"),
            (lambda d: _heads(d).update(utilities=[10**400, 1]),
             lambda d: _stay(d).update(utilities=["y", 1]),
             "utilities must contain only finite numbers"),
            (lambda d: _coin_p(d, 10**400),
             lambda d: _heads(d).update(utilities=["x", 1]),
             "chance coin child.p must contain only finite numbers"),
            (lambda d: _heads(d).update(utilities=[10**400, "x"]),
             lambda d: None,
             "utilities must contain only numbers"),
        ]:
            doc = copy.deepcopy(FAULT_BASE)
            first(doc)
            second(doc)
            with pytest.raises(ValidationError) as info:
                parse_game_doc(doc)
            assert (type(info.value), str(info.value)) == (ValidationError, message)

    def test_code_built_documents_parse(self, commerce, pvc):
        # game_to_doc's dicts, read with no JSON round trip: branch children
        # are OrderedMaps, and every number is already a float
        cases = [(commerce.tree, commerce.info.alphabet), (pvc.tree, pvc.info.alphabet),
                 (_fault_base_tree(), ("x", "y")), (chain_tree(300), ("x", "y"))]
        rng = np.random.default_rng(11)
        for _ in range(200):
            tree = random_tree(rng, n_players=int(rng.integers(1, 4)),
                               num_symbols=int(rng.integers(1, 6)), max_nodes=30)
            cases.append((tree, [f"s{k}" for k in range(tree.num_symbols)]))
        for tree, alphabet in cases:
            assert_same_columns(parse_game_doc(game_to_doc(tree, alphabet, {})).tree, tree)

    def test_documents_hold_the_builders_nodes(self, monkeypatch):
        # a tree's document holds the very nodes it was built from, and a
        # root with values exact in 12 digits reads back from its JSON text
        # column for column
        roots = []

        def recording(players, root):
            roots.append((players, root))
            return GameTree(players, root)

        monkeypatch.setattr(case_studies, "GameTree", recording)
        monkeypatch.setattr(reductions, "GameTree", recording)
        build_commerce(CommerceParams(x=100.0, x_prime=50.0, y=150.0, eps=0.1))
        for collapse in (True, False):
            build_pvc(PvcParams(n=4, eps=0.25, u_plus=2.0, u_minus=-1.0, delta=1.0), collapse)
        lp_to_game([[2.0, 0.0], [1.0, 3.0]], [2.0, 3.0], [1.0, 1.0])
        assert len(roots) == 5  # pvc builds the collapsed tree both times
        rng = np.random.default_rng(23)
        for _ in range(200):
            players, root = random_root(rng, n_players=int(rng.integers(1, 4)),
                                        num_symbols=int(rng.integers(1, 6)), max_nodes=30)
            cut = nested(GameTree(players, root), value=lambda x: float(format(x, ".12g")))
            roots.append((players, cut))
        for players, root in roots:
            tree = GameTree(players, root)
            alphabet = [f"s{k}" for k in range(tree.num_symbols)]
            assert game_to_doc(tree, alphabet, {})["tree"] == root
            assert_same_columns(GameTree(players, json.loads(dumps_canonical(root))), tree)

    def test_well_formed_trees_take_no_per_value_helper(self, commerce, monkeypatch):
        # the per-value helpers serve faults and subclasses only; a tree
        # read from JSON, with float or whole-number values, needs none
        calls = []

        def counted(name, helper):
            def call(*args):
                calls.append((name, args[-1]))  # the last argument names the value
                return helper(*args)
            return call

        docs = [FAULT_BASE, game_to_doc(commerce.tree, commerce.info.alphabet, commerce.profile),
                game_to_doc(chain_tree(50), ("x", "y"), {})]
        # the tree reader's helpers live in game_core; jsonio reads the
        # document's other fields with two of them
        for module, names in ((game_core, ("_require", "_parse_numbers", "_to_floats")),
                              (jsonio, ("_require", "_parse_numbers"))):
            for name in names:
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for doc in docs:
            parse_game_doc(json.loads(dumps_canonical(doc)))
            parse_game_doc(json.loads(json.dumps(doc)))
        assert {where for _, where in calls} == {"document"}

    def test_numpy_numbers_in_documents(self):
        doc = copy.deepcopy(FAULT_BASE)
        _heads(doc).update(utilities=[np.float64(1.5), np.float64(-2)],
                           emission=[np.float64(0.25), np.float64(0.75)])
        _coin_p(doc, np.float64(0.5), np.float64(0.5))
        tree = parse_game_doc(doc).tree
        np.testing.assert_array_equal(tree.u[:, 0], [1.5, -2.0])
        np.testing.assert_array_equal(tree.phi[:, 0], [0.25, 0.75])
        assert tree.labels[1] == (0.5, 0.5)
        for mutate, message in (
            (lambda d: _heads(d).update(utilities=[np.int64(1), 2]),
             "utilities must contain only numbers"),
            (lambda d: _stay(d).update(emission=[0, np.int64(1)]),
             "emission must contain only numbers"),
            (lambda d: _coin_p(d, np.int64(1), 0),
             "chance coin child.p must be a number"),
        ):
            doc = copy.deepcopy(FAULT_BASE)
            mutate(doc)
            with pytest.raises(ValidationError) as info:
                parse_game_doc(doc)
            assert (type(info.value), str(info.value)) == (ValidationError, message)

    def test_whole_numbers_read_as_their_floats(self):
        # ints, some beyond 2**53 so that the conversion rounds, against
        # the floats Python makes of them
        big = [2**53 + 1, -(2**64 + 3), 10**300, 7]
        docs = []
        for spell in (int, float):
            doc = copy.deepcopy(FAULT_BASE)
            _heads(doc).update(utilities=[spell(v) for v in big[:2]], emission=[spell(0), 1])
            _stay(doc).update(utilities=[spell(v) for v in big[2:]])
            _coin_p(doc, spell(1), spell(0))
            docs.append(doc)
        a, b = (parse_game_doc(doc).tree for doc in docs)
        assert a.u.tobytes() == b.u.tobytes() and a.phi.tobytes() == b.phi.tobytes()
        assert a.labels == b.labels and a.labels[1] == (1.0, 0.0)
        assert all(type(p) is float for p in a.labels[1])

    def test_value_faults_come_rule_by_rule(self):
        # each value rule runs over the whole tree before the next, in the
        # order ids, branches, chance nodes, leaf counts, utility values,
        # emission signs, emission sums; within a rule the first node in
        # preorder is reported.  The first fault of each pair sits earlier
        # in preorder (root, coin, heads, tails, reply, stay) but breaks a
        # later rule, so the second fault is the one reported
        for first, second, exc, message in [
            (lambda d: _heads(d).update(emission=[-0.5, 1.5]),
             lambda d: _stay(d).update(id="tails"),
             DuplicateNodeId, "node id 'tails' appears more than once"),
            (lambda d: _coin_p(d, 0.5),
             lambda d: _reply(d).update(children={}),
             ValidationError, "branch reply has no children"),
            (lambda d: _heads(d).update(utilities=[1]),
             lambda d: _reply(d).update(owner=2),
             DimensionMismatch, "branch 'reply' owner 2 out of range for 2 players"),
            (lambda d: _heads(d).update(utilities=[math.inf, 0]),
             lambda d: _stay(d).update(emission=[0, 0.5, 0.5]),
             DimensionMismatch, "leaf 'stay' emits over 3 symbols, expected 2"),
            (lambda d: _heads(d).update(emission=[math.nan, math.nan]),
             lambda d: _stay(d).update(utilities=[3, math.nan]),
             ValidationError, "leaf 'stay' has a non-finite utility"),
            (lambda d: _heads(d).update(emission=[0.5, 0]),
             lambda d: _stay(d).update(emission=[-0.5, 1.5]),
             BadProbabilitySum, "leaf 'stay' has a negative emission probability"),
        ]:
            doc = copy.deepcopy(FAULT_BASE)
            first(doc)
            second(doc)
            with pytest.raises(ValidationError) as info:
                parse_game_doc(doc)
            assert (type(info.value), str(info.value)) == (exc, message)

    def test_compiled_layout_matches_code_built_tree(self, commerce, pvc):
        cases = [
            (commerce.tree, parse_game_doc(json.loads(dumps_canonical(game_to_doc(
                commerce.tree, commerce.info.alphabet, commerce.profile)))).tree),
            (pvc.tree, parse_game_doc(json.loads(dumps_canonical(game_to_doc(
                pvc.tree, pvc.info.alphabet, pvc.profile)))).tree),
            (_fault_base_tree(), parse_game_doc(copy.deepcopy(FAULT_BASE)).tree),
        ]
        cases += [(built, twin) for built, _ in cases
                  for twin in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built))]
        for built, parsed in cases:
            assert_same_columns(parsed, built)
        # random trees built in code, their numbers first cut to the writer's
        # 12 digits so that the document carries them exactly; each read
        # back, unpickled and copied, column by column
        rng = np.random.default_rng(7)
        with_chance = 0
        for _ in range(3000):
            tree = random_tree(rng, n_players=int(rng.integers(1, 4)),
                               num_symbols=int(rng.integers(1, 12)), max_nodes=40)
            built = GameTree(tree.players, nested(tree, value=lambda x: float(format(x, ".12g"))))
            assert (built.ids, built.owner, built.kids) == (tree.ids, tree.owner, tree.kids)
            np.testing.assert_allclose(built.phi, tree.phi, rtol=1e-11)
            alphabet = [f"s{k}" for k in range(built.num_symbols)]
            text = dumps_canonical(game_to_doc(built, alphabet, {}))
            for twin in (parse_game_doc(json.loads(text)).tree, pickle.loads(pickle.dumps(built)),
                         copy.deepcopy(built)):
                assert_same_columns(twin, built)
            with_chance += has_chance(built)
        assert with_chance > 1000

    def test_non_finite_numbers_rejected(self):
        # json.loads reads NaN, Infinity and integers beyond the float
        # range; no game value may be any of them
        for mutate, exc in (
            (lambda d: _heads(d).update(emission=[math.nan, math.nan]), BadProbabilitySum),
            (lambda d: _stay(d).update(emission=[math.nan, 1.0]), BadProbabilitySum),
            (lambda d: _coin_p(d, math.nan), BadProbabilitySum),
            (lambda d: _heads(d).update(utilities=[math.inf, 0]), ValidationError),
            (lambda d: _stay(d).update(utilities=[3, math.nan]), ValidationError),
            (lambda d: d.update(costs=[[math.nan, 0], [0, 0]]), ValidationError),
            (lambda d: d.update(costs=[[-math.inf, 0], [0, 0]]), ValidationError),
            (lambda d: _stay(d).update(utilities=[3, 10**400]), ValidationError),
            (lambda d: _coin_p(d, 10**400), ValidationError),
            (lambda d: d.update(costs=[[10**400, 0], [0, 0]]), ValidationError),
        ):
            doc = copy.deepcopy(FAULT_BASE)
            mutate(doc)
            with pytest.raises(exc):
                parse_game_doc(json.loads(json.dumps(doc)))
        doc = copy.deepcopy(FAULT_BASE)
        doc["costs"] = [["inf", 1], [math.inf, 0]]
        costs = parse_game_doc(json.loads(json.dumps(doc))).costs
        np.testing.assert_array_equal(costs, [[math.inf, 1], [math.inf, 0]])

    def test_deep_documents_write_without_recursion(self):
        # at the default recursion limit; the canonical layout indents
        # each level, so a 2000-deep chain's text would be ~180 MB and the
        # round trip runs at depth 300 (the writer recursed from 109)
        deep = []
        for _ in range(2000):
            deep = [{"k": deep}]
        text = dumps_canonical(deep)
        assert text.count("\n") == 2 * 2 * 2000 and text.endswith("\n]")
        assert game_to_doc(chain_tree(2000), ("x", "y"), {})["tree"]["branch"]["id"] == "b0"
        tree = chain_tree(300)
        text = dumps_canonical(game_to_doc(tree, ("x", "y"), {}))
        doc = parse_game_doc(cli._read_doc("-", io.StringIO(text)))
        assert_same_columns(doc.tree, tree)

    def test_leaf_number_validation(self):
        doc = {
            "players": ["A"],
            "alphabet": ["s"],
            "tree": {"leaf": {"id": "x", "utilities": ["much"], "emission": [1.0]}},
            "intended": {},
        }
        with pytest.raises(ValidationError):
            parse_game_doc(doc)


class TestSchemeDocs:
    def test_round_trip(self, commerce):
        doc = scheme_to_doc(commerce.info.alphabet, commerce.scheme)
        assert doc["max_deposits"] == [225.0, 56.25]
        alphabet, scheme = parse_scheme_doc(json.loads(dumps_canonical(doc)))
        assert alphabet == commerce.info.alphabet
        np.testing.assert_array_equal(scheme.matrix, commerce.scheme.matrix)

    def test_deposits_recomputed_not_trusted(self):
        doc = {"alphabet": ["a", "b"], "lambda": [[1.0, 5.0]], "max_deposits": [999.0]}
        _, scheme = parse_scheme_doc(doc)
        np.testing.assert_array_equal(scheme.max_deposits, [5.0])

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_scheme_doc({"alphabet": ["a"], "lambda": []})
        with pytest.raises(ValidationError):
            parse_scheme_doc({"alphabet": ["a"], "lambda": [[1.0, 2.0]]})
        with pytest.raises(ValidationError):
            parse_scheme_doc({"alphabet": ["a", "b"], "lambda": [[1.0, 2.0], [1.0]]})
        with pytest.raises(ValidationError):
            parse_scheme_doc({"lambda": [[0.0]]})
        for lam in ([[]], [["1"]], [[True]], [[math.nan]], [[math.inf]], [["inf"]],
                    [[10**400]], [[[1.0]]], [1.0], "x"):
            with pytest.raises(ValidationError):
                parse_scheme_doc({"alphabet": ["a"], "lambda": lam})


# (id, call of a reader, the value it returns, or None when it must
# raise ValidationError)
READERS = [
    ("costs keep the inf token", lambda: read_array([["inf", 1]], "costs", (1, 2), inf=True),
     [[math.inf, 1.0]]),
    ("costs keep Infinity", lambda: read_array([[math.inf, 2.5]], "costs", (1, 2), inf=True),
     [[math.inf, 2.5]]),
    ("free axes", lambda: read_array([[1, 2.5], [3, 4]], "m", (None, None)), [[1, 2.5], [3, 4]]),
    ("vector", lambda: read_array([0, -1e300], "v", (2,)), [0.0, -1e300]),
    ("-inf token in costs", lambda: read_array([["-inf"]], "costs", (1, 1), inf=True), None),
    ("-Infinity in costs", lambda: read_array([[-math.inf]], "costs", (1, 1), inf=True), None),
    ("NaN in costs", lambda: read_array([[math.nan]], "costs", (1, 1), inf=True), None),
    ("Infinity without inf", lambda: read_array([[math.inf]], "m", (1, 1)), None),
    ("inf token without inf", lambda: read_array([["inf"]], "m", (1, 1)), None),
    ("NaN", lambda: read_array([math.nan], "v", (None,)), None),
    ("bool", lambda: read_array([[True, 1]], "m", (None, None)), None),
    ("string", lambda: read_array([[1, "a"]], "m", (None, None)), None),
    ("ragged", lambda: read_array([[1, 1], [1]], "m", (None, None)), None),
    ("empty", lambda: read_array([], "v", (None,)), None),
    ("empty row", lambda: read_array([[]], "m", (None, None)), None),
    ("beyond the float range", lambda: read_array([[10**400]], "m", (None, None)), None),
    ("wrong fixed size", lambda: read_array([[1, 2]], "m", (None, 3)), None),
    ("too deep", lambda: read_array([[1], [2]], "v", (None,)), None),
    ("too shallow", lambda: read_array([1, 2], "m", (None, None)), None),
    ("not a list", lambda: read_array({"a": 1}, "v", (None,)), None),
    ("profile", lambda: read_profile({"root": "send"}, "intended"), {"root": "send"}),
    ("empty profile", lambda: read_profile({}, "intended"), {}),
    ("non-string profile value", lambda: read_profile({"root": 1}, "intended"), None),
    ("bool profile value", lambda: read_profile({"root": True}, "intended"), None),
    ("non-string profile key", lambda: read_profile({1: "send"}, "intended"), None),
    ("profile not an object", lambda: read_profile([["root", "send"]], "intended"), None),
]


@pytest.mark.parametrize("call, want", [pytest.param(c, w, id=i) for i, c, w in READERS])
def test_readers(call, want):
    if want is None:
        with pytest.raises(ValidationError):
            call()
    elif isinstance(want, dict):
        assert call() == want
    else:
        got = call()
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def _two_leaf_parts():
    from paymech import GameTree, branch, leaf

    tree = GameTree(
        ("A",),
        branch(
            "root",
            0,
            [
                ("zz", leaf("first", (1.0,), (1.0, 0.0, 0.0))),
                ("aa", leaf("second", (0.0,), (0.0, 0.5, 0.5))),
            ],
        ),
    )
    return ("A",), ("top", "l", "r"), tree, {"root": "zz"}


def _two_leaf_game():
    players, alphabet, tree, profile = _two_leaf_parts()
    return tree, alphabet, profile


# a branch over a chance node and a one-move branch, the base of the
# single-fault documents below
FAULT_BASE = {
    "players": ["A", "B"],
    "alphabet": ["x", "y"],
    "intended": {"root": "left", "reply": "stay"},
    "tree": {"branch": {"id": "root", "owner": 0, "children": {
        "left": {"chance": {"id": "coin", "children": [
            {"p": 0.25, "node": {"leaf": {"id": "heads", "utilities": [1, 2], "emission": [1, 0]}}},
            {"p": 0.75, "node": {"leaf": {"id": "tails", "utilities": [0, -1],
                                          "emission": [0.5, 0.5]}}},
        ]}},
        "right": {"branch": {"id": "reply", "owner": 1, "children": {
            "stay": {"leaf": {"id": "stay", "utilities": [3, 3], "emission": [0, 1]}},
        }}},
    }}},
}


def _fault_base_tree():
    return GameTree(("A", "B"), branch("root", 0, [
        ("left", chance("coin", [(0.25, leaf("heads", (1, 2), (1, 0))),
                                 (0.75, leaf("tails", (0, -1), (0.5, 0.5)))])),
        ("right", branch("reply", 1, [("stay", leaf("stay", (3, 3), (0, 1)))])),
    ]))


def _coin(d):
    return d["tree"]["branch"]["children"]["left"]["chance"]


def _heads(d):
    return _coin(d)["children"][0]["node"]["leaf"]


def _reply(d):
    return d["tree"]["branch"]["children"]["right"]["branch"]


def _stay(d):
    return _reply(d)["children"]["stay"]["leaf"]


def _coin_p(d, *probs):
    for entry, p in zip(_coin(d)["children"], probs):
        entry["p"] = p


NODE_SHAPE = "each tree node must be an object with exactly one of 'branch', 'chance', or 'leaf'"

READER_FAULTS = [
    ("non-object node", lambda d: _reply(d)["children"].update(stay=["leaf"]),
     ValidationError, NODE_SHAPE),
    ("two keys", lambda d: _reply(d)["children"]["stay"].update(branch={}),
     ValidationError, NODE_SHAPE),
    ("unknown kind", lambda d: _reply(d)["children"].update(stay={"widget": {}}),
     ValidationError, "unknown node kind 'widget'"),
    ("unknown kind with an id",
     lambda d: _reply(d)["children"].update(stay={"fork": {"id": "x"}}),
     ValidationError, "unknown node kind 'fork'"),
    ("chance children not a list", lambda d: _coin(d).update(children={"heads": 1}),
     ValidationError, "chance coin.children must be list"),
    ("chance child node not an object", lambda d: _coin(d)["children"][0].update(node=["leaf"]),
     ValidationError, "chance coin child.node must be dict"),
    ("missing id", lambda d: _heads(d).pop("id"),
     ValidationError, "leaf is missing 'id'"),
    ("non-string id", lambda d: _heads(d).update(id=7),
     ValidationError, "leaf.id must be str"),
    ("bool owner", lambda d: _reply(d).update(owner=True),
     ValidationError, "branch reply.owner must be an integer"),
    ("owner out of range", lambda d: _reply(d).update(owner=2),
     DimensionMismatch, "branch 'reply' owner 2 out of range for 2 players"),
    ("empty children", lambda d: _reply(d).update(children={}),
     ValidationError, "branch reply has no children"),
    ("non-number p", lambda d: _coin_p(d, "half"),
     ValidationError, "chance coin child.p must be a number"),
    ("bool p", lambda d: _coin_p(d, True),
     ValidationError, "chance coin child.p must be a number"),
    ("negative p", lambda d: _coin_p(d, -0.25, 1.25),
     BadProbabilitySum, "chance node 'coin' has a negative probability"),
    ("sum not 1", lambda d: _coin_p(d, 0.5),
     BadProbabilitySum, "chance node 'coin' probabilities sum to 1.25"),
    ("string utility", lambda d: _heads(d).update(utilities=[1, "two"]),
     ValidationError, "utilities must contain only numbers"),
    ("bool utility", lambda d: _heads(d).update(utilities=[1, False]),
     ValidationError, "utilities must contain only numbers"),
    ("utility count", lambda d: _stay(d).update(utilities=[3]),
     DimensionMismatch, "leaf 'stay' has 1 utilities, expected 2"),
    ("empty emission", lambda d: _heads(d).update(emission=[]),
     DimensionMismatch, "leaf 'heads' has an empty emission pdf"),
    ("emission lengths", lambda d: _stay(d).update(emission=[0, 0.5, 0.5]),
     DimensionMismatch, "leaf 'stay' emits over 3 symbols, expected 2"),
    ("negative emission", lambda d: _stay(d).update(emission=[-0.5, 1.5]),
     BadProbabilitySum, "leaf 'stay' has a negative emission probability"),
    ("duplicate id", lambda d: _stay(d).update(id="tails"),
     DuplicateNodeId, "node id 'tails' appears more than once"),
    ("bool emission", lambda d: _heads(d).update(emission=[True, 0]),
     ValidationError, "emission must contain only numbers"),
    ("string emission", lambda d: _stay(d).update(emission=[0, "1"]),
     ValidationError, "emission must contain only numbers"),
    ("utilities not a list", lambda d: _heads(d).update(utilities={"A": 1, "B": 2}),
     ValidationError, "leaf heads.utilities must be list"),
    ("utility beyond the float range", lambda d: _stay(d).update(utilities=[3, 10**400]),
     ValidationError, "utilities must contain only finite numbers"),
    ("p beyond the float range", lambda d: _coin_p(d, 10**400),
     ValidationError, "chance coin child.p must contain only finite numbers"),
]
