"""Scheme synthesis: objectives, side constraints, and failure modes."""

import importlib.util
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from paymech import (
    BadParameters,
    CommerceParams,
    DimensionMismatch,
    GameTree,
    Infeasible,
    InfoStructure,
    NumericalBreakdown,
    PvcParams,
    SecurityParams,
    SynthesisOptions,
    PaymentScheme,
    Unbounded,
    branch,
    chance,
    build_commerce,
    build_pvc,
    honest_outcome,
    implemented_utilities,
    leaf,
    minmax_deposit,
    parse_game_doc,
    scheme_diagnostics,
    synthesize,
    verify,
)
from paymech import cli, jsonio, security, simplex, synthesis
from paymech.synthesis import HONEST_EXPECTED, OBJ_MINMAX, OBJ_WEIGHTED

from .helpers import nested, random_instance, random_profile, random_tree, solvable_instance


def greedy_two_leaf():
    """Owner strictly prefers the off-profile leaf; one shared symbol
    makes payments useless, so nothing can secure the profile."""
    tree = GameTree(("A",), branch("r", 0, [
        ("stay", leaf("good", (0.0,), (1.0,))),
        ("grab", leaf("bad", (5.0,), (1.0,))),
    ]))
    info = InfoStructure.from_tree(tree, ("only",))
    return tree, info, {"r": "stay"}


def test_options_validation():
    with pytest.raises(BadParameters):
        SynthesisOptions(objective="maximize_profit")
    with pytest.raises(BadParameters):
        SynthesisOptions(honest_form="sometimes")


def test_weighted_objective_needs_costs(commerce):
    with pytest.raises(BadParameters):
        synthesize(commerce.tree, commerce.info, commerce.profile,
                   SecurityParams(delta=1.0),
                   opts=SynthesisOptions(objective=OBJ_WEIGHTED))


def test_minmax_output_verifies_and_is_self_contained(commerce):
    params = SecurityParams(delta=1.0)
    scheme = synthesize(commerce.tree, commerce.info, commerce.profile, params)
    assert verify(commerce.tree, commerce.info, scheme, commerce.profile, params).passed
    diag = scheme_diagnostics(scheme)
    assert diag.self_contained
    assert scheme.matrix.max() <= commerce.scheme.matrix.max() + 1e-9


def test_zero_inflation_forces_exact_column_sums(commerce):
    params = SecurityParams(delta=1.0)
    scheme = synthesize(commerce.tree, commerce.info, commerce.profile, params,
                        opts=SynthesisOptions(zero_inflation=True))
    np.testing.assert_allclose(scheme.matrix.sum(axis=0), 0.0, atol=1e-8)
    assert verify(commerce.tree, commerce.info, scheme, commerce.profile, params).passed


def test_honest_invariance_leaves_intended_path_unpaid(commerce):
    params = SecurityParams(delta=1.0)
    scheme = synthesize(commerce.tree, commerce.info, commerce.profile, params,
                        opts=SynthesisOptions(honest_invariance=True))
    u = commerce.tree.u
    e = implemented_utilities(u, scheme, commerce.info)
    w, _ = honest_outcome(commerce.tree, "root", commerce.profile)
    support = np.nonzero(w > 0)[0]
    np.testing.assert_allclose(e[:, support], u[:, support], atol=1e-8)


def test_expected_honest_invariance_is_weaker(commerce):
    params = SecurityParams(delta=1.0)
    scheme = synthesize(commerce.tree, commerce.info, commerce.profile, params,
                        opts=SynthesisOptions(honest_invariance=True,
                                              honest_form=HONEST_EXPECTED))
    w, _ = honest_outcome(commerce.tree, "root", commerce.profile)
    np.testing.assert_allclose(scheme.matrix @ (commerce.info.phi @ w), 0.0, atol=1e-8)


def test_infinite_cost_pins_entries(commerce):
    params = SecurityParams(delta=1.0)
    cost = np.ones((2, 3))
    cost[0, 0] = np.inf
    cost[1, 2] = np.inf
    scheme = synthesize(commerce.tree, commerce.info, commerce.profile, params,
                        cost=cost, opts=SynthesisOptions(objective=OBJ_WEIGHTED))
    assert scheme.matrix[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert scheme.matrix[1, 2] == pytest.approx(0.0, abs=1e-9)
    assert verify(commerce.tree, commerce.info, scheme, commerce.profile, params).passed


def test_cost_matrix_validation(commerce):
    with pytest.raises(BadParameters):
        synthesize(commerce.tree, commerce.info, commerce.profile,
                   SecurityParams(delta=1.0), cost=np.full((2, 3), -np.inf),
                   opts=SynthesisOptions(objective=OBJ_WEIGHTED))
    with pytest.raises(DimensionMismatch):
        synthesize(commerce.tree, commerce.info, commerce.profile,
                   SecurityParams(delta=1.0), cost=np.ones((3, 2)),
                   opts=SynthesisOptions(objective=OBJ_WEIGHTED))


def test_unsecurable_profile_is_infeasible():
    tree, info, profile = greedy_two_leaf()
    with pytest.raises(Infeasible):
        synthesize(tree, info, profile, SecurityParams(delta=0.0))
    assert minmax_deposit(tree, info, profile) == math.inf


@pytest.mark.parametrize("objective, cost", [(OBJ_MINMAX, None), (OBJ_WEIGHTED, [[1.0]]),
                                            (OBJ_WEIGHTED, [[-1.0]])])
def test_one_symbol_gamble_is_infeasible_under_every_objective(objective, cost):
    # the owner prefers the safe leaf, and a mechanism that sees one symbol
    # pays the same on every leaf; the lifted security row is rounding
    # residue (about 2**-52), which no crash column or pivot may use
    tree = GameTree(("A",), branch("r", 0, [
        ("gamble", chance("c", [(0.7, leaf("l0", (0.0,), (1.0,))),
                                (0.2, leaf("l1", (0.0,), (1.0,))),
                                (0.1, leaf("l2", (0.0,), (1.0,)))])),
        ("safe", leaf("s", (1.0,), (1.0,))),
    ]))
    info = InfoStructure.from_tree(tree, ("x",))
    with pytest.raises(Infeasible):
        synthesize(tree, info, {"r": "gamble"}, SecurityParams(delta=0.0), cost=cost,
                   opts=SynthesisOptions(objective=objective))


def test_one_symbol_payments_implement_nothing():
    # a mechanism that sees one symbol infers nothing, so by the paper's
    # characterisation its payments change no incentive: every objective's
    # verdict is the zero scheme's
    rng = np.random.default_rng(1)
    weighted = SynthesisOptions(objective=OBJ_WEIGHTED)
    for draw in range(300):
        n = int(rng.integers(1, 4))
        tree = random_tree(rng, n, 1, 14)
        info = InfoStructure.from_tree(tree, ("x",))
        profile = random_profile(rng, tree)
        params = SecurityParams(delta=float(rng.choice([0.0, 0.5])))
        zero = PaymentScheme(np.zeros((n, 1)))
        secure = verify(tree, info, zero, profile, params).passed
        if secure:
            scheme = synthesize(tree, info, profile, params)
            np.testing.assert_allclose(scheme.matrix, 0.0, atol=1e-9, err_msg=f"draw {draw}")
            scheme = synthesize(tree, info, profile, params, cost=np.ones((n, 1)), opts=weighted)
            assert scheme.matrix.sum() == pytest.approx(0.0, abs=1e-9), draw
            assert verify(tree, info, scheme, profile, params).passed, draw
            with pytest.raises(Unbounded):
                synthesize(tree, info, profile, params, cost=-np.ones((n, 1)), opts=weighted)
        else:
            for cost, opts in ((None, None), (np.ones((n, 1)), weighted),
                               (-np.ones((n, 1)), weighted)):
                with pytest.raises(Infeasible):
                    synthesize(tree, info, profile, params, cost=cost, opts=opts)


def test_minmax_deposit_zero_for_already_secure_profile():
    tree = GameTree(("A",), branch("r", 0, [
        ("stay", leaf("good", (5.0,), (1.0, 0.0))),
        ("grab", leaf("bad", (0.0,), (0.0, 1.0))),
    ]))
    info = InfoStructure.from_tree(tree, ("fine", "blame"))
    assert minmax_deposit(tree, info, {"r": "stay"}) == pytest.approx(0.0, abs=1e-9)


def test_synthesis_random_solvable_instances_verify():
    rng = np.random.default_rng(55)
    for _ in range(25):
        tree, info, profile = solvable_instance(rng)
        params = SecurityParams(delta=float(rng.uniform(0, 2)))
        scheme = synthesize(tree, info, profile, params)
        report = verify(tree, info, scheme, profile, params)
        assert report.passed, report.violations


def test_minmax_value_nondecreasing_in_delta():
    rng = np.random.default_rng(57)
    for _ in range(10):
        tree, info, profile = solvable_instance(rng)
        values = []
        for delta in (0.0, 0.5, 1.0, 2.0):
            scheme = synthesize(tree, info, profile, SecurityParams(delta=delta))
            values.append(scheme.matrix.max())
        assert all(a <= b + 1e-7 for a, b in zip(values, values[1:])), values


def test_minmax_deposit_scales_with_utilities_and_delta():
    # scaling every utility and delta by k scales the optimum by k; the
    # solver's absolute tolerances still break this on these draws at
    # k = 1e-9 (four optima off by more than rel 1e-6 and one
    # NumericalBreakdown) and k = 1e9 (four NumericalBreakdowns)
    rng = np.random.default_rng(5)
    for _ in range(60):
        tree, info, profile = solvable_instance(rng)
        base = synthesize(tree, info, profile, SecurityParams(delta=1.0)).matrix.max()
        for k in (1e-6, 1e-3, 1e3, 1e6):
            scaled = GameTree(tree.players, nested(tree, u=tree.u * k))
            got = synthesize(scaled, info, profile, SecurityParams(delta=k)).matrix.max()
            assert got == pytest.approx(k * base, rel=1e-6), (k, base, got)


SWEEP_SHAPES = ((2, 3, 12, True), (2, 8, 60, True), (3, 4, 30, True), (2, 6, 100, False))


CASE_STUDIES = {
    "commerce": lambda: build_commerce(CommerceParams(x=100.0, x_prime=50.0, y=150.0, eps=0.1)),
    "pvc-4": lambda: build_pvc(PvcParams(n=4, eps=0.5, u_plus=2.0, u_minus=-1.0, delta=1.0)),
}

# seed of a sweep draw (or a case study), draw, t, delta, optimum (None:
# infeasible), and the simplex pivots of the solve; the ids leave out the
# pivot count
DEGENERATE_ROWS = [
    (109, 4, 2, 0.0, 7.360222777119452, 41),
    (128, 2, 1, 1.0, 4.5, 12),
    (142, 2, 2, 1.0, None, 25),
    (49, 2, 2, 1.0, 445.55431668640085, 51),
    (55, 4, 2, 1.0, 77.1191805129405, 32),
    ("commerce", 0, 1, 1.0, 50.625, 3),
    ("pvc-4", 0, 1, 1.0, 2.0, 5),
]


@pytest.mark.parametrize("seed, draw, t, delta, optimum, pivots", [
    pytest.param(*row, id="-".join(map(str, row[:-1]))) for row in DEGENERATE_ROWS])
def test_degenerate_programs_match_reference_lp(monkeypatch, seed, draw, t, delta, optimum,
                                                pivots):
    # optima (None: infeasible) from bench/oracle.solve_program, a revised
    # simplex that returns each answer only with a checked certificate;
    # the pivot count pins the path of Bland's rule through the tableau
    if seed in CASE_STUDIES:
        inst = CASE_STUDIES[seed]()
        tree, info, profile = inst.tree, inst.info, inst.profile
    else:
        rng = np.random.default_rng(10000 + seed)
        tree, info, profile = [random_instance(rng, *shape) for shape in SWEEP_SHAPES][draw - 1]
    params = SecurityParams(delta=delta, t=t)
    count = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: count.append(1) or pivot(*args))
    if optimum is None:
        with pytest.raises(Infeasible):
            synthesize(tree, info, profile, params)
    else:
        scheme = synthesize(tree, info, profile, params)
        assert scheme.matrix.max() == pytest.approx(optimum, rel=1e-6)
        assert verify(tree, info, scheme, profile, params).passed
    assert len(count) == pivots


def test_synthesize_builds_constraints_once(commerce, monkeypatch):
    # the re-verification checks the solved scheme on the rows it solved
    calls = []
    original = security.build_constraints

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(synthesis, "build_constraints", counted)
    monkeypatch.setattr(security, "build_constraints", counted)
    synthesize(commerce.tree, commerce.info, commerce.profile, SecurityParams(delta=1.0))
    assert len(calls) == 1


def test_a_point_that_fails_re_verification_is_a_breakdown(commerce, monkeypatch):
    # the solver's point with mu[0] 100 higher: payment (0, 0) is 100
    # lower, and a row of player 0 loses 100 of slack
    def shifted(lp):
        out = simplex.solve(lp)
        x = out.x.copy()
        x[0] += 100.0
        return simplex.LpOutcome(out.status, x, out.value)

    monkeypatch.setattr(synthesis, "solve", shifted)
    message = "solver output fails re-verification (min slack -1.000e+02)"
    with pytest.raises(NumericalBreakdown) as caught:
        synthesize(commerce.tree, commerce.info, commerce.profile, SecurityParams(delta=1.0))
    assert str(caught.value) == message
    game = jsonio.dumps_canonical(
        jsonio.game_to_doc(commerce.tree, commerce.info.alphabet, commerce.profile))
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(["synth", "-", "--delta", "1"], stdout=out, stderr=err,
                        stdin=io.StringIO(game))
    assert (code, out.getvalue(), err.getvalue()) == (3, "", f"numerical failure: {message}\n")


def test_minmax_duals_certify_the_program_in_lambda(monkeypatch):
    # the solve runs over (mu, D) = T (lambda, D) with T = [[-I, 1], [0, 1]],
    # its own inverse; its multipliers must still certify the program in
    # lambda: y >= 0, G^T y + A^T z = c and h.y + b.z = D*
    solved = []
    monkeypatch.setattr(synthesis, "solve",
                        lambda lp: solved.append((lp, simplex.solve(lp))) or solved[-1][1])
    instances = []
    for name in ("commerce", "pvc-4"):
        inst = CASE_STUDIES[name]()
        for opts in (SynthesisOptions(), SynthesisOptions(zero_inflation=True)):
            instances.append((inst.tree, inst.info, inst.profile, 1.0, opts))
    rng = np.random.default_rng(77)
    for _ in range(50):
        instances.append((*solvable_instance(rng), float(rng.uniform(0, 2)), SynthesisOptions()))
    for tree, info, profile, delta, opts in instances:
        scheme = synthesize(tree, info, profile, SecurityParams(delta=delta), opts=opts)
        lp, out = solved[-1]
        ns = lp.num_vars - 1
        t = np.eye(ns + 1)
        t[:ns, :ns] *= -1.0
        t[:ns, ns] = 1.0
        g, a_eq, c = lp.g @ t, lp.a_eq @ t, t.T @ lp.c
        # in lambda the cap rows read D - lambda >= 0 and the objective is D
        np.testing.assert_array_equal(g[-ns:], np.hstack([-np.eye(ns), np.ones((ns, 1))]))
        np.testing.assert_array_equal(c, np.eye(ns + 1)[ns])
        y, z = out.dual_ineq, out.dual_eq
        assert y.min() >= -1e-9 * max(1.0, np.abs(y).max())
        scale = 1.0 + np.abs(g).T @ np.abs(y) + np.abs(a_eq).T @ np.abs(z)
        assert np.all(np.abs(g.T @ y + a_eq.T @ z - c) <= 1e-9 * scale)
        dual_value = lp.h @ y + lp.b_eq @ z
        tol = 1e-9 * (1.0 + np.abs(lp.h) @ np.abs(y))
        assert dual_value == pytest.approx(out.value, rel=1e-9, abs=tol)
        assert scheme.matrix.max() == pytest.approx(out.value, rel=1e-9, abs=1e-12)


def _bench_gen():
    """`bench/gen.py`, the benchmark's seeded tree generator, loaded by path."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _balanced_16(players):
    """The depth-5, width-4 tree with 16 symbols (1365 nodes) that
    `bench/gen.py` draws from seed 7, read as a game document."""
    gen = _bench_gen()
    return parse_game_doc(json.loads(gen.game_text(
        gen.balanced_tree(7, 5, 4, players=players, symbols=16))))


SCALE_INSTANCES = {
    "4x16": lambda: _balanced_16(4),
    "8x16": lambda: _balanced_16(8),
    # `gen pvc --n 32 --eps 0.5 --u-plus 2 --u-minus -1 --delta 1`, 2081 variables
    "pvc-32": lambda: build_pvc(PvcParams(n=32, eps=0.5, u_plus=2.0, u_minus=-1.0, delta=1.0)),
}

# instance, delta, every player's max deposit (None: infeasible) and the
# simplex pivots of the solve; started from artificials alone, phase one
# of the 4x16 tree at delta 0 ran into the iteration limit
SCALE_ROWS = [
    ("4x16", 0.0, 0.0, 1),
    ("4x16", 1.0, None, 3),
    ("8x16", 0.0, 0.0, 1),
    ("8x16", 1.0, None, 39),
    ("pvc-32", 1.0, 2.0, 33),
]


@pytest.mark.parametrize("name, delta, deposit, pivots", SCALE_ROWS)
def test_scale_instances_past_the_phase_one_cliff(monkeypatch, name, delta, deposit, pivots):
    game = SCALE_INSTANCES[name]()
    params = SecurityParams(delta=delta)
    count = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: count.append(1) or pivot(*args))
    if deposit is None:
        with pytest.raises(Infeasible):
            synthesize(game.tree, game.info, game.profile, params)
    else:
        scheme = synthesize(game.tree, game.info, game.profile, params)
        np.testing.assert_allclose(scheme.max_deposits, deposit, rtol=1e-9, atol=1e-9)
        assert verify(game.tree, game.info, scheme, game.profile, params).passed
    assert len(count) == pivots
