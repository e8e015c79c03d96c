"""Constraint generation, verification, and the block form of the rows."""

import numpy as np
import pytest

from paymech import (
    BadParameters,
    PaymentScheme,
    SecurityParams,
    backward_induction,
    build_constraints,
    inducible_leaves,
    utility_matrix,
    verify,
)

from .helpers import oracle_rows, random_instance, system_rows


def test_security_params_validation():
    with pytest.raises(BadParameters):
        SecurityParams(delta=-1.0)
    with pytest.raises(BadParameters):
        SecurityParams(delta=np.inf)
    with pytest.raises(BadParameters):
        SecurityParams(delta=0.0, t=0)
    assert SecurityParams(delta=0.0).t == 1


def test_commerce_constraints_are_the_known_three(commerce):
    system = build_constraints(commerce.tree, commerce.profile, SecurityParams(delta=100.0))
    assert system.alpha == 3
    assert [(r.deviator, r.leaf) for r in system.rows] == [(0, 2), (1, 1), (0, 0)]
    # every gap under the closed-form scheme is exactly x
    u = utility_matrix(commerce.tree)
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


def test_block_rows_match_the_dense_matrix():
    # the kron lifting of the dense rows is the reference for lift
    rng = np.random.default_rng(37)
    for trial in range(30):
        n = 3 if trial % 3 == 0 else 2
        tree, info, profile = random_instance(
            rng, n_players=n, num_symbols=int(rng.integers(2, 5)), max_nodes=16
        )
        system = build_constraints(tree, profile, SecurityParams(delta=0.5, t=2 if n == 3 else 1))
        a = system.a
        assert a.shape == (system.alpha, n * tree.m)
        np.testing.assert_allclose(
            system.lift(info.phi), a @ np.kron(np.eye(n), info.phi.T), atol=1e-12
        )
        x = rng.normal(size=(n, tree.m))
        np.testing.assert_allclose(system.dot(x), a @ x.ravel(), atol=1e-12)


def test_coalitions_only_add_constraints():
    rng = np.random.default_rng(41)
    for _ in range(15):
        tree, info, profile = random_instance(rng, n_players=3)
        single = build_constraints(tree, profile, SecurityParams(delta=1.0, t=1))
        pairs = build_constraints(tree, profile, SecurityParams(delta=1.0, t=2))
        assert system_rows(single) <= system_rows(pairs)
