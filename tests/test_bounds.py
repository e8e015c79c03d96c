"""Spectral norms and deposit lower bounds."""

import math

import numpy as np
import pytest

from paymech import (
    GameTree,
    InfoStructure,
    NoConstraints,
    NormReport,
    SecurityParams,
    ValidationError,
    branch,
    build_constraints,
    constraint_utility_product,
    deposit_lower_bound,
    leaf,
    norms,
    spectral_norm,
)

from .helpers import random_instance


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(61)
    for _ in range(40):
        mat = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        want = np.linalg.norm(mat, 2)
        got = spectral_norm(mat)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_spectral_norm_edge_cases():
    assert spectral_norm(np.zeros((3, 4))) == 0.0
    assert spectral_norm([[2.0]]) == pytest.approx(2.0)
    # rank-one matrix: norm is the product of the factor norms
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    assert spectral_norm(np.outer(u, v)) == pytest.approx(15.0)
    for mat, message in [([1.0, 2.0], "expected a matrix, got ndim 1"),
                         ([[1.0, np.inf]], "matrix has non-finite entries")]:
        with pytest.raises(ValidationError) as err:
            spectral_norm(mat)
        assert str(err.value) == message
    assert norms(np.zeros((0, 3))) == NormReport(0.0, 0.0, 0.0, 0.0)


def test_norm_report_values():
    rep = norms([[1.0, -2.0], [3.0, 4.0]])
    assert rep.one_norm == pytest.approx(6.0)
    assert rep.inf_norm == pytest.approx(7.0)
    assert rep.max_norm == pytest.approx(4.0)
    assert rep.two_norm == pytest.approx(np.linalg.norm([[1, -2], [3, 4]], 2))


def test_constraint_utility_product_matches_direct_loop(commerce):
    system = build_constraints(commerce.tree, commerce.profile, SecurityParams(delta=1.0))
    u = commerce.tree.u
    got = constraint_utility_product(system, u)
    want = np.array([
        [row.reshape(commerce.tree.n, commerce.tree.m)[i] @ u[i] for i in range(commerce.tree.n)]
        for row in system.a
    ])
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, [[-100.0, 0.0], [0.0, 50.0], [100.0, 0.0]], atol=1e-9)


def test_commerce_bound_report(commerce):
    params = SecurityParams(delta=1.0)
    report = deposit_lower_bound(commerce.tree, commerce.info, commerce.profile, params)
    assert report.alpha == 3 and report.n == 2 and report.num_symbols == 3
    assert report.au_norm == pytest.approx(100.0 * math.sqrt(2), rel=1e-9)
    s, n, alpha, delta = 3, 2, 3, 1.0
    optimistic = (delta * math.sqrt(n) + report.au_norm / math.sqrt(n * alpha)) / (2 * s)
    conservative = delta / (2 * s * math.sqrt(n)) + report.au_norm / (2 * s * math.sqrt(n * alpha))
    assert report.optimistic_bound == pytest.approx(optimistic, rel=1e-12)
    assert report.conservative_bound == pytest.approx(conservative, rel=1e-12)
    assert report.conservative_bound <= report.optimistic_bound + 1e-12
    assert report.delta_g == pytest.approx(50.0, abs=1e-7)


def test_no_constraints_raises_with_trivial_deposit():
    tree = GameTree(("A",), branch("r", 0, [("only", leaf("x", (1.0,), (1.0,)))]))
    info = InfoStructure.from_tree(tree, ("sym",))
    with pytest.raises(NoConstraints) as err:
        deposit_lower_bound(tree, info, {"r": "only"}, SecurityParams(delta=1.0))
    assert err.value.min_max_deposit == pytest.approx(0.0, abs=1e-9)


def test_bounds_never_negative_on_random_instances():
    rng = np.random.default_rng(67)
    for _ in range(15):
        tree, info, profile = random_instance(rng)
        try:
            report = deposit_lower_bound(tree, info, profile, SecurityParams(delta=0.5))
        except NoConstraints:
            continue
        assert report.optimistic_bound >= 0.0
        assert report.conservative_bound >= 0.0
        assert report.conservative_bound <= report.optimistic_bound + 1e-12
        assert report.delta_g >= -1e-9
