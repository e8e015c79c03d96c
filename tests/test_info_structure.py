"""Emission matrices, payment schemes, and target implementation."""

import numpy as np
import pytest

from paymech import (
    BadParameters,
    BadProbabilitySum,
    DimensionMismatch,
    GameTree,
    InfoStructure,
    NotLeftInvertible,
    PaymentScheme,
    TargetNotImplementable,
    ValidationError,
    implemented_utilities,
    left_inverse,
    scheme_diagnostics,
    scheme_for_target,
    zero_inflation_precondition,
)

from .helpers import preorder_leaves, random_root


def test_info_structure_validation():
    with pytest.raises(BadProbabilitySum):
        InfoStructure(("a", "b"), [[0.5, 0.2], [0.4, 0.8]])
    with pytest.raises(BadProbabilitySum):
        InfoStructure(("a", "b"), [[-0.1, 0.0], [1.1, 1.0]])
    with pytest.raises(DimensionMismatch):
        InfoStructure(("a", "b", "c"), [[1.0], [0.0]])
    with pytest.raises(BadParameters):
        InfoStructure(("a", "a"), [[0.5, 0.5], [0.5, 0.5]])
    for alphabet, phi, error, message in [
        ((), np.zeros((0, 1)), BadParameters, "alphabet must contain at least one symbol"),
        (("a",), [1.0], DimensionMismatch, "emission matrix must be two-dimensional"),
        (("a",), np.zeros((1, 0)), DimensionMismatch, "emission matrix needs at least one column"),
    ]:
        with pytest.raises(error) as err:
            InfoStructure(alphabet, phi)
        assert str(err.value) == message
    # a NaN sum is not within tolerance of 1, nor is an infinite entry's
    nan, inf = float("nan"), float("inf")
    for phi, message in [([[nan], [nan]], "leaf column 0 emission pdf sums to nan"),
                         ([[1.0, nan], [0.0, 1.0]], "leaf column 1 emission pdf sums to nan"),
                         ([[1.0, inf], [0.0, 0.0]], "leaf column 1 emission pdf sums to inf"),
                         ([[1.0, -inf], [0.0, inf]], "leaf column 1 has a negative emission")]:
        with pytest.raises(BadProbabilitySum, match=message):
            InfoStructure(("a", "b"), phi)
    info = InfoStructure(("a", "b"), [[0.5, 1.0], [0.5, 0.0]])
    assert info.s == 2 and info.m == 2


def test_from_tree_stacks_leaf_emissions():
    rng = np.random.default_rng(3)
    players, root = random_root(rng, num_symbols=4)
    tree = GameTree(players, root)
    info = InfoStructure.from_tree(tree, ("w", "x", "y", "z"))
    assert info.phi.shape == (4, tree.m)
    for j, body in enumerate(preorder_leaves(root)):
        np.testing.assert_array_equal(info.phi[:, j], body["emission"])
    with pytest.raises(DimensionMismatch):
        InfoStructure.from_tree(tree, ("w", "x"))


def test_payment_scheme_basics():
    scheme = PaymentScheme([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    np.testing.assert_array_equal(scheme.max_deposits, [1.0, 3.0])
    assert scheme.n == 2 and scheme.s == 3
    with pytest.raises(ValidationError):
        PaymentScheme([[np.inf, 0.0]])
    with pytest.raises(DimensionMismatch):
        PaymentScheme([1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="payment matrix must be at least 1x1"):
        PaymentScheme(np.zeros((0, 3)))


def test_implemented_utilities_hand_example():
    info = InfoStructure(("a", "b"), [[1.0, 0.25], [0.0, 0.75]])
    scheme = PaymentScheme([[2.0, -4.0]])
    u = np.array([[10.0, 20.0]])
    e = implemented_utilities(u, scheme, info)
    np.testing.assert_allclose(e, [[10.0 - 2.0, 20.0 - (2.0 * 0.25 - 4.0 * 0.75)]])


def test_shape_faults_rejected():
    info = InfoStructure(("a", "b"), [[1.0, 0.25, 0.0, 1.0], [0.0, 0.75, 1.0, 0.0]])
    three = InfoStructure(("a", "b", "c"), [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                            [0.0, 0.0, 1.0, 1.0]])
    scheme = PaymentScheme(np.zeros((2, 2)))
    for call, message in [
        (lambda: implemented_utilities(np.zeros(4), scheme, info),
         "utility matrix must be two-dimensional"),
        (lambda: implemented_utilities(np.zeros((3, 4)), scheme, info),
         "3 utility rows vs 2 scheme rows"),
        (lambda: implemented_utilities(np.zeros((2, 4)), scheme, three),
         "scheme covers 2 symbols, alphabet has 3"),
        (lambda: implemented_utilities(np.zeros((2, 5)), scheme, info),
         "5 utility columns vs 4 emission columns"),
        (lambda: scheme_for_target(np.zeros((2, 4)), np.zeros((2, 3)), info),
         "utility shape (2, 4) vs target shape (2, 3)"),
        (lambda: scheme_for_target(np.zeros((2, 5)), np.zeros((2, 5)), info),
         "(2, 5) utilities vs 4 emission columns"),
    ]:
        with pytest.raises(DimensionMismatch) as err:
            call()
        assert str(err.value) == message


def test_left_inverse_on_full_rank_matrices():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        s = int(rng.integers(m, m + 3))
        phi = rng.dirichlet(np.ones(s), size=m).T
        info = InfoStructure(tuple(f"s{k}" for k in range(s)), phi)
        if np.linalg.matrix_rank(phi) < m:
            continue
        inv = left_inverse(info)
        np.testing.assert_allclose(inv @ phi, np.eye(m), atol=1e-8)


def test_left_inverse_rejects_rank_deficient():
    phi = np.array([[0.5, 0.5], [0.5, 0.5]])
    info = InfoStructure(("a", "b"), phi)
    with pytest.raises(NotLeftInvertible) as err:
        left_inverse(info)
    assert err.value.rank == 1


def test_scheme_for_target_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        s = int(rng.integers(m, m + 3))
        phi = rng.dirichlet(np.ones(s), size=m).T
        if np.linalg.matrix_rank(phi) < m:
            continue
        info = InfoStructure(tuple(f"s{k}" for k in range(s)), phi)
        n = int(rng.integers(1, 4))
        u = rng.normal(size=(n, m))
        lam = rng.normal(size=(n, s))
        target = u - lam @ phi
        scheme = scheme_for_target(u, target, info)
        np.testing.assert_allclose(scheme.matrix @ phi, u - target, atol=1e-8)


def test_scheme_for_target_rejects_off_rowspace_targets():
    # duplicate columns leave rank 1, so any target separating the two
    # leaves is unreachable
    phi = np.array([[0.7, 0.7], [0.3, 0.3]])
    info = InfoStructure(("a", "b"), phi)
    u = np.array([[1.0, 1.0]])
    target = np.array([[1.0, 0.0]])
    with pytest.raises(TargetNotImplementable) as err:
        scheme_for_target(u, target, info)
    assert err.value.worst_residual > 1e-8


def test_scheme_diagnostics_flags():
    d = scheme_diagnostics(PaymentScheme([[1.0, -1.0], [-1.0, 1.0]]))
    np.testing.assert_array_equal(d.column_sums, [0.0, 0.0])
    assert d.self_contained and d.zero_inflation
    assert d.max_norm == 1.0
    d2 = scheme_diagnostics(PaymentScheme([[2.0, -1.0]]))
    np.testing.assert_array_equal(d2.column_sums, [2.0, -1.0])
    assert not d2.self_contained and not d2.zero_inflation


def test_zero_inflation_precondition():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert zero_inflation_precondition(u, u - np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not zero_inflation_precondition(u, u - np.array([[1.0, 0.0], [0.5, 0.0]]))


def test_commerce_scheme_reproduces_target(commerce):
    u = commerce.tree.u
    e = implemented_utilities(u, commerce.scheme, commerce.info)
    np.testing.assert_allclose(e, commerce.target_e, atol=1e-9)
