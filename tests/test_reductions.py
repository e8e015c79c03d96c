"""Blame schemes and the linear-program game gadget."""

import numpy as np
import pytest

from paymech import (
    AlaSpec,
    DimensionMismatch,
    NegativeComponent,
    PatternViolated,
    PaymentScheme,
    PreconditionViolated,
    SecurityParams,
    ala_scheme,
    blame_alphabet,
    lp_to_game,
    point_from_scheme,
    scheme_from_point,
    verify,
)


def test_blame_alphabet():
    assert blame_alphabet(3) == ("top", "bot_1", "bot_2", "bot_3")


def test_ala_scheme_is_diagonal_damages():
    alphabet, scheme = ala_scheme(AlaSpec((3.0, 1.5)))
    assert alphabet == ("top", "bot_1", "bot_2")
    np.testing.assert_array_equal(scheme.matrix, [[0, 3.0, 0], [0, 0, 1.5]])
    np.testing.assert_array_equal(scheme.max_deposits, [3.0, 1.5])


def test_ala_spec_validation():
    with pytest.raises(Exception):
        AlaSpec(())
    with pytest.raises(Exception):
        AlaSpec((1.0, float("nan")))
    # negative damages mean compensation; allowed, just not self-contained
    _, scheme = ala_scheme(AlaSpec((-1.0,)))
    np.testing.assert_array_equal(scheme.matrix, [[0.0, -1.0]])
    assert scheme.matrix.sum(axis=0)[1] < 0


def sample_lp():
    a = [[2.0, 0.0], [1.0, 3.0]]
    b = [2.0, 3.0]
    c = [1.0, 1.0]
    return a, b, c


def test_gadget_structure():
    a, b, c = sample_lp()
    inst = lp_to_game(a, b, c)
    assert inst.tree.players == ("P1", "P2", "P3")
    assert inst.info.alphabet == ("top", "bot_1", "bot_2")
    assert inst.num_inequalities == 2 and inst.num_vars == 2
    assert inst.tree.owner[0] == 0
    assert inst.tree.labels[0] == ("gadget_1", "gadget_2", "target")
    # per-gadget leaves: sabotage pays the saboteur 1 and the inequality
    # player the normalized bound
    u = inst.tree.u
    np.testing.assert_allclose(u[0], [1, 0, 1, 0, 0])
    np.testing.assert_allclose(u[1], [1.0, 0, 0.75, 0, 0])
    np.testing.assert_allclose(u[2], [0, 0, 0, 0, 0])
    # uphold emissions carry normalized constraint rows over blame symbols
    np.testing.assert_allclose(inst.info.phi[:, 1], [0, 1.0, 0.0])
    np.testing.assert_allclose(inst.info.phi[:, 3], [0, 0.25, 0.75])
    assert inst.profile == {"root": "gadget_1", "g1": "right", "g2": "right"}
    # P1's row and the top column are priced out; the variable entries
    # carry the objective with opposite signs for P2 and P3
    assert np.all(np.isposinf(inst.costs[0]))
    assert np.all(np.isposinf(inst.costs[:, 0]))
    np.testing.assert_allclose(inst.costs[1, 1:], [-1.0, -1.0])
    np.testing.assert_allclose(inst.costs[2, 1:], [1.0, 1.0])


def test_lp_to_game_preconditions():
    with pytest.raises(PreconditionViolated):
        lp_to_game([[1.0, -0.5]], [1.0], [1.0, 1.0])
    with pytest.raises(PreconditionViolated):
        lp_to_game([[0.0, 0.0]], [1.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        lp_to_game([[1.0, 1.0]], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        lp_to_game([[1.0, 1.0]], [1.0], [1.0])
    for a, message in [([1.0, 2.0], "need a nonempty 2D inequality matrix, got shape (2,)"),
                       ([[1.0, np.nan]], "inputs must be finite")]:
        with pytest.raises(PreconditionViolated) as err:
            lp_to_game(a, [1.0], [1.0, 1.0])
        assert str(err.value) == message


def test_rows_beyond_the_float_range_rejected():
    # a row sum or a normalized bound that overflows is a fault of that
    # row, not of the gadget leaves built from it
    for a, b in (([[1e308, 1e308]], [1.0]), ([[1e-308, 1e-308]], [1e308]),
                 ([[1.0, 1.0], [1e-320, 0.0]], [1.0, 1.0])):
        with np.errstate(all="ignore"), pytest.raises(PreconditionViolated) as info:
            lp_to_game(a, b, [1.0, 1.0])
        assert str(info.value) == (f"inequality row {len(a)} has a sum or normalized "
                                   "right-hand side beyond the float range")


def test_point_scheme_round_trip():
    a, b, c = sample_lp()
    inst = lp_to_game(a, b, c)
    x = np.array([1.25, 0.75])
    scheme = scheme_from_point(inst, x)
    np.testing.assert_array_equal(point_from_scheme(inst, scheme), x)
    np.testing.assert_array_equal(scheme.matrix[1, 1:], -x)
    np.testing.assert_array_equal(scheme.matrix[2, 1:], x)
    with pytest.raises(NegativeComponent):
        scheme_from_point(inst, [-0.5, 1.0])
    with pytest.raises(DimensionMismatch, match="point must have length 2, got 3"):
        scheme_from_point(inst, [1.0, 2.0, 3.0])


def test_point_from_scheme_checks_pattern():
    a, b, c = sample_lp()
    inst = lp_to_game(a, b, c)
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # saboteur must stay unpaid
    with pytest.raises(PatternViolated):
        point_from_scheme(inst, PaymentScheme(bad))
    bad2 = np.zeros((3, 3))
    bad2[1, 0] = -2.0  # top column must stay clean
    with pytest.raises(PatternViolated):
        point_from_scheme(inst, PaymentScheme(bad2))
    with pytest.raises(DimensionMismatch, match="scheme must be 3x3, got 3x4"):
        point_from_scheme(inst, PaymentScheme(np.zeros((3, 4))))


def test_feasibility_matches_security_at_zero_margin():
    a, b, c = sample_lp()
    inst = lp_to_game(a, b, c)
    params = SecurityParams(delta=0.0)
    feasible = np.array([1.0, 1.0])     # 2 >= 2, 4 >= 3
    infeasible = np.array([1.0, 0.5])   # second row: 2.5 < 3
    rep = verify(inst.tree, inst.info, scheme_from_point(inst, feasible), inst.profile, params)
    assert rep.passed
    rep = verify(inst.tree, inst.info, scheme_from_point(inst, infeasible), inst.profile, params)
    assert not rep.passed


def test_random_feasibility_correspondence():
    rng = np.random.default_rng(71)
    params = SecurityParams(delta=0.0)
    for _ in range(30):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        a = rng.integers(0, 4, size=(p, d)).astype(float)
        a[a.sum(axis=1) == 0, 0] = 1.0
        b = rng.integers(-3, 4, size=p).astype(float)
        c = rng.integers(-3, 4, size=d).astype(float)
        x = rng.integers(0, 4, size=d).astype(float)
        margin = (a @ x - b).min()
        if abs(margin) < 1e-6:
            continue
        inst = lp_to_game(a, b, c)
        scheme = scheme_from_point(inst, x)
        rep = verify(inst.tree, inst.info, scheme, inst.profile, params)
        assert rep.passed == (margin > 0)
        np.testing.assert_array_equal(point_from_scheme(inst, scheme), x)
