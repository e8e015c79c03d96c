"""Worked scenarios: trade with arbitration, covert computation."""

import math

import numpy as np
import pytest

from paymech import (
    BadParameters,
    CommerceParams,
    NumericalBreakdown,
    PvcParams,
    SecurityParams,
    backward_induction,
    build_commerce,
    build_pvc,
    expected_utilities,
    honest_outcome,
    implemented_utilities,
    left_inverse,
    pvc_alphabet,
    verify,
)

from .helpers import has_chance


class TestCommerce:
    def test_golden_matrices(self, commerce):
        np.testing.assert_allclose(
            commerce.tree.u,
            [[-100, 0, 150, 50], [100, 0, -50, 50]],
        )
        np.testing.assert_allclose(
            commerce.scheme.matrix,
            [[0, -25, 225], [0, 56.25, -6.25]],
            atol=1e-9,
        )
        np.testing.assert_allclose(commerce.scheme.max_deposits, [225, 56.25], atol=1e-9)

    def test_scheme_hits_target(self, commerce):
        e = implemented_utilities(commerce.tree.u, commerce.scheme, commerce.info)
        np.testing.assert_allclose(e, commerce.target_e, atol=1e-9)

    def test_margin_is_sharp(self, commerce):
        assert commerce.achieved_margin == 100.0
        ok = verify(commerce.tree, commerce.info, commerce.scheme, commerce.profile,
                    SecurityParams(delta=100.0))
        assert ok.passed and ok.min_slack == pytest.approx(0.0, abs=1e-9)
        bad = verify(commerce.tree, commerce.info, commerce.scheme, commerce.profile,
                     SecurityParams(delta=100.001))
        assert not bad.passed

    def test_honest_play(self, commerce):
        w, u = honest_outcome(commerce.tree, "root", commerce.profile)
        assert u == pytest.approx((50.0, 50.0))
        assert w[3] == 1.0 and w.sum() == 1.0

    def test_unsecured_game_collapses(self, commerce):
        # without payments the buyer never pays, so the seller never ships
        spe = backward_induction(commerce.tree)
        assert spe == {
            "root": "not_send",
            "after_send": "reject",
            "after_not_send": "reject",
        }
        assert expected_utilities(commerce.tree, spe) == pytest.approx((0.0, 0.0))

    def test_param_validation(self):
        with pytest.raises(BadParameters):
            CommerceParams(x=100, x_prime=50, y=80, eps=0.1)  # y <= x
        with pytest.raises(BadParameters):
            CommerceParams(x=40, x_prime=50, y=150, eps=0.1)  # x <= x_prime
        with pytest.raises(BadParameters):
            CommerceParams(x=100, x_prime=0, y=150, eps=0.1)
        with pytest.raises(BadParameters):
            CommerceParams(x=100, x_prime=50, y=150, eps=0.5)
        with pytest.raises(BadParameters):
            CommerceParams(x=100, x_prime=50, y=150, eps=0.0)
        for name in ("x", "x_prime", "y", "eps"):
            for bad in (math.nan, math.inf, -math.inf):
                values = {**dict(x=100, x_prime=50, y=150, eps=0.1), name: bad}
                with pytest.raises(BadParameters, match=f"^{name} must be finite"):
                    CommerceParams(**values)

    def test_scaling(self):
        # payments scale linearly in the price at fixed eps
        small = build_commerce(CommerceParams(x=10, x_prime=5, y=15, eps=0.1))
        np.testing.assert_allclose(
            small.scheme.matrix[0], np.array([0, -25, 225]) / 10.0, atol=1e-12
        )


class TestPvc:
    def test_alphabet(self):
        assert pvc_alphabet(2) == ("top", "abort_1", "cheat_1", "abort_2", "cheat_2")

    def test_golden_scheme(self, pvc):
        np.testing.assert_allclose(
            pvc.scheme.matrix,
            [[0, 1, 4, 0, -1], [0, 0, -1, 1, 4]],
            atol=1e-9,
        )
        np.testing.assert_allclose(pvc.column_sums, [0, 1, 3, 1, 3], atol=1e-9)
        np.testing.assert_allclose(pvc.scheme.max_deposits, [4.0, 4.0], atol=1e-12)

    def test_deposit_formula(self, pvc):
        p = pvc.params
        want = ((1 - p.eps) * np.asarray(p.u_plus) + p.delta) / p.eps
        np.testing.assert_allclose(pvc.scheme.max_deposits, want, atol=1e-9)

    def test_heterogeneous_cheat_payoffs(self):
        inst = build_pvc(PvcParams(n=2, eps=0.5, u_plus=(2.0, 3.0), u_minus=-1.0, delta=1.0))
        np.testing.assert_allclose(inst.scheme.max_deposits, [4.0, 5.0], atol=1e-9)
        np.testing.assert_allclose(inst.scheme.matrix[1], [0, 0, -1, 1, 5], atol=1e-9)

    def test_emission_matrix_invertible(self, pvc):
        # collapsed emissions are square; the left inverse is a true inverse
        assert pvc.info.s == pvc.info.m == 5
        m = left_inverse(pvc.info)
        np.testing.assert_allclose(m @ pvc.info.phi, np.eye(5), atol=1e-8)

    def test_scheme_hits_target(self, pvc):
        e = implemented_utilities(pvc.tree.u, pvc.scheme, pvc.info)
        np.testing.assert_allclose(e, pvc.target_e, atol=1e-9)

    def test_margin_is_sharp(self, pvc):
        # security holds with slack delta at the requested margin and is
        # tight one whole unit above it
        d = pvc.params.delta
        at = verify(pvc.tree, pvc.info, pvc.scheme, pvc.profile, SecurityParams(delta=d))
        assert at.passed and at.min_slack == pytest.approx(1.0, abs=1e-9)
        assert pvc.achieved_margin == 1.0 + d
        edge = verify(pvc.tree, pvc.info, pvc.scheme, pvc.profile,
                      SecurityParams(delta=1.0 + d))
        assert edge.passed and edge.min_slack == pytest.approx(0.0, abs=1e-9)
        beyond = verify(pvc.tree, pvc.info, pvc.scheme, pvc.profile,
                        SecurityParams(delta=1.0 + d + 1e-3))
        assert not beyond.passed

    def test_self_containment_threshold(self, pvc):
        assert pvc.self_containment_threshold == pytest.approx(-0.5)
        assert pvc.conservative_threshold == pytest.approx(-1.0)
        assert pvc.self_contained

    def test_threshold_crossing(self):
        # with a harsh exposure payoff the threshold turns positive and
        # small delta loses self-containment
        base = dict(n=2, eps=0.5, u_plus=2.0, u_minus=-3.0)
        lo = build_pvc(PvcParams(delta=0.4, **base))
        hi = build_pvc(PvcParams(delta=0.6, **base))
        assert lo.self_containment_threshold == pytest.approx(0.5)
        assert not lo.self_contained and lo.column_sums.min() == pytest.approx(-0.2)
        assert hi.self_contained and hi.column_sums.min() >= -1e-9
        at = build_pvc(PvcParams(delta=0.5, **base))
        assert at.self_contained

    def test_uncollapsed_variant(self, pvc):
        inst = build_pvc(pvc.params, collapse=False)
        assert not inst.collapsed
        assert inst.tree.m == 3 * pvc.params.n + 1
        assert has_chance(inst.tree)
        # the scheme is always derived against the collapsed tree
        np.testing.assert_allclose(inst.scheme.matrix, pvc.scheme.matrix, atol=1e-12)
        # expected play is identical in both forms
        w, u = honest_outcome(inst.tree, "p1", inst.profile)
        assert u == pytest.approx((1.0, 1.0))

    def test_raw_game_rewards_cheating(self, pvc):
        assert backward_induction(pvc.tree) == {"p1": "cheat", "p2": "cheat"}

    def test_param_validation(self):
        with pytest.raises(BadParameters):
            PvcParams(n=1, eps=0.5, u_plus=2.0, u_minus=-1.0, delta=1.0)
        with pytest.raises(BadParameters):
            PvcParams(n=2, eps=0.0, u_plus=2.0, u_minus=-1.0, delta=1.0)
        with pytest.raises(BadParameters):
            PvcParams(n=2, eps=0.5, u_plus=1.0, u_minus=-1.0, delta=1.0)
        with pytest.raises(BadParameters):
            PvcParams(n=2, eps=0.5, u_plus=2.0, u_minus=0.5, delta=1.0)
        with pytest.raises(BadParameters):
            PvcParams(n=2, eps=0.5, u_plus=2.0, u_minus=-1.0, delta=-0.1)
        with pytest.raises(BadParameters):
            PvcParams(n=2, eps=0.5, u_plus=(2.0, 2.0, 2.0), u_minus=-1.0, delta=1.0)
        with pytest.raises(BadParameters, match="from 2 to 1000"):
            PvcParams(n=PvcParams.MAX_N + 1, eps=0.5, u_plus=2.0, u_minus=-1.0, delta=1.0)
        for name in ("eps", "u_plus", "u_minus", "delta"):
            for bad in (math.nan, math.inf, -math.inf):
                values = {**dict(n=2, eps=0.5, u_plus=2.0, u_minus=-1.0, delta=1.0), name: bad}
                with pytest.raises(BadParameters, match=f"^{name} must be finite"):
                    PvcParams(**values)
        with pytest.raises(BadParameters, match="^u_plus must be finite"):
            PvcParams(n=2, eps=0.5, u_plus=(2.0, math.inf), u_minus=-1.0, delta=1.0)

    def test_subnormal_eps_is_a_numerical_failure(self):
        # the emission matrix is singular in floating point, not in exact arithmetic
        for eps in (1e-320, 2.2e-308):
            for collapse in (True, False):
                params = PvcParams(n=2, eps=eps, u_plus=2.0, u_minus=-1.0, delta=1.0)
                with pytest.raises(NumericalBreakdown, match="emission matrix is singular"):
                    build_pvc(params, collapse=collapse)
        inst = build_pvc(PvcParams(n=2, eps=1e-300, u_plus=2.0, u_minus=-1.0, delta=1.0))
        assert inst.scheme.matrix.shape == (2, 5)
