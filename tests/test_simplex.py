"""Two-phase simplex against hand cases and a vertex-enumeration oracle."""

import numpy as np
import pytest

from paymech import LinearProgram, NumericalBreakdown, ValidationError, simplex, solve

from .helpers import lp_oracle, random_lp


def test_simple_optimum():
    out = solve(LinearProgram(c=[1.0, 1.0], g=[[1.0, 0.0], [0.0, 1.0]], h=[1.0, 2.0]))
    assert out.is_optimal
    np.testing.assert_allclose(out.x, [1.0, 2.0], atol=1e-9)
    assert out.value == pytest.approx(3.0)


def test_infeasible():
    out = solve(LinearProgram(c=[1.0], g=[[1.0], [-1.0]], h=[1.0, 0.0]))
    assert out.status == "infeasible"
    assert out.x is None


def test_infeasible_on_both_sides():
    # x1 >= 1 and x1 <= 0; the dual of min -x2 has no point either
    out = solve(LinearProgram(c=[0.0, -1.0], g=[[1.0, 0.0], [-1.0, 0.0]], h=[1.0, 0.0]))
    assert out.status == "infeasible"
    assert out.x is None


def test_unbounded():
    out = solve(LinearProgram(c=[-1.0], g=[[1.0]], h=[0.0]))
    assert out.status == "unbounded"


def test_equality_rows():
    out = solve(LinearProgram(c=[1.0, 1.0], g=[[1.0, 0.0]], h=[1.0],
                              a_eq=[[1.0, 1.0]], b_eq=[4.0]))
    assert out.is_optimal
    assert out.value == pytest.approx(4.0)
    assert out.x[0] >= 1.0 - 1e-9
    assert out.x.sum() == pytest.approx(4.0)


def test_negative_rhs_upper_bound():
    # -x >= -5 encodes x <= 5
    out = solve(LinearProgram(c=[-1.0], g=[[-1.0], [1.0]], h=[-5.0, 0.0]))
    assert out.is_optimal
    assert out.x[0] == pytest.approx(5.0)
    assert out.value == pytest.approx(-5.0)


def test_free_variable_goes_negative():
    out = solve(LinearProgram(c=[1.0], g=[[1.0]], h=[-3.0]))
    assert out.is_optimal
    assert out.x[0] == pytest.approx(-3.0)


def test_redundant_rows_do_not_confuse():
    out = solve(LinearProgram(c=[1.0, 2.0],
                              g=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0],
                                 [1.0, 0.0], [0.0, 1.0]],
                              h=[2.0, 2.0, 4.0, 0.0, 0.0]))
    assert out.is_optimal
    assert out.value == pytest.approx(2.0)  # all weight on the cheap variable
    np.testing.assert_allclose(out.x, [2.0, 0.0], atol=1e-9)


def test_rank_deficient_duplicated_equalities():
    # every row is a multiple of x1 + x2, so the constraint matrix has rank 1
    lp = LinearProgram(c=[1.0, 1.0], g=[[1.0, 1.0]], h=[1.0],
                       a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]], b_eq=[2.0, 2.0, 4.0])
    out = solve(lp)
    assert out.is_optimal
    assert out.value == pytest.approx(2.0)
    assert out.x.sum() == pytest.approx(2.0)
    assert np.all(out.dual_ineq >= -1e-9)
    np.testing.assert_allclose(lp.g.T @ out.dual_ineq + lp.a_eq.T @ out.dual_eq, lp.c, atol=1e-9)
    assert lp.h @ out.dual_ineq + lp.b_eq @ out.dual_eq == pytest.approx(out.value)


def test_no_constraints_zero_objective():
    out = solve(LinearProgram(c=[0.0, 0.0]))
    assert out.is_optimal
    assert out.value == pytest.approx(0.0)


def test_no_constraints_nonzero_objective_unbounded():
    out = solve(LinearProgram(c=[1.0, 0.0]))
    assert out.status == "unbounded"


@pytest.mark.parametrize("second_row, phase_one", [([0.0, -1.0], 0), ([-1.0, -1.0], 1)])
def test_rows_that_bound_one_variable_start_basic(monkeypatch, second_row, phase_one):
    # x1 >= 0 bounds x1 alone; -x2 >= -5 bounds x2 alone (against its
    # negative cost), so with it every dual row starts with a real column
    # basic, and -x1 - x2 >= -5 leaves x2's row to phase one
    lp = LinearProgram(c=[1.0, -1.0], g=[[1.0, 0.0], second_row, [1.0, 1.0]],
                       h=[0.0, -5.0, 3.0])
    pivots, starts = [], []
    pivot, run = simplex._pivot, simplex._run
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or pivot(*args))
    monkeypatch.setattr(simplex, "_run", lambda *args: starts.append(len(pivots)) or run(*args))
    out = solve(lp)
    assert starts[1] == phase_one  # the pivots made before phase two
    assert out.is_optimal
    np.testing.assert_allclose(out.x, [0.0, 5.0], atol=1e-9)
    np.testing.assert_allclose(lp.g.T @ out.dual_ineq, lp.c, atol=1e-9)


def test_crash_skips_a_unit_column_below_pivot_eligibility():
    # 2**-52 x >= 0.5 can only be met through an entry the ratio test
    # treats as zero, so the crash may not start from it either
    out = solve(LinearProgram(c=[1.0], g=[[2.0**-52], [1.0]], h=[0.5, 0.0]))
    assert out.status == "infeasible"
    assert out.x is None


def test_point_that_overflows_is_a_breakdown():
    # x >= 3.4e308 has no finite answer; the basis gives x = inf, and the
    # overflow on the way warns nothing (warnings fail this suite)
    lp = LinearProgram(c=[1.0], g=[[0.5], [2.0]], h=[1.7e308, 1.0])
    with pytest.raises(NumericalBreakdown, match="not finite"):
        solve(lp)


def test_ratio_that_overflows_is_a_breakdown():
    # the ratio test divides entries near 1e307 and its smallest ratio is NaN
    lp = LinearProgram(
        c=[1.494404595315464e+307, -3.378350963321539e+307],
        g=[[-1.1043785735517961, -1.6007651310955389], [-1.0247151557952092, 1.3261113164083644],
           [0.05468083372313392, -0.15310918266332071], [1.5228220142819795, -1.1320744755088694]],
        h=[2.9649889481639886e+301, -9.217616885598258e+300, 7.505611929261872e+300,
           3.566955049417158e+299])
    with pytest.raises(NumericalBreakdown, match="^the ratio test's smallest ratio is not finite$"):
        solve(lp)


def test_nan_reduced_cost_is_a_breakdown():
    # no reduced cost reads as negative, yet the run is not optimal
    tableau = np.array([[1.0, 0.0, 1.0], [0.0, np.nan, 0.0]])
    with pytest.raises(NumericalBreakdown, match="^the basis gives a point that is not finite$"):
        simplex._run(tableau, np.array([0]))


def test_iteration_limit(monkeypatch):
    # a pivot that changes nothing keeps the same column entering
    monkeypatch.setattr(simplex, "_pivot", lambda *args: None)
    lp = LinearProgram(c=[1.0, 2.0], g=[[1.0, 1.0], [1.0, -1.0]], h=[2.0, 0.0])
    with pytest.raises(NumericalBreakdown, match="^simplex iteration limit exceeded$"):
        solve(lp)


def test_singular_final_basis(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalBreakdown, match="^final basis is singular$"):
        solve(LinearProgram(c=[1.0, 1.0], g=[[1.0, 0.0], [0.0, 1.0]], h=[1.0, 2.0]))


@pytest.mark.parametrize("lp, kind", [
    # the crash basis makes x >= 0 tight, so x = 0 breaks x >= 5
    (LinearProgram(c=[1.0], g=[[1.0], [1.0]], h=[0.0, 5.0]), "an inequality"),
    # and x = 5 breaks x = 6
    (LinearProgram(c=[1.0], a_eq=[[1.0], [1.0]], b_eq=[5.0, 6.0]), "an equality"),
])
def test_recheck_rejects_a_basis_that_stopped_early(monkeypatch, lp, kind):
    monkeypatch.setattr(simplex, "_run", lambda *args: ("optimal", None))
    with pytest.raises(NumericalBreakdown, match=f"^optimal basis violates {kind} on recheck$"):
        solve(lp)


def test_singular_basis_under_an_unbounded_ray(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    lp = LinearProgram(c=[1.0], g=[[1.0], [-1.0]], h=[1.0, 0.0])  # x >= 1 and x <= 0
    assert solve(lp).status == "infeasible"
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalBreakdown, match="^final basis is singular$"):
        solve(lp)


def _second_run(monkeypatch, basis, outcome):
    """Make phase two stop at once on `basis` with `outcome`."""
    run, calls = simplex._run, []

    def fake(tableau, current):
        calls.append(1)
        if len(calls) == 1:
            return run(tableau, current)
        current[:] = basis
        return outcome

    monkeypatch.setattr(simplex, "_run", fake)


def test_negative_multiplier_is_a_breakdown(monkeypatch):
    # x >= 0 and -x >= -5 at c = 1: the dual row is y0 - y1 = 1, and the
    # basis {y1} gives y1 = -1
    lp = LinearProgram(c=[1.0], g=[[1.0], [-1.0]], h=[0.0, -5.0])
    assert solve(lp).is_optimal
    _second_run(monkeypatch, [1], ("optimal", None))
    with pytest.raises(NumericalBreakdown, match="^the final basis gives a negative dual value$"):
        solve(lp)


def test_ray_that_proves_nothing_is_a_breakdown(monkeypatch):
    # the same program is feasible: its ray y = (1, 1) from the basis {y0}
    # and column y1 meets a y = 0 and y >= 0, but h.y = -5
    lp = LinearProgram(c=[1.0], g=[[1.0], [-1.0]], h=[0.0, -5.0])
    _second_run(monkeypatch, [0], ("unbounded", 1))
    with pytest.raises(NumericalBreakdown,
                       match="^the unbounded dual ray does not prove infeasibility$"):
        solve(lp)


def test_infeasible_beside_a_row_of_far_larger_scale():
    # x1 >= 1 and x1 <= 0 next to x2 >= 1e12: the ray y = (1, 1, 0) has
    # a y = 0 and h.y = 1, which 1e12 in a row it does not use must not hide
    out = solve(LinearProgram(c=[1.0, 1.0], g=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                              h=[1.0, 0.0, 1e12]))
    assert out.status == "infeasible"


def test_ray_off_a_y_0_is_a_breakdown_beside_a_large_column(monkeypatch):
    # the basis {row 0's artificial, y2} and column y1 give y = (0, 1, 0):
    # h.y = 1e6 > 0 but (a y)_0 = -1, which the 1e12 of the column y2,
    # unused by the ray, must not excuse
    lp = LinearProgram(c=[1.0, 1.0], g=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1e12]],
                       h=[0.0, 1e6, 1.0])
    _second_run(monkeypatch, [3, 2], ("unbounded", 1))
    with pytest.raises(NumericalBreakdown,
                       match="^the unbounded dual ray does not prove infeasibility$"):
        solve(lp)


def test_no_variables():
    out = solve(LinearProgram(c=np.zeros(0)))
    assert out.is_optimal
    assert out.value == 0.0


def test_validation_errors():
    with pytest.raises(ValidationError):
        LinearProgram(c=[np.nan])
    with pytest.raises(ValidationError):
        LinearProgram(c=[1.0], g=[[1.0]])  # h missing
    with pytest.raises(ValidationError):
        LinearProgram(c=[1.0], g=[[1.0, 2.0]], h=[0.0])  # width mismatch
    with pytest.raises(ValidationError):
        LinearProgram(c=[1.0], g=[[1.0]], h=[0.0, 1.0])  # length mismatch


def test_duals_on_hand_lp():
    lp = LinearProgram(c=[1.0, 1.0], g=[[1.0, 0.0], [0.0, 1.0]], h=[1.0, 2.0])
    out = solve(lp)
    np.testing.assert_allclose(out.dual_ineq, [1.0, 1.0], atol=1e-9)
    assert np.asarray(lp.h) @ out.dual_ineq == pytest.approx(out.value)


def test_matches_vertex_oracle_and_duality():
    rng = np.random.default_rng(101)
    checked_duals = 0
    for trial in range(120):
        lp = random_lp(rng)
        status, value = lp_oracle(lp.c, lp.g, lp.h, lp.a_eq, lp.b_eq)
        out = solve(lp)
        assert out.status == status, f"trial {trial}: {out.status} vs oracle {status}"
        if status != "optimal":
            continue
        assert out.value == pytest.approx(value, abs=1e-7)
        if lp.g is not None:
            assert np.all(lp.g @ out.x >= lp.h - 1e-7)
        if lp.a_eq is not None:
            assert np.all(np.abs(lp.a_eq @ out.x - lp.b_eq) <= 1e-7)
        if out.dual_ineq is None and out.dual_eq is None:
            continue
        dual_value = 0.0
        stationarity = -np.asarray(lp.c, dtype=float)
        if lp.g is not None:
            assert np.all(out.dual_ineq >= -1e-7)
            dual_value += lp.h @ out.dual_ineq
            stationarity = stationarity + lp.g.T @ out.dual_ineq
        if lp.a_eq is not None:
            dual_value += lp.b_eq @ out.dual_eq
            stationarity = stationarity + lp.a_eq.T @ out.dual_eq
        assert dual_value == pytest.approx(out.value, abs=1e-6)
        np.testing.assert_allclose(stationarity, 0.0, atol=1e-7)
        checked_duals += 1
    assert checked_duals > 20
